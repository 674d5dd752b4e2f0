"""Schemas: typed attributes and joint indices.

A DSOS schema names its attributes and declares *indices*; a joint
index like ``job_rank_time`` orders objects by (job_id, rank,
timestamp), so "search the data by a specific rank within a specific
job over time" (the paper's example) is a prefix range scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from repro.records import FORMAT_DEBUG, canonical_json

__all__ = ["Attr", "Schema", "SchemaError", "DARSHAN_DATA_SCHEMA"]

_TYPES = {
    "int": int,
    "float": float,
    "string": str,
}


class SchemaError(ValueError):
    """Schema definition or object-validation failure."""


@dataclass(frozen=True)
class Attr:
    """One typed attribute."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in _TYPES:
            raise SchemaError(
                f"attribute {self.name!r}: unknown type {self.type!r} "
                f"(expected one of {sorted(_TYPES)})"
            )

    def validate(self, value) -> None:
        expected = _TYPES[self.type]
        # ints are acceptable where floats are declared.
        if expected is float and isinstance(value, int):
            return
        if not isinstance(value, expected):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.type}, "
                f"got {type(value).__name__}: {value!r}"
            )


class Schema:
    """Attribute set + named joint indices.

    Construction also compiles the per-object work of the write path,
    once per schema:

    * ``key_getters[index]`` — ``obj -> key tuple`` for one index;
    * ``index_keys(obj)`` — every index's key, in ``indices`` order;
    * ``encode(obj)`` — :func:`~repro.records.canonical_json` of one
      object, byte for byte, from a precompiled template.  An object
      whose keys or exact value types differ from the schema (bools,
      ints in float attrs, missing or extra keys), or that holds a
      non-finite float, falls back to :func:`canonical_json` itself.
    """

    def __init__(self, name: str, attrs: list[Attr], indices: dict[str, tuple]):
        if not name:
            raise SchemaError("schema name must be non-empty")
        if not attrs:
            raise SchemaError("schema needs at least one attribute")
        self.name = name
        self.attrs = {a.name: a for a in attrs}
        if len(self.attrs) != len(attrs):
            raise SchemaError("duplicate attribute names")
        self.indices: dict[str, tuple] = {}
        for index_name, key_attrs in indices.items():
            key_attrs = tuple(key_attrs)
            missing = [k for k in key_attrs if k not in self.attrs]
            if missing:
                raise SchemaError(
                    f"index {index_name!r} references unknown attrs {missing}"
                )
            if not key_attrs:
                raise SchemaError(f"index {index_name!r} has an empty key")
            self.indices[index_name] = key_attrs
        self.key_getters = {
            index_name: _compile(f"return {_key_expr(key_attrs)}")
            for index_name, key_attrs in self.indices.items()
        }
        self.index_keys = _compile("return (" + "".join(
            _key_expr(key_attrs) + ", " for key_attrs in self.indices.values()
        ) + ")")
        self.encode = _compile_encoder(self.attrs)

    def validate(self, obj: dict) -> None:
        """Check an object against the schema (extra keys rejected)."""
        for key, value in obj.items():
            attr = self.attrs.get(key)
            if attr is None:
                raise SchemaError(f"object has unknown attribute {key!r}")
            attr.validate(value)
        missing = set(self.attrs) - set(obj)
        if missing:
            raise SchemaError(f"object missing attributes {sorted(missing)}")

    def key_for(self, index_name: str, obj: dict) -> tuple:
        """The sort key of ``obj`` under ``index_name``."""
        try:
            getter = self.key_getters[index_name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no index {index_name!r}; "
                f"available: {sorted(self.indices)}"
            ) from None
        return getter(obj)


def _key_expr(key_attrs: tuple) -> str:
    """Source of the key tuple ``(obj[a0], obj[a1], ...)``."""
    return "(" + "".join(f"obj[{a!r}], " for a in key_attrs) + ")"


def _compile(body: str, namespace: dict | None = None, name: str = "fn"):
    """A one-argument function ``name(obj)`` with the given body."""
    source = f"def {name}(obj):\n    " + body.replace("\n", "\n    ")
    scope = dict(namespace or {})
    exec(source, scope)
    return scope[name]


def _compile_encoder(attrs: dict):
    """``obj -> canonical_json(obj)`` for objects of exactly this shape.

    The template holds the sorted, quoted keys; values fill ``%s``
    slots (``str`` of an exact int or float is its ``repr``, which is
    what ``json.dumps`` writes), strings through the same
    ``encode_basestring_ascii`` that ``json.dumps`` uses.  Under
    ``REPRO_FORMAT_DEBUG`` every output is checked against
    :func:`canonical_json`.
    """
    names = sorted(attrs)
    types = tuple(_TYPES[attrs[n].type] for n in names)
    template = "{" + ",".join(
        encode_basestring_ascii(n).replace("%", "%%") + ":%s" for n in names
    ) + "}"
    slots = [f"v{i}" for i in range(len(names))]
    args = [
        f"quote({v})" if t is str else v for v, t in zip(slots, types)
    ]
    finite = " and ".join(
        f"-INF < {v} < INF" for v, t in zip(slots, types) if t is float
    )
    body = (
        "if obj.keys() != KEYS:\n"
        "    return canonical_json(obj)\n"
        f"values = {_key_expr(names)}\n"
        "if tuple(map(type, values)) != TYPES:\n"
        "    return canonical_json(obj)\n"
        + "".join(f"{v}, " for v in slots) + "= values\n"
        + (f"if not ({finite}):\n    return canonical_json(obj)\n"
           if finite else "")
        + f"return TEMPLATE % ({''.join(a + ', ' for a in args)})"
    )
    encode = _compile(body, {
        "KEYS": frozenset(names),
        "TYPES": types,
        "TEMPLATE": template,
        "INF": float("inf"),
        "quote": encode_basestring_ascii,
        "canonical_json": canonical_json,
    }, "encode")
    if not FORMAT_DEBUG:
        return encode

    def checked(obj) -> str:
        out = encode(obj)
        reference = canonical_json(obj)
        if out != reference:
            raise AssertionError(
                f"compiled encoder diverged: {out!r} != {reference!r}"
            )
        return out

    return checked


def _darshan_data_schema() -> Schema:
    """The schema the connector's messages land in (Fig 3 flattened)."""
    attrs = [
        Attr("module", "string"),
        Attr("uid", "int"),
        Attr("ProducerName", "string"),
        Attr("switches", "int"),
        Attr("file", "string"),
        Attr("rank", "int"),
        Attr("flushes", "int"),
        Attr("record_id", "int"),
        Attr("exe", "string"),
        Attr("max_byte", "int"),
        Attr("type", "string"),
        Attr("job_id", "int"),
        Attr("op", "string"),
        Attr("cnt", "int"),
        Attr("seg_off", "int"),
        Attr("seg_pt_sel", "int"),
        Attr("seg_dur", "float"),
        Attr("seg_len", "int"),
        Attr("seg_ndims", "int"),
        Attr("seg_reg_hslab", "int"),
        Attr("seg_irreg_hslab", "int"),
        Attr("seg_data_set", "string"),
        Attr("seg_npoints", "int"),
        Attr("timestamp", "float"),
    ]
    indices = {
        # The paper's worked example: order by job, rank, then time.
        "job_rank_time": ("job_id", "rank", "timestamp"),
        "job_time_rank": ("job_id", "timestamp", "rank"),
        "time_job_rank": ("timestamp", "job_id", "rank"),
        "job_id": ("job_id",),
    }
    return Schema("darshan_data", attrs, indices)


#: Shared instance used across the pipeline.
DARSHAN_DATA_SCHEMA = _darshan_data_schema()
