"""Leaf helpers shared by the hot paths: immutable records and the house
canonical JSON.

:func:`frozen_record` is ``@dataclass(frozen=True)`` with a cheaper
``__init__``.  A frozen dataclass's generated constructor assigns every
field through ``object.__setattr__`` looked up afresh per field (about
2 µs per instance for a five-field record); the records built once or
more per simulated I/O event — hops, I/O events, op records, WAL
records, ingest acks — pay that on every message.  The replacement
calls ``object.__setattr__`` bound once, so equality, hashing,
``repr``, keyword construction, ``dataclasses.replace``,
``FrozenInstanceError`` on assignment and the instance layout are
exactly the frozen dataclass's own.  (Storing into ``self.__dict__``
instead is faster still, but on CPython 3.11 it materializes a real
dict per instance — 63 more bytes each, +3 MB peak RSS on the observed
HMMER campaign, whose hop records are all retained.)

:func:`canonical_json` is the one canonical object encoding: the DSOS
WAL payload, the flight recorder's bundle archive and the schema-
compiled encoders (:meth:`repro.dsos.schema.Schema.encode`) all produce
these bytes.

This module imports nothing from ``repro``, so any layer may use it.
"""

from __future__ import annotations

import dataclasses
import json
import os

__all__ = ["FORMAT_DEBUG", "canonical_json", "frozen_record"]

#: ``REPRO_FORMAT_DEBUG=1``: every compiled serializer cross-checks each
#: output against its reference encoding (the fast-lane message builder
#: against ``_format_slow``, the schema encoders against
#: :func:`canonical_json`).
FORMAT_DEBUG = bool(os.environ.get("REPRO_FORMAT_DEBUG"))


def canonical_json(obj) -> str:
    """The house canonical form: sorted keys, compact separators.

    Float formatting is ``repr`` (shortest round-trip), so equal values
    always serialize to equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frozen_record(cls):
    """``@dataclass(frozen=True)`` with a cheaper generated ``__init__``.

    Only plain fields with plain defaults are supported; a field with a
    ``default_factory``, ``init=False`` or a class with
    ``__post_init__`` is refused (the generated constructor would have
    to reproduce those semantics).
    """
    cls = dataclasses.dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__") or any(
        not f.init or f.default_factory is not dataclasses.MISSING
        for f in fields
    ):
        raise TypeError(f"{cls.__name__}: frozen_record supports plain "
                        "fields with plain defaults only")
    defaults = {}
    params = []
    for f in fields:
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            defaults[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
    body = "".join(f"\n    _set(self, {f.name!r}, {f.name})" for f in fields)
    source = f"def __init__(self, {', '.join(params)}):{body}\n"
    namespace: dict = {}
    exec(source, {**defaults, "_set": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
