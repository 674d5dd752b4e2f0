"""Schema-compiled canonical encoders ≡ ``json.dumps`` on any row.

``Schema.encode`` is the WAL payload encoder of the replicated write
path: a template compiled once per schema, filled per object.  The WAL
bytes every dsosd holds must not depend on whether an object took the
template or the fallback, so the property is byte equality with
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` on generated
``darshan_data`` rows — hostile strings (non-ASCII, control
characters, ``|``), non-finite and negative-zero floats, ints past
64 bits — and on irregular rows (bools, ``None``, ints in float attrs,
missing, extra or renamed keys), which must take the :func:`canonical_json`
fallback rather than the template.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsos import schema as schema_module
from repro.dsos.schema import DARSHAN_DATA_SCHEMA, Schema
from repro.records import canonical_json

_fallbacks = []


def _counting_canonical_json(obj):
    _fallbacks.append(obj)
    return canonical_json(obj)


def _schema_copy(**patches) -> Schema:
    """A fresh ``darshan_data`` schema compiled with module patches."""
    with mock.patch.multiple(schema_module, **patches):
        return Schema(
            "darshan_data",
            list(DARSHAN_DATA_SCHEMA.attrs.values()),
            DARSHAN_DATA_SCHEMA.indices,
        )


#: Same schema, its encoder's fallback observable (and unchecked, so
#: ``REPRO_FORMAT_DEBUG`` in the environment does not route every
#: object through the reference).
COUNTED = _schema_copy(
    canonical_json=_counting_canonical_json, FORMAT_DEBUG=False
)

_strings = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "|", "a|b|c", "POSIX", "é☃", "\x00\x1f\n\t\"\\",
                     "\ud800"]),
)
_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63) - 1, -1, 0]),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1.7976931348623157e308, 1650000100.25]),
)
_BY_TYPE = {"int": _ints, "float": _floats, "string": _strings}

_regular_rows = st.fixed_dictionaries({
    name: _BY_TYPE[attr.type]
    for name, attr in DARSHAN_DATA_SCHEMA.attrs.items()
})


def _finite(row) -> bool:
    return all(
        math.isfinite(row[name])
        for name, attr in DARSHAN_DATA_SCHEMA.attrs.items()
        if attr.type == "float"
    )


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(row=_regular_rows)
def test_compiled_encoder_matches_json_dumps(row):
    _fallbacks.clear()
    assert COUNTED.encode(row) == _reference(row)
    # Exact types and finite floats take the template; non-finite
    # floats take the fallback (json writes NaN/Infinity, repr does not).
    assert bool(_fallbacks) == (not _finite(row))
    assert DARSHAN_DATA_SCHEMA.encode(row) == _reference(row)


_NAMES = sorted(DARSHAN_DATA_SCHEMA.attrs)
_FLOAT_NAMES = [n for n in _NAMES if DARSHAN_DATA_SCHEMA.attrs[n].type == "float"]


@st.composite
def _irregular_rows(draw):
    row = draw(_regular_rows)
    kind = draw(st.sampled_from(
        ["bool", "none", "int_in_float", "missing", "extra", "renamed"]
    ))
    name = draw(st.sampled_from(_NAMES))
    if kind == "bool":
        row[name] = draw(st.booleans())
    elif kind == "none":
        row[name] = None
    elif kind == "int_in_float":
        row[draw(st.sampled_from(_FLOAT_NAMES))] = draw(_ints)
    elif kind == "missing":
        del row[name]
    elif kind == "renamed":
        row[name + "_x"] = row.pop(name)
    else:
        row[draw(st.sampled_from(["zz", "AA", "seg", name + "_x"]))] = (
            draw(st.one_of(_ints, _strings, st.none()))
        )
    return row


@settings(max_examples=300, deadline=None)
@given(row=_irregular_rows())
def test_irregular_rows_take_the_fallback(row):
    _fallbacks.clear()
    assert COUNTED.encode(row) == _reference(row)
    assert _fallbacks == [row]


def test_debug_encoder_cross_checks_every_object():
    """Under ``REPRO_FORMAT_DEBUG`` a template that diverges from the
    reference raises instead of writing wrong WAL bytes."""
    row = {
        name: {"int": 1, "float": 0.5, "string": "x"}[attr.type]
        for name, attr in DARSHAN_DATA_SCHEMA.attrs.items()
    }
    wrong_quote = {"encode_basestring_ascii": lambda s: '"?"'}
    assert _schema_copy(FORMAT_DEBUG=False, **wrong_quote).encode(row) != (
        _reference(row)
    )
    with pytest.raises(AssertionError, match="diverged"):
        _schema_copy(FORMAT_DEBUG=True, **wrong_quote).encode(row)
    assert _schema_copy(FORMAT_DEBUG=True).encode(row) == _reference(row)


def test_index_keys_match_key_for():
    row = {
        name: {"int": 7, "float": 2.5, "string": "s"}[attr.type]
        for name, attr in DARSHAN_DATA_SCHEMA.attrs.items()
    }
    schema = DARSHAN_DATA_SCHEMA
    assert schema.index_keys(row) == tuple(
        tuple(row[a] for a in attrs) for attrs in schema.indices.values()
    )
    for index_name, attrs in schema.indices.items():
        assert schema.key_for(index_name, row) == tuple(row[a] for a in attrs)
