"""``frozen_record``: a frozen dataclass with a cheaper ``__init__``.

Each hot record must be indistinguishable from the plain
``@dataclass(frozen=True)`` it replaces: an instance built by the
decorated constructor is ``==``, hash-equal and ``repr``-equal to one
built by the plain dataclass's generated ``__init__`` from the same
arguments, holds the same attributes in the same order, honors the same
defaults and keywords, and refuses assignment with
``FrozenInstanceError``.
"""

import dataclasses

import pytest

from repro.darshan.runtime import IOEvent
from repro.dsos.cluster import IngestAck
from repro.dsos.journal import WalEntry, WalRecord
from repro.fs.base import OpRecord
from repro.fs.posix import IOContext
from repro.records import frozen_record
from repro.telemetry.trace import HopRecord

_CTX = IOContext(job_id=7, uid=1, rank=3, node_name="nid00001", exe="/bin/x")

#: (record class, full positional args, required-only args)
CASES = [
    (HopRecord, ("ingest", "head", 1.5, 2.25, "stored"),
     ("ingest", "head", 1.5, 2.25, "stored")),
    (IOEvent, ("POSIX", "write", "/f", 11, _CTX, 0, 4096, 1.0, 1.5, 2, 0, -1,
               4095, True, None),
     ("POSIX", "write", "/f", 11, _CTX, 0, 4096, 1.0, 1.5, 2, 0, -1, 4095)),
    (OpRecord, ("write", "/f", 0, 4096, 1.0, 1.5, True),
     ("write", "/f", 0, 4096, 1.0, 1.5)),
    (IngestAck, (1, 42, 2, 2, 2), (1, 42, 2, 2, 2)),
    (WalEntry, (0.25, "1:2:3", 12345), (0.25, "1:2:3")),
    (WalRecord, (3, "events", '{"x":1}', "1:0:3", 99), (3, "events", '{"x":1}', "1:0:3")),
]

IDS = [case[0].__name__ for case in CASES]


def _plain_twin(cls):
    """The plain ``@dataclass(frozen=True)`` with ``cls``'s fields."""
    fields = dataclasses.fields(cls)
    namespace = {"__annotations__": {f.name: f.type for f in fields}}
    namespace.update(
        {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    )
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _via_plain_init(cls, args):
    """An instance of ``cls`` built by the plain dataclass ``__init__``."""
    obj = object.__new__(cls)
    _plain_twin(cls).__init__(obj, *args)
    return obj


@pytest.mark.parametrize("cls,args,required", CASES, ids=IDS)
def test_decorated_record_matches_its_plain_dataclass_twin(cls, args, required):
    fast = cls(*args)
    reference = _via_plain_init(cls, args)
    assert fast == reference
    assert hash(fast) == hash(reference)
    assert repr(fast) == repr(reference)
    assert list(vars(fast).items()) == list(vars(reference).items())
    twin = _plain_twin(cls)(*args)
    assert repr(twin) == repr(fast)
    assert hash(twin) == hash(fast)
    assert dataclasses.astuple(twin) == dataclasses.astuple(fast)


@pytest.mark.parametrize("cls,args,required", CASES, ids=IDS)
def test_decorated_record_defaults_and_keywords(cls, args, required):
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, args))) == cls(*args)
    assert cls(*required) == _via_plain_init(cls, required)
    assert dataclasses.replace(cls(*args)) == cls(*args)
    with pytest.raises(TypeError):
        cls(*args[:-1] if len(required) == len(args) else required[:-1])
    with pytest.raises(TypeError):
        cls(*args, bogus=1)


@pytest.mark.parametrize("cls,args,required", CASES, ids=IDS)
def test_decorated_record_is_frozen(cls, args, required):
    record = cls(*args)
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, first)
    assert getattr(record, first) == args[0]


def test_frozen_record_refuses_what_it_cannot_reproduce():
    with pytest.raises(TypeError, match="plain fields"):
        @frozen_record
        class WithFactory:
            items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="plain fields"):
        @frozen_record
        class WithPostInit:
            x: int

            def __post_init__(self):
                pass
