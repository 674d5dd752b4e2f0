"""Unit tests for the columnar record-batch spine building blocks.

Covers the pieces ``tests/property/test_columnar_properties.py`` drives
only end to end: the RecordBatch columns, the lazy ColumnarMessage view
(eager vstrs and the lazy re-render fallback), and the virtual
forwarder's batching edges — a single-event batch and a burst split
across the ``batch_size`` window.
"""

import json

from repro.core import ConnectorConfig, MessageBuilder
from repro.core.batch import ColumnarMessage, RecordBatch
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.experiments.world import World, WorldConfig
from repro.fs.posix import IOContext


def _event(op="write", offset=0, nbytes=512):
    ctx = IOContext(
        job_id=77, uid=1000, rank=3, node_name="nid00001",
        exe="/apps/bench", app="bench",
    )
    return IOEvent(
        module="POSIX", op=op, path="/scratch/a.dat", record_id=12345,
        context=ctx, offset=offset, nbytes=nbytes,
        start=10.0, end=10.5, cnt=4, switches=1, flushes=-1,
        max_byte=offset + nbytes - 1,
    )


def _columnar(event, *, lazy=False):
    builder = MessageBuilder()
    formatted = builder.format_columnar(event, lazy=lazy)
    assert type(formatted) is ColumnarFormatted
    return formatted


# ------------------------------------------------------------ RecordBatch


def test_record_batch_columns():
    batch = RecordBatch()
    assert len(batch) == 0 and batch.total_bytes == 0
    f = _columnar(_event())
    batch.append("1:0:0", 100, f.shape, f.values, 2.5)
    batch.append("1:0:1", 250, f.shape, f.values, 3.0)
    assert len(batch) == 2
    assert batch.total_bytes == 350
    assert batch.trace_ids == ["1:0:0", "1:0:1"]
    assert batch.times == [2.5, 3.0]
    assert batch.shapes[0] is f.shape


# -------------------------------------------------------- ColumnarMessage


def test_columnar_message_matches_reference_payload():
    event = _event()
    f = _columnar(event)
    reference = MessageBuilder().format(event)
    msg = ColumnarMessage(
        "darshanConnector", f.shape, f.values, f.vstrs, f.payload_chars,
        src_node="nid00001", publish_time=1.0, trace_id="77:3:0",
    )
    assert msg.size_bytes == len(reference.payload)
    assert msg.payload == reference.payload
    assert msg.parsed == json.loads(reference.payload)
    # Cached after first access.
    assert msg.payload is msg.payload


def test_columnar_message_lazy_rerenders_from_values():
    event = _event()
    f = _columnar(event, lazy=True)
    assert f.vstrs is None  # lazy mode skipped the slot strings
    eager = _columnar(event)
    assert f.numeric_conversions == eager.numeric_conversions
    assert f.payload_chars == eager.payload_chars
    assert f.format_cost_s == eager.format_cost_s
    msg = ColumnarMessage(
        "darshanConnector", f.shape, f.values, None, f.payload_chars,
    )
    reference = MessageBuilder().format(event)
    assert msg.payload == reference.payload
    assert msg.parsed == json.loads(reference.payload)


def test_render_meta_matches_render_parts():
    for op, nbytes in (("write", 0), ("read", 7), ("write", 2**30 + 17)):
        event = _event(op=op, nbytes=nbytes, offset=2**40)
        shape = _columnar(event).shape
        values = MessageBuilder._values(event)
        vstrs, numeric, chars = shape.render_parts(values)
        assert shape.render_meta(values) == (numeric, chars)
        assert chars == len(shape.payload(vstrs))


# ------------------------------------------------ virtual forwarder edges


def _armed_world():
    world = World(WorldConfig(seed=7, quiet=True, n_compute_nodes=2))
    assert world.spine is not None and world.spine.armed
    return world


def _stuff_rows(world, vfwd, n):
    f = _columnar(_event())
    for i in range(n):
        vfwd.outbox.append((f"77:3:{i}", 100, f.shape, f.values, 0.0))


def test_single_event_batch_drains_whole():
    world = _armed_world()
    spine = world.spine
    vfwd = next(iter(spine._l0.values()))
    _stuff_rows(world, vfwd, 1)
    vfwd.drain(0.0)
    assert not vfwd.outbox          # the lone row left immediately
    assert vfwd.tracked             # completion entry on the heap
    spine.drain_all()
    assert spine.stats.record_batches >= 1
    assert spine.stats.max_batch_rows == 1
    assert world.store.objects_stored == 1


def test_burst_splits_across_batch_size_window():
    world = _armed_world()
    spine = world.spine
    vfwd = next(iter(spine._l0.values()))
    cap = vfwd.fwd.batch_size
    _stuff_rows(world, vfwd, cap + 6)
    vfwd.drain(0.0)
    # First window takes exactly batch_size rows; the tail waits for
    # the transfer to complete.
    assert len(vfwd.outbox) == 6
    spine.drain_all()
    assert not vfwd.outbox
    assert spine.stats.batch_rows == cap + 6
    assert spine.stats.max_batch_rows == cap
    assert world.store.objects_stored == cap + 6


def test_columnar_requires_fast_lane():
    import pytest

    with pytest.raises(ValueError, match="fast_lane"):
        ConnectorConfig(columnar=True, fast_lane=False)
    with pytest.raises(ValueError, match="fast_lane"):
        World(WorldConfig(
            seed=1, quiet=True, n_compute_nodes=2,
            fast_lane=False, columnar=True,
        ))


# ------------------------------------------------------- arming by guard


def test_default_inert_world_arms_its_spine():
    """The fast lane needs no switch: a default world is inert, so its
    spine arms and carries every message of an HMMER job."""
    from repro.apps import Hmmer
    from repro.experiments import run_job

    world = World(WorldConfig())
    assert world.spine is not None and world.spine.armed
    result = run_job(world, Hmmer(ranks_per_node=2, n_families=4), "nfs",
                     connector_config=ConnectorConfig())
    assert world.spine.armed and world.spine.stats.dearms == 0
    published = result.connector.stats.messages_published
    assert published > 0
    assert world.spine.stats.rows == published
    assert world.store.objects_stored == published


def test_observed_world_builds_a_spine_that_refused_to_arm():
    """Telemetry + diagnosis + flight recorder on a 2x2 replicated
    store (the observed HMMER benchmark world): the guard refuses."""
    from repro.diagnosis import DiagnosisConfig

    world = World(WorldConfig(
        seed=1, quiet=True, n_compute_nodes=2, telemetry=True,
        diagnosis=DiagnosisConfig(), flightrec=True,
        dsos_shards=2, dsos_replication=2,
    ))
    assert world.spine is not None and not world.spine.armed
    assert world.spine.stats.dearms == 0  # never armed, never de-armed


def test_slow_lane_builds_no_spine():
    assert World(WorldConfig(quiet=True, fast_lane=False)).spine is None
