"""Unit tests for the columnar message and the express spine.

Covers the pieces ``tests/property/test_columnar_properties.py`` drives
only end to end: the lazy ColumnarMessage view (eager vstrs and the
lazy re-render fallback), the real forwarder's ``batch_size`` window,
and two timings where a fused row must leave the real forwarders
exactly as the event-driven lane would — a later, smaller row from
another node overtaking it at L1, and a de-arm while it is in flight.
"""

import dataclasses
import json

from repro.core import ConnectorConfig, MessageBuilder
from repro.core.batch import ColumnarMessage
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.experiments.world import STREAM_TAG, World, WorldConfig
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


# ------------------------------------------------- real forwarder edges


def _world(*, armed, seed=7):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=2, telemetry=True,
    ))
    assert world.spine is not None and world.spine.armed
    if not armed:
        world.spine.dearm()
    return world


def _publish(world, node, nbytes, trace_id, f, rank=3):
    """One connector-style fast-lane publish at ``env.now``: into the
    armed spine, else the per-message ColumnarMessage path."""
    env = world.env
    daemon = world.fabric.compute_daemons[node]
    if world.spine.armed:
        world.spine.append(
            daemon, f.shape, f.values, nbytes, trace_id, env.now, 77, rank,
        )
        return
    world.telemetry.begin(trace_id, 77, rank, node, t_begin=env.now)
    daemon.publish_prepaid_message(ColumnarMessage(
        STREAM_TAG, f.shape, f.values, None, nbytes,
        src_node=node, publish_time=env.now, trace_id=trace_id,
    ))


def _at(world, dt, fn):
    """Run ``fn()`` in its own engine event ``dt`` seconds from now."""
    event = world.env.timeout(dt)
    event.callbacks.append(lambda _ev: fn())


def _placement(world):
    """Every stored row, per dsosd, in insert order."""
    return [d._shard("darshan_data").objects
            for d in world.store.client.cluster.daemons]


def _hops(world):
    return {
        tid: [(h.stage, h.node, h.t_in, h.t_out, h.outcome) for h in tr.hops]
        for tid, tr in world.telemetry.traces.items()
    }


def test_burst_splits_across_batch_size_window():
    """``batch_size + 6`` rows queued at one instant leave the real
    forwarder as one full window, then the tail once it completes."""
    world = _world(armed=False)
    fwd = world.fabric.compute_daemons["nid00001"]._forwarders[0]
    cap = fwd.batch_size
    f = _columnar(_event())

    def burst():
        for i in range(cap + 6):
            _publish(world, "nid00001", 100, f"77:3:{i}", f)

    _at(world, 0.0, burst)
    world.drain()
    assert fwd.stats.max_queue_depth == cap + 6
    assert fwd.stats.forwarded == cap + 6
    departures = {}
    for hops in _hops(world).values():
        (t_out,) = [h[3] for h in hops if h[:2] == ("forward", "nid00001")]
        departures[t_out] = departures.get(t_out, 0) + 1
    assert sorted(departures.items()) == [
        (min(departures), cap), (max(departures), 6),
    ]
    assert world.store.objects_stored == cap + 6


def _overtake_run(*, armed):
    world = _world(armed=armed)
    f = _columnar(_event())
    _at(world, 0.0, lambda: _publish(world, "nid00001", 200_000, "77:3:0", f))
    _at(world, 1e-6, lambda: _publish(world, "nid00002", 100, "77:4:0", f, 4))
    world.drain()
    return world


def test_a_small_row_from_another_node_overtakes_a_big_one_at_l1():
    """A big row published first must not claim L1 at publish time: a
    small row from another node, published 1 us later, reaches L1
    first and is stored first, as on the event-driven lane."""
    reference = _overtake_run(armed=False)
    world = _overtake_run(armed=True)
    ingest = {
        tid: [h[2] for h in hops if h[0] == "ingest"][0]
        for tid, hops in _hops(reference).items()
    }
    assert ingest["77:4:0"] < ingest["77:3:0"]  # the small row overtook
    assert world.spine.armed and world.spine.stats.fall_through == 2
    assert _hops(world) == _hops(reference)
    assert _placement(world) == _placement(reference)
    assert world.env.now == reference.env.now


def _mutated_campaign(*, target, nth=None, at=None):
    """An MPI-IO job whose world takes a no-op guard mutation on
    ``target``: 1 ps after the ``nth`` spine append (armed spine), or
    at the instant ``at`` (spine de-armed before the run)."""
    from random import Random

    from repro.apps import MpiIoTest
    from repro.experiments import run_job

    world = World(WorldConfig(
        seed=1337, quiet=True, n_compute_nodes=2, telemetry=True,
    ))
    fabric = world.fabric
    daemon = fabric.l1 if target == "l1" else fabric.compute_daemons[target]
    instants = []

    def mutate():
        instants.append(world.env.now)
        daemon.set_flaky(0.0, "lost", Random(0))

    spine = world.spine
    if nth is not None:
        append = spine.append

        def counted(*args):
            append(*args)
            if spine.stats.rows == nth:
                _at(world, 1e-12, mutate)

        spine.append = counted
    else:
        spine.dearm()
        world.env.timeout_at(at).callbacks.append(lambda _ev: mutate())
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=4, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    run_job(world, app, "nfs", connector_config=ConnectorConfig(),
            inter_job_gap_s=0.0)
    assert len(instants) == 1 and spine.stats.dearms == 1
    return world, instants[0]


def _forward_stats(world):
    fabric = world.fabric
    return [
        dataclasses.asdict(f.stats)
        for d in (*fabric.compute_daemons.values(), fabric.l1)
        for f in d._forwarders
    ]


def test_dearm_during_a_fused_transfer_keeps_the_hops_occupancy():
    """A de-arm while fused transfers are in flight must hand their
    occupancy to the real forwarders: rows published after it queue
    behind them exactly as on the event-driven lane."""
    for nth, target in ((4, "l1"), (4, "nid00001"), (7, "l1")):
        world, t = _mutated_campaign(target=target, nth=nth)
        reference, _ = _mutated_campaign(target=target, at=t)
        assert _hops(world) == _hops(reference), (nth, target)
        assert _forward_stats(world) == _forward_stats(reference)
        assert _placement(world) == _placement(reference)
        assert world.env.now == reference.env.now


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
