"""The express spine's correctness pin: batch speed without divergence.

The fast lane renders events column-wise and, when the world's express
spine is armed, applies uncontended publish→forward→ingest rows in
closed form.  It claims that neither is visible to the simulation.
These tests hold that line six ways:

* property tests over random events — the fast serializer's lazy
  accounting (numeric conversions, payload chars, cost) equals the
  reference formatter's, and the lazily re-rendered payload is
  byte-identical;
* a clean campaign run per lane from one seed — connector stats, DSOS
  rows and simulated end time bit-identical between the armed spine and
  the slow lane, and telemetry histograms/gauges and per-trace hop
  records bit-identical between the armed spine and the event-driven
  fast lane (the same world with its spine de-armed before the run);
* a de-armed run (foreign L2 subscriber) — the per-message fallback
  produces the byte-identical payload stream of the event-driven fast
  lane and the armed spine's stats, rows and clock;
* same-instant publishes (synchronized MPI-IO ranks) — the rows that
  cannot fuse batch in the real forwarders exactly as on the
  event-driven lane;
* generated publish schedules (ties, sub-microsecond gaps, payloads
  far past typical, an optional mid-run de-arm) — armed ≡ de-armed on
  hops, forward stats, per-dsosd rows and the clock;
* chaos — a full fault campaign (daemon crash mid-burst, partition,
  slow store, retry, standby, spill/replay) never arms the spine,
  reconciles exactly, and matches the slow lane's connector counters
  and simulated runtime.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig, MessageBuilder
from repro.core.json_format import ColumnarFormatted
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.faults import DaemonCrash, FaultPlan, LinkPartition, SlowStore
from repro.ldms.resilience import RetryPolicy

from tests.property.test_fastlane_properties import _events


# ------------------------------------------------------ random events


@given(events=st.lists(_events(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_columnar_serializer_accounting_is_identical(events):
    columnar = MessageBuilder()
    reference = MessageBuilder()
    for event in events:
        ref = reference.format(event)
        eager = columnar.format_columnar(event)
        lazy = columnar.format_columnar(event, lazy=True)
        if type(eager) is not ColumnarFormatted:
            continue  # shape self-check fell back; format() covers it
        for fm in (eager, lazy):
            assert fm.numeric_conversions == ref.numeric_conversions
            assert fm.payload_chars == len(ref.payload)
            assert fm.format_cost_s == ref.format_cost_s
        # Eager keeps the slot strings; lazy re-renders on demand.
        assert eager.shape.payload(eager.vstrs) == ref.payload
        assert lazy.vstrs is None
        assert lazy.shape.render(lazy.values)[0] == ref.payload
        assert lazy.shape.parsed(lazy.values) == json.loads(ref.payload)


# --------------------------------------------- clean two-lane identity


def _lane_campaign(lane, *, telemetry=False, dearm=False, subscribe=False):
    fast = lane == "fast"
    world = World(WorldConfig(
        seed=1337, quiet=True, n_compute_nodes=2,
        fast_lane=fast, telemetry=telemetry,
    ))
    if dearm:
        # The event-driven fast lane: same world, spine stood down.
        world.spine.dearm()
    seen = []
    if subscribe:
        # A foreign subscriber on the spine's terminal bus: the armed
        # express spine must stand down before it attaches.
        world.fabric.l2.streams.subscribe(
            STREAM_TAG,
            lambda m: seen.append((m.payload, m.src_node, m.publish_time)),
        )
        if fast:
            assert not world.spine.armed
    app = Hmmer(ranks_per_node=4, n_families=40)
    result = run_job(
        world, app, "nfs", connector_config=ConnectorConfig(fast_lane=fast),
    )
    out = {
        "stats": dataclasses.asdict(result.connector.stats),
        "rows": [dict(obj) for obj in world.query_job(result.job_id)],
        "sim_runtime": result.runtime_s,
        "now": world.env.now,
        "seen": seen,
    }
    if telemetry:
        t = world.telemetry
        out["hists"] = {k: v.__dict__.copy() for k, v in t.histograms.items()}
        out["gauges"] = {k: v.__dict__.copy() for k, v in t.gauges.items()}
        out["hops"] = {
            tid: [(h.stage, h.node, h.t_in, h.t_out, h.outcome)
                  for h in tr.hops]
            for tid, tr in t.traces.items()
        }
        out["begins"] = {
            tid: (tr.job_id, tr.rank, tr.t_begin)
            for tid, tr in t.traces.items()
        }
    return out, world


def test_columnar_campaign_is_bit_identical_across_lanes():
    slow, _ = _lane_campaign("slow")
    fast, world = _lane_campaign("fast")
    # The express spine actually ran (this is not a fallback pass) and
    # carried every published message.
    assert world.spine.armed and world.spine.stats.dearms == 0
    assert world.spine.stats.rows == fast["stats"]["messages_published"]
    for key in ("stats", "rows", "sim_runtime", "now"):
        assert fast[key] == slow[key], key
    assert len(fast["rows"]) > 0


def test_columnar_telemetry_is_bit_identical_to_fast_lane():
    slow, _ = _lane_campaign("slow", telemetry=True)
    event_driven, _ = _lane_campaign("fast", telemetry=True, dearm=True)
    fast, world = _lane_campaign("fast", telemetry=True)
    assert world.spine.armed  # telemetry alone must not de-arm
    for key in ("stats", "rows", "hists", "gauges", "begins", "hops"):
        assert fast[key] == event_driven[key], key
    # Outbox-depth gauges sample the batched forwarders, so they are
    # the one telemetry surface the slow lane does not share.
    for key in ("stats", "rows", "hists", "begins", "hops"):
        assert fast[key] == slow[key], key
    assert len(fast["hops"]) == fast["stats"]["messages_published"]


def test_dearmed_columnar_payload_stream_is_byte_identical():
    armed, _ = _lane_campaign("fast")
    event_driven, _ = _lane_campaign("fast", dearm=True, subscribe=True)
    dearmed, world = _lane_campaign("fast", subscribe=True)
    # The subscriber de-armed the spine pre-run: this run exercised the
    # per-message ColumnarMessage fallback end to end.
    assert world.spine.stats.dearms == 1
    assert world.spine.stats.rows == 0
    assert dearmed["seen"] == event_driven["seen"]
    assert len(dearmed["seen"]) > 0
    for key in ("stats", "rows", "sim_runtime", "now"):
        assert dearmed[key] == event_driven[key] == armed[key], key


def _synchronized_campaign(*, dearm):
    """MPI-IO ranks in a quiet world publish at identical instants."""
    world = World(WorldConfig(
        seed=42, quiet=True, n_compute_nodes=4, telemetry=True,
    ))
    if dearm:
        world.spine.dearm()
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=4, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())
    t = world.telemetry
    return world, {
        "health": result.health.to_dict(),
        "hops": {
            tid: [(h.stage, h.node, h.t_in, h.t_out, h.outcome)
                  for h in tr.hops]
            for tid, tr in t.traces.items()
        },
        "forward": [
            dataclasses.asdict(f.stats)
            for d in (*world.fabric.compute_daemons.values(),
                      world.fabric.l1)
            for f in d._forwarders
        ],
    }


def test_same_instant_publishes_batch_like_the_event_driven_lane():
    """Ties are not measure-zero here: synchronized ranks publish at one
    instant, and equal-size transfers from two nodes reach L1 at one
    instant.  The real forwarders' deferred kicks batch each group; the
    armed spine must batch them identically."""
    event_driven, reference = _synchronized_campaign(dearm=True)
    world, armed = _synchronized_campaign(dearm=False)
    assert world.spine.armed and world.spine.stats.fall_through > 0
    # The rows that could not fuse really batched: some real forwarder
    # held more than one row in its outbox at once.
    assert max(f["max_queue_depth"] for f in armed["forward"]) > 1
    for key in ("health", "hops", "forward"):
        assert armed[key] == reference[key], key


# ------------------------------------------ generated publish schedules

_NODES = ("nid00001", "nid00002", "nid00003")


@st.composite
def _schedules(draw):
    """Rows (node, gap to the previous row, payload bytes) plus an
    optional mid-run de-arm offset.  Gaps include exact ties and
    sub-microsecond spacing; sizes run from typical HMMER payloads to
    transfers thousands of times longer."""
    gap = st.one_of(
        st.sampled_from([0.0, 1e-9, 4e-7]), st.floats(0.0, 1e-3),
        st.floats(3e-4, 3e-3),
    )
    size = st.one_of(
        st.integers(200, 700), st.sampled_from([20_000, 200_000, 2_000_000]),
    )
    rows = draw(st.lists(
        st.tuples(st.sampled_from(_NODES), gap, size),
        min_size=1, max_size=40,
    ))
    dearm_at = draw(st.none() | st.floats(0.0, 5e-3))
    return rows, dearm_at


def _schedule_run(rows, dearm_at, *, armed):
    """Publish ``rows`` at their instants, each in its own engine event
    (the way I/O completions drive the connector)."""
    from tests.core.test_batch import (
        _columnar, _event, _forward_stats, _hops, _placement, _publish,
    )

    world = World(WorldConfig(
        seed=3, quiet=True, n_compute_nodes=3, telemetry=True,
    ))
    if not armed:
        world.spine.dearm()
    env = world.env
    f = _columnar(_event())
    t = env.now
    for i, (node, gap, nbytes) in enumerate(rows):
        t += gap
        env.timeout_at(t).callbacks.append(
            lambda _ev, node=node, nbytes=nbytes, i=i: _publish(
                world, node, nbytes, f"77:{_NODES.index(node)}:{i}", f,
            )
        )
    if dearm_at is not None:
        env.timeout_at(env.now + dearm_at).callbacks.append(
            lambda _ev: world.spine.dearm()
        )
    world.drain()
    return {
        "hops": _hops(world),
        "forward": _forward_stats(world),
        "placement": _placement(world),
        "stored": world.store.objects_stored,
        "now": env.now,
    }


@given(schedule=_schedules())
@settings(max_examples=60, deadline=None)
def test_generated_schedules_match_the_event_driven_lane(schedule):
    """Armed ≡ de-armed before the run, on any publish schedule: hop
    traces, forward stats, stored rows and their per-dsosd placement,
    and the final clock — with or without a de-arm mid-run."""
    rows, dearm_at = schedule
    armed = _schedule_run(rows, dearm_at, armed=True)
    reference = _schedule_run(rows, dearm_at, armed=False)
    assert armed == reference
    assert armed["stored"] == len(rows)


# --------------------------------------------------------------- chaos


def _chaos_campaign(*, fast):
    plan = FaultPlan((
        # Mid-burst compute-daemon crash: messages queued behind the
        # crash spill and replay; a batch in flight at the L1 crash
        # below is dropped with per-row attribution.
        DaemonCrash("nid00001", after_messages=20, down_for=0.4),
        DaemonCrash("l1", after_messages=50, down_for=0.5),
        LinkPartition("nid00002", "head", at=0.2, duration=0.3),
        SlowStore(at=0.1, duration=0.4),
    ))
    world = World(WorldConfig(
        seed=7, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=plan, retry=RetryPolicy(), standby_l1=True,
    ))
    if fast:
        # Guard discipline: a faulted world must never arm the spine.
        assert world.spine is not None and not world.spine.armed
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True, fast_lane=fast),
        inter_job_gap_s=0.0,
    )
    return result, world


def test_chaos_campaign_reconciles_and_matches_slow_lane():
    result_slow, _ = _chaos_campaign(fast=False)
    result_fast, world = _chaos_campaign(fast=True)

    health = result_fast.health
    assert health.published > 0
    assert health.verify()  # zero unaccounted events
    assert health.in_flight == 0
    assert len(world.fault_injector.applied) >= 6
    # The run hit the interesting paths: spill/replay happened, and at
    # least one message was only partially delivered when a daemon died.
    stats_fast = dataclasses.asdict(result_fast.connector.stats)
    assert stats_fast["events_spilled"] > 0
    assert stats_fast["events_replayed"] > 0
    # Lane identity under chaos: same connector counters, same runtime.
    # (Which messages a mid-batch crash drops depends on batched
    # delivery, so stored rows and drop sites are lane-specific; each
    # lane's ledger is exact.)
    assert stats_fast == dataclasses.asdict(result_slow.connector.stats)
    assert result_fast.runtime_s == result_slow.runtime_s
    assert result_slow.health.verify()
