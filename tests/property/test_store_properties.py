"""Replicated-store property pins.

Two standing guarantees from the replication issue:

* **Legacy purity** — ``dsos_shards=1, dsos_replication=1`` (the
  default) is *byte-identical* to the pre-replication store on both
  lanes: same connector stats, same rows, same simulated clock,
  same telemetry.  Passing the topology knobs explicitly at their
  defaults must change nothing.
* **Deterministic convergence** — the crash drill replays
  bit-identically from one seed, the fast lane matches the slow lane
  under the drill, and arbitrary crash/recover/write interleavings
  converge once every replica is recovered and repaired: zero
  under-replication always, a complete census whenever no WAL tail
  tore (a torn tail may destroy an object whose *every* acking
  replica's copy was in the tear — the un-fsynced-ack gap — but never
  leaves a partial one).

Plus a Hypothesis pin on the WAL discipline itself: whatever tail a
torn write loses, recovery yields an exact prefix of what was appended
and never resurrects bytes past the tear.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig
from repro.dsos import Attr, DsosCluster, Schema
from repro.dsos.journal import StoreWal, WalRecord
from repro.experiments import World, WorldConfig, run_job
from repro.faults import FaultPlan, StoreCrash
from repro.ldms.resilience import RetryPolicy


# ------------------------------------------------- legacy purity pin


def _lane_campaign(lane, **dsos_kw):
    fast = lane == "fast"
    world = World(WorldConfig(
        seed=424, quiet=True, n_compute_nodes=2, telemetry=True,
        fast_lane=fast, **dsos_kw,
    ))
    app = Hmmer(ranks_per_node=4, n_families=30)
    result = run_job(
        world, app, "nfs", connector_config=ConnectorConfig(fast_lane=fast),
    )
    t = world.telemetry
    return {
        "stats": dataclasses.asdict(result.connector.stats),
        "rows": [dict(obj) for obj in world.query_job(result.job_id)],
        "runtime": result.runtime_s,
        "now": world.env.now,
        "hists": {k: v.__dict__.copy() for k, v in t.histograms.items()},
        "hops": {
            tid: [(h.stage, h.node, h.t_in, h.t_out, h.outcome)
                  for h in tr.hops]
            for tid, tr in t.traces.items()
        },
    }


def test_default_topology_knobs_change_nothing_on_any_lane():
    explicit = dict(
        dsos_shards=1, dsos_replication=1, dsos_write_quorum=None,
        dsos_repair=True,
    )
    for lane in ("slow", "fast"):
        baseline = _lane_campaign(lane)
        knobbed = _lane_campaign(lane, **explicit)
        assert knobbed == baseline, lane
        assert len(baseline["rows"]) > 0


# ------------------------------------------- drill determinism pins


_DRILL = FaultPlan((
    StoreCrash(0, at=0.15, down_for=0.3, tear_tail=True),
    StoreCrash(3, at=0.25, down_for=0.25),
))


def _drill_campaign(*, seed, fast=True):
    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=True,
        fast_lane=fast, faults=_DRILL,
        retry=RetryPolicy(), standby_l1=True,
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=4, iterations=8, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(
        world, app, "nfs",
        connector_config=ConnectorConfig(spill=True, fast_lane=fast),
        inter_job_gap_s=0.0,
    )
    return world, result


def test_same_seed_drill_replays_bit_identically():
    world_a, result_a = _drill_campaign(seed=99)
    world_b, result_b = _drill_campaign(seed=99)
    assert result_a.health.to_dict() == result_b.health.to_dict()
    assert [dataclasses.astuple(f) for f in world_a.fault_injector.applied] \
        == [dataclasses.astuple(f) for f in world_b.fault_injector.applied]
    assert (world_a.dsos.cluster.stats_snapshot()
            == world_b.dsos.cluster.stats_snapshot())


def test_fast_drill_matches_slow_lane():
    world_slow, result_slow = _drill_campaign(seed=5, fast=False)
    world_fast, result_fast = _drill_campaign(seed=5)
    # A sharded cluster never arms the express spine (quorum acks are
    # not virtualizable), so the fast lane runs per message here.
    assert not world_fast.spine.armed
    assert (dataclasses.asdict(result_fast.connector.stats)
            == dataclasses.asdict(result_slow.connector.stats))
    assert ([dict(o) for o in world_fast.query_job(result_fast.job_id)]
            == [dict(o) for o in world_slow.query_job(result_slow.job_id)])
    assert result_fast.runtime_s == result_slow.runtime_s
    assert result_fast.health.verify() and result_slow.health.verify()
    assert (world_fast.dsos.cluster.stats_snapshot()
            == world_slow.dsos.cluster.stats_snapshot())
    assert world_fast.dsos.cluster.census().complete


def _replicated_wals(fast):
    world = World(WorldConfig(
        seed=424, quiet=True, n_compute_nodes=2, telemetry=True,
        fast_lane=fast, dsos_shards=2, dsos_replication=2,
    ))
    run_job(world, Hmmer(ranks_per_node=4, n_families=30), "nfs",
            connector_config=ConnectorConfig(fast_lane=fast))
    return world.dsos.cluster


def test_replica_wals_are_one_frame_per_object_on_both_lanes():
    fast, slow = _replicated_wals(True), _replicated_wals(False)
    frames = 0
    for shard, replicas in enumerate(fast.replica_sets):
        first = replicas[0]
        expected = b"".join(
            WalRecord.make(seq, *first._by_seq[seq]).encode()
            for seq in sorted(first.applied)
        )
        frames += expected.count(b"\n")
        for d in replicas:
            assert bytes(d.wal._buf) == expected
        for d in slow.replica_sets[shard]:
            assert bytes(d.wal._buf) == expected
    # One job lands on one shard; the other shard's logs stay empty.
    assert frames == fast.count("darshan_data") > 0


# ------------------------------------------------ WAL tear property


@given(
    n_records=st.integers(min_value=1, max_value=12),
    tear=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=80, deadline=None)
def test_torn_wal_always_recovers_an_exact_prefix(n_records, tear):
    wal = StoreWal()
    for seq in range(n_records):
        wal.append(WalRecord.make(
            seq, "events", {"seq": seq, "op": "write", "ts": 0.25 * seq},
            f"1:0:{seq}",
        ).encode())
    reference = bytes(wal._buf)
    wal.tear_tail(min(tear, len(reference)))
    recovery = wal.recover()
    # Recovered entries are a strict prefix of what was appended...
    assert [r.seq for r in recovery.entries] == list(
        range(len(recovery.entries))
    )
    for record in recovery.entries:
        assert record.valid
        assert record.obj["seq"] == record.seq
    # ...and the surviving buffer is exactly those records' bytes — no
    # untrusted tail survives recovery.
    replayed = b"".join(r.encode() for r in recovery.entries)
    assert bytes(wal._buf) == replayed
    assert reference.startswith(replayed)


# --------------------------------- census convergence under chaos ops


def _mini_cluster():
    schema = Schema(
        "events",
        [Attr("job_id", "int"), Attr("timestamp", "float")],
        {"job_time": ("job_id", "timestamp")},
    )
    c = DsosCluster("mini", shards=2, replication=2)
    c.attach_schema(schema)
    return c


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 7)),
            st.tuples(st.just("crash"), st.integers(0, 3)),
            st.tuples(st.just("crash_torn"), st.integers(0, 3)),
            st.tuples(st.just("recover"), st.integers(0, 3)),
        ),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_census_converges_after_any_interleaving(ops):
    c = _mini_cluster()
    accepted = 0
    torn = False
    t = 0
    for op, arg in ops:
        if op == "write":
            t += 1
            ack = c.insert_replicated(
                "events", {"job_id": arg, "timestamp": float(t)}
            )
            accepted += 1 if ack.accepted else 0
        elif op in ("crash", "crash_torn"):
            d = c.daemons[arg]
            if d.alive:
                torn = torn or op == "crash_torn"
                c.crash_daemon(d, tear_tail=(op == "crash_torn"),
                               tear_bytes=11)
        elif op == "recover":
            d = c.daemons[arg]
            if not d.alive:
                c.recover_daemon(d)
    # Convergence: recover everything still down, then one repair pass.
    for d in c.daemons:
        if not d.alive:
            c.recover_daemon(d)
    c.repair_all()
    census = c.census()
    assert census.replicas_down == 0
    # Repair eliminates *under*-replication unconditionally: whatever
    # survives anywhere is pulled back to R copies everywhere.
    assert census.under_replicated == 0, census
    # Clean crashes lose nothing — the WAL replays in full.  Only a
    # torn tail may destroy an object outright (every acking replica's
    # copy torn away before any peer held it — the un-fsynced-ack gap).
    if not torn:
        assert census.complete, census
        assert census.lost == 0
    assert census.objects == accepted
    assert c.count("events") == census.objects - census.lost
    # Replica invariant, spelled out: every object is either fully
    # replicated (R live copies) or gone entirely — never in between.
    zero_copy = 0
    for shard in range(c.shards):
        for seq, copies in c._copies[shard].items():
            assert copies in (0, c.replication), (shard, seq, copies)
            zero_copy += 1 if copies == 0 else 0
    assert zero_copy == census.lost
