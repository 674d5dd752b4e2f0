"""Replicated sharded DSOS: quorum ingest, crash/recovery, anti-entropy.

The replica invariant under test: after recovery plus repair, every
accepted object holds ``copies(obj) >= min(R, live_replicas)`` — the
census must come back complete no matter which replica crashed, whether
its WAL lost a torn tail, and in which order recovery/repair ran.
"""

import pytest

from repro.dsos import Attr, DsosCluster, Schema, SchemaError
from repro.dsos.daemon import StoreDownError
from repro.dsos.journal import WalRecord


def _schema():
    return Schema(
        "events",
        [
            Attr("job_id", "int"),
            Attr("rank", "int"),
            Attr("timestamp", "float"),
        ],
        {
            "job_rank_time": ("job_id", "rank", "timestamp"),
            "time": ("timestamp",),
        },
    )


def _cluster(shards=2, replication=2, **kw):
    c = DsosCluster("hot", shards=shards, replication=replication, **kw)
    c.attach_schema(_schema())
    return c


def _event(job, rank, ts):
    return {"job_id": job, "rank": rank, "timestamp": float(ts)}


def _jobs_on_distinct_shards(cluster, n=2):
    """Job ids hashing to n distinct shards (deterministic search)."""
    jobs, seen = [], set()
    for job in range(1000):
        shard = cluster.shard_of("events", _event(job, 0, 0.0))
        if shard not in seen:
            seen.add(shard)
            jobs.append(job)
            if len(jobs) == n:
                return jobs
    raise AssertionError("job-hash never covered the shards")


# ----------------------------------------------------------- topology


def test_sharded_topology_is_shards_times_replicas():
    c = _cluster(shards=3, replication=2)
    assert len(c.daemons) == 6
    assert [len(rs) for rs in c.replica_sets] == [2, 2, 2]
    for shard, replicas in enumerate(c.replica_sets):
        assert all(d.shard_id == shard for d in replicas)
        assert all(d.wal_enabled for d in replicas)


def test_majority_write_quorum_by_default():
    assert _cluster(replication=3).write_quorum == 2
    assert _cluster(replication=2).write_quorum == 2
    assert _cluster(replication=1, shards=2).write_quorum == 1


def test_write_quorum_validation():
    with pytest.raises(ValueError, match="write_quorum"):
        _cluster(replication=2, write_quorum=3)
    with pytest.raises(ValueError, match="write_quorum"):
        _cluster(replication=2, write_quorum=0)
    with pytest.raises(ValueError):
        DsosCluster("bad", shards=0)


def test_job_hash_routing_is_deterministic_and_job_local():
    c = _cluster(shards=4, replication=2)
    for job in range(20):
        shards = {
            c.shard_of("events", _event(job, rank, t))
            for rank in range(4)
            for t in (0.0, 1.5, 99.0)
        }
        assert len(shards) == 1  # one job -> one shard, any rank/time


# ------------------------------------------------------ quorum ingest


def test_full_quorum_write_lands_on_every_replica():
    c = _cluster()
    ack = c.insert_replicated("events", _event(1, 0, 0.5), trace_id="1:0:0")
    assert ack.accepted and ack.quorum_met
    assert ack.acks == 2 and ack.seq == 0
    replicas = c.replica_sets[ack.shard]
    assert all(d.count("events") == 1 for d in replicas)
    assert c.count("events") == 1  # distinct objects, not copies


def test_degraded_write_below_quorum_is_stored_and_counted():
    c = _cluster()
    shard = c.shard_of("events", _event(1, 0, 0.0))
    c.crash_daemon(c.replica_sets[shard][0])
    ack = c.insert_replicated("events", _event(1, 0, 0.0))
    assert ack.accepted and not ack.quorum_met
    assert ack.acks == 1
    assert c.quorum_degraded_writes == 1
    assert c.census().under_replicated == 0  # min(R, live)=1 is met


def test_rejected_write_consumes_no_sequence_number():
    c = _cluster()
    shard = c.shard_of("events", _event(1, 0, 0.0))
    for d in c.replica_sets[shard]:
        c.crash_daemon(d)
    ack = c.insert_replicated("events", _event(1, 0, 0.0))
    assert not ack.accepted and ack.seq is None
    assert c.rejected_writes == 1
    assert c._next_seq[shard] == 0
    # The other shard keeps accepting at full quorum.
    other_job = next(
        j for j in range(100)
        if c.shard_of("events", _event(j, 0, 0.0)) != shard
    )
    assert c.insert_replicated("events", _event(other_job, 0, 0.0)).quorum_met


def test_insert_and_insert_many_delegate_to_replication():
    c = _cluster()
    c.insert("events", _event(1, 0, 0.0))
    c.insert_many("events", [_event(1, 0, 1.0), _event(2, 1, 2.0)])
    assert c.writes == 3
    assert c.count("events") == 3


def test_insert_reports_a_rejected_write():
    # 1x2 cluster, both replicas down: the write is rejected, and
    # insert/insert_many say so instead of claiming it landed.
    c = _cluster(shards=1, replication=2)
    for d in c.daemons:
        c.crash_daemon(d)
    assert c.insert("events", _event(1, 0, 0.0)) is False
    assert c.insert_many("events", [_event(1, 0, 1.0)]) == 0
    assert c.rejected_writes == 2
    assert c.count("events") == 0


def test_insert_many_returns_the_accepted_count():
    c = _cluster()
    jobs = _jobs_on_distinct_shards(c)
    for d in c.replica_sets[c.shard_of("events", _event(jobs[0], 0, 0.0))]:
        c.crash_daemon(d)
    objs = [_event(jobs[0], 0, 1.0), _event(jobs[1], 0, 2.0),
            _event(jobs[1], 1, 3.0)]
    assert c.insert_many("events", objs) == 2
    assert c.insert("events", _event(jobs[1], 2, 4.0)) is True
    assert c.count("events") == 3
    # Legacy clusters accept every write.
    flat = DsosCluster("flat", n_daemons=2)
    flat.attach_schema(_schema())
    assert flat.insert("events", _event(1, 0, 0.0)) is True
    assert flat.insert_many("events", objs) == 3


def test_legacy_cluster_refuses_replication_api():
    c = DsosCluster("flat", n_daemons=3)
    c.attach_schema(_schema())
    with pytest.raises(SchemaError, match="sharded"):
        c.insert_replicated("events", _event(1, 0, 0.0))
    with pytest.raises(SchemaError, match="sharded"):
        c.crash_daemon(0)
    assert c.health_summary() == {
        "replicas_down": 0, "under_replicated": 0, "lost": 0,
        "replica_lag": 0, "shard_skew": 0,
    }


# ------------------------------------------- crash / recover / repair


def _fill(c, n=30):
    jobs = _jobs_on_distinct_shards(c)
    for i in range(n):
        job = jobs[i % len(jobs)]
        c.insert_replicated(
            "events", _event(job, i % 4, 0.1 * i), trace_id=f"{job}:{i}"
        )
    return jobs


def test_crash_degrades_census_and_recovery_replays_wal():
    c = _cluster()
    _fill(c)
    victim = c.replica_sets[0][0]
    applied_before = set(victim.applied)

    c.crash_daemon(victim)
    census = c.census()
    assert census.replicas_down == 1
    assert census.under_replicated == 0  # peer holds quorum for live=1
    assert 0 in census.degraded_shards
    assert not victim.alive and victim.count("events") == 0

    recovery = c.recover_daemon(victim)
    assert not recovery.truncated
    assert set(victim.applied) == applied_before
    assert victim.wal_replayed == len(applied_before)
    assert c.census().complete
    assert c.census().replicas_down == 0


def test_torn_tail_needs_anti_entropy_repair():
    c = _cluster()
    _fill(c)
    victim = c.replica_sets[0][0]
    applied_before = set(victim.applied)

    c.crash_daemon(victim, tear_tail=True, tear_bytes=40)
    recovery = c.recover_daemon(victim)
    assert recovery.truncated
    missing = applied_before - set(victim.applied)
    assert missing  # the torn tail really lost records
    assert c.census().under_replicated == len(missing)

    pulled = c.repair_daemon(victim)
    assert sorted(seq for seq, _ in pulled) == sorted(missing)
    assert victim.repair_pulled == len(missing)
    assert set(victim.applied) == applied_before
    assert c.census().complete


def test_repair_is_idempotent():
    c = _cluster()
    _fill(c)
    victim = c.replica_sets[0][1]
    c.crash_daemon(victim, tear_tail=True, tear_bytes=25)
    c.recover_daemon(victim)
    first = c.repair_daemon(victim)
    assert first
    assert c.repair_daemon(victim) == []
    assert c.repair_all()[victim.name] == []
    assert c.census().complete


def test_replica_invariant_after_every_single_crash():
    # Crash/recover/repair each daemon in turn: the census must come
    # back complete every time (copies >= min(R, live) for all objects).
    c = _cluster(shards=2, replication=3)
    _fill(c, n=40)
    for i, victim in enumerate(c.daemons):
        c.crash_daemon(victim, tear_tail=(i % 2 == 0), tear_bytes=30)
        c.recover_daemon(victim)
        c.repair_daemon(victim)
        census = c.census()
        assert census.complete, f"daemon {i}: {census}"
        assert census.replicas_down == 0


def _shard_frames(c, written):
    """Per shard, the WAL bytes a replica must hold: one
    ``WalRecord.make(...).encode()`` per accepted object, in seq order."""
    frames = [b""] * c.shards
    for obj, trace_id, ack in written:
        frames[ack.shard] += WalRecord.make(
            ack.seq, "events", obj, trace_id
        ).encode()
    return frames


def test_replicas_append_one_frame_per_object():
    c = _cluster()
    jobs = _jobs_on_distinct_shards(c)
    written = []
    for i in range(24):
        obj = _event(jobs[i % 2], i % 3, 0.1 * i)
        trace_id = f"{jobs[i % 2]}:{i % 3}:{i}" if i % 5 else ""
        written.append((obj, trace_id, c.insert_replicated(
            "events", obj, trace_id=trace_id)))
    frames = _shard_frames(c, written)
    for shard, replicas in enumerate(c.replica_sets):
        assert frames[shard]
        for d in replicas:
            assert bytes(d.wal._buf) == frames[shard]
            assert d.wal.records_appended == frames[shard].count(b"\n")
    # Replicas share the object and its index keys, not copies of them.
    a, b = c.replica_sets[0]
    for index_name in a._shard("events").indices:
        rows_a, _ = a.query_shard("events", index_name)
        rows_b, _ = b.query_shard("events", index_name)
        assert rows_a == rows_b
        assert all(x[1] is y[1] for x, y in zip(rows_a, rows_b))


def test_crash_recover_repair_reconciles_frames_and_indices():
    c = _cluster()
    jobs = _jobs_on_distinct_shards(c)
    written = []
    for i in range(20):
        obj = _event(jobs[i % 2], i % 4, 0.1 * i)
        written.append((obj, f"t{i}", c.insert_replicated(
            "events", obj, trace_id=f"t{i}")))
    victim, peer = c.replica_sets[0]
    c.crash_daemon(victim, tear_tail=True, tear_bytes=30)
    # Writes while the victim is down land on the peer alone.
    for i in range(20, 26):
        obj = _event(jobs[0], 0, 0.1 * i)
        written.append((obj, f"t{i}", c.insert_replicated(
            "events", obj, trace_id=f"t{i}")))
    assert bytes(peer.wal._buf) == _shard_frames(c, written)[0]
    c.recover_daemon(victim)
    pulled = c.repair_daemon(victim)
    assert pulled and c.census().complete
    # The victim's log is its replayed prefix plus the pulled frames —
    # byte for byte the records the peer holds, in a different order.
    recovered = victim.wal.recover().entries
    assert sorted(r.encode() for r in recovered) == sorted(
        r.encode() for r in peer.wal.recover().entries
    )
    assert set(victim.applied) == set(peer.applied)
    for index_name in victim._shard("events").indices:
        rows_v, _ = victim.query_shard("events", index_name)
        rows_p, _ = peer.query_shard("events", index_name)
        assert rows_v == rows_p


def test_writes_to_crashed_daemon_raise_store_down():
    c = _cluster()
    victim = c.replica_sets[0][0]
    c.crash_daemon(victim)
    with pytest.raises(StoreDownError, match=victim.name):
        victim.insert_seq("events", 0, _event(1, 0, 0.0))


def test_permanent_crash_objects_survive_on_peer():
    c = _cluster()
    _fill(c)
    total = c.count("events")
    c.crash_daemon(c.replica_sets[0][0])
    c.crash_daemon(c.replica_sets[1][1])
    census = c.census()
    assert census.lost == 0  # every object still has a live copy
    assert c.count("events") == total


# ------------------------------------------------------ observability


def test_health_summary_reports_lag_and_skew():
    c = _cluster()
    job_for_shard = {}
    for job in range(1000):
        job_for_shard.setdefault(
            c.shard_of("events", _event(job, 0, 0.0)), job
        )
        if len(job_for_shard) == 2:
            break
    victim = c.replica_sets[0][0]
    # Park the shard-0 victim dead and write: the live peer runs ahead.
    c.crash_daemon(victim)
    for i in range(6):
        c.insert_replicated("events", _event(job_for_shard[0], 0, float(i)))
    for i in range(2):
        c.insert_replicated("events", _event(job_for_shard[1], 0, float(i)))
    c.recover_daemon(victim)  # replay catches up only the WAL'd prefix
    health = c.health_summary()
    assert health["replica_lag"] == 6  # victim missed 6 shard-0 writes
    assert health["shard_skew"] == 4   # 6 visible on shard 0 vs 2 on 1
    assert health["under_replicated"] == 6
    c.repair_daemon(victim)
    health = c.health_summary()
    assert health["replica_lag"] == 0
    assert health["under_replicated"] == 0


def test_stats_snapshot_qualifies_every_series_by_shard_and_daemon():
    c = _cluster()
    _fill(c, n=10)
    victim = c.replica_sets[0][0]
    c.crash_daemon(victim, tear_tail=True)
    c.recover_daemon(victim)
    c.repair_daemon(victim)
    snap = c.stats_snapshot()
    assert snap["sharded"] and snap["shards"] == 2
    assert snap["writes"] == 10
    names = {(d["daemon"], d["shard"]) for d in snap["daemons"]}
    assert len(names) == 4  # every (daemon, shard) pair distinct
    by_name = {d["daemon"]: d for d in snap["daemons"]}
    v = by_name[victim.name]
    assert v["crashes"] == 1
    assert v["wal_truncated_bytes"] > 0
    assert v["wal_replayed"] + v["repair_pulled"] == v["objects_stored"]
    for d in snap["daemons"]:
        assert {"wal_records", "wal_replayed", "wal_truncated_bytes",
                "repair_pulled"} <= set(d)
