"""Tests for the LDMS → DSOS store plugin."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dsos import DARSHAN_DATA_SCHEMA, DsosClient, DsosCluster, DsosStreamStore
from repro.dsos.metric_store import MetricStreamStore
from repro.ldms import Ldmsd
from repro.sim import Environment, RngRegistry

TAG = "darshanConnector"


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def daemon(env):
    cluster = Cluster(env, RngRegistry(0), ClusterSpec(n_compute_nodes=1))
    return Ldmsd(env, cluster.analysis_node, cluster.network)


@pytest.fixture
def client():
    return DsosClient(DsosCluster("shirley", n_daemons=2))


def _message(op="write", rank=3, ts=1650000100.25):
    return {
        "uid": 99066,
        "exe": "/apps/hacc-io",
        "job_id": 259903,
        "rank": rank,
        "ProducerName": "nid00046",
        "file": "/scratch/part.dat",
        "record_id": 123456789,
        "module": "POSIX",
        "type": "MOD",
        "max_byte": 1048575,
        "switches": 2,
        "flushes": -1,
        "cnt": 7,
        "op": op,
        "seg": [
            {
                "data_set": "N/A",
                "pt_sel": -1,
                "irreg_hslab": -1,
                "reg_hslab": -1,
                "ndims": -1,
                "npoints": -1,
                "off": 0,
                "len": 1048576,
                "dur": 0.125,
                "timestamp": ts,
            }
        ],
    }


def test_store_inserts_flattened_objects(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    daemon.publish_now(TAG, _message())
    assert store.objects_stored == 1
    assert client.count("darshan_data") == 1
    rows = client.query("darshan_data", "job_rank_time", prefix=(259903,)).rows
    assert rows[0]["seg_len"] == 1048576
    assert rows[0]["seg_dur"] == 0.125
    assert rows[0]["timestamp"] == 1650000100.25
    assert rows[0]["module"] == "POSIX"


def test_store_queryable_by_paper_index(env, daemon, client):
    DsosStreamStore(daemon, TAG, client)
    for rank in (2, 0, 1):
        for t in range(3):
            daemon.publish_now(TAG, _message(rank=rank, ts=1650000000.0 + t))
    res = client.query("darshan_data", "job_rank_time", prefix=(259903, 1))
    assert len(res) == 3
    assert [r["rank"] for r in res.rows] == [1, 1, 1]
    stamps = [r["timestamp"] for r in res.rows]
    assert stamps == sorted(stamps)


def test_store_handles_na_values(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    msg = _message(op="open")
    msg["max_byte"] = "N/A"
    msg["seg"][0]["len"] = "N/A"
    daemon.publish_now(TAG, msg)
    row = client.query("darshan_data", "job_id", prefix=(259903,)).rows[0]
    assert row["max_byte"] == -1
    assert row["seg_len"] == -1
    assert store.parse_errors == 0


def test_store_counts_garbage(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    daemon.publish_now(TAG, "{oops", fmt="string")
    daemon.publish_now(TAG, '["not","an","object"]')
    assert store.parse_errors == 2
    assert store.objects_stored == 0


def test_store_multiple_segments_multiple_objects(env, daemon, client):
    store = DsosStreamStore(daemon, TAG, client)
    msg = _message()
    msg["seg"] = [dict(msg["seg"][0]), dict(msg["seg"][0])]
    msg["seg"][1]["timestamp"] = msg["seg"][0]["timestamp"] + 1
    daemon.publish_now(TAG, msg)
    assert store.objects_stored == 2
    assert client.count("darshan_data") == 2


def test_metric_store_counts_only_accepted_samples(env, daemon):
    # 1x2 replicated store with both replicas down: every write is
    # rejected, so no sample may count as stored.
    cluster = DsosCluster("metrics", shards=1, replication=2)
    store = MetricStreamStore(daemon, ["metrics/meminfo"], DsosClient(cluster))
    for d in cluster.daemons:
        cluster.crash_daemon(d)
    daemon.publish_now("metrics/meminfo", {
        "producer": "nid00001", "timestamp": 1.0,
        "metrics": {"MemFree": 1.0, "Active": 2.0},
    })
    assert store.samples_stored == 0
    assert cluster.count("ldms_metrics") == 0
    assert cluster.rejected_writes == 2
    # Back up: the same message is stored and counted.
    for d in cluster.daemons:
        cluster.recover_daemon(d)
    daemon.publish_now("metrics/meminfo", {
        "producer": "nid00001", "timestamp": 2.0,
        "metrics": {"MemFree": 1.0, "Active": 2.0},
    })
    assert store.samples_stored == 2
    assert cluster.count("ldms_metrics") == 2
