"""Direct coverage of small public API surfaces exercised only
indirectly elsewhere."""

import pytest

from repro.sim import Environment, RngRegistry


def test_subscriber_count():
    from repro.ldms import StreamsBus

    bus = StreamsBus()
    assert bus.subscriber_count("t") == 0
    bus.subscribe("t", lambda m: None)
    bus.subscribe("t", lambda m: None)
    assert bus.subscriber_count("t") == 2
    assert bus.subscriber_count("other") == 0


def test_daemon_failed_property():
    from repro.cluster import Cluster, ClusterSpec
    from repro.ldms import Ldmsd

    env = Environment()
    cluster = Cluster(env, RngRegistry(0), ClusterSpec(n_compute_nodes=1))
    d = Ldmsd(env, cluster.compute_nodes[0], cluster.network)
    assert not d.failed
    d.fail()
    assert d.failed
    assert d.publish_now("t", {"x": 1}) == 0
    assert d.dropped_while_failed == 1
    d.recover()
    assert not d.failed


def test_connector_stats_overhead_seconds():
    from repro.core import ConnectorStats

    stats = ConnectorStats(format_seconds=2.0, publish_seconds=0.5)
    assert stats.overhead_seconds == 2.5


def test_nfs_server_queue_length():
    import numpy as np

    from repro.fs import LoadProcess, NFSFileSystem, NFSParams

    env = Environment()
    quiet = LoadProcess(
        np.random.default_rng(0), diurnal_amplitude=0, noise_sigma=0,
        n_modes=0, incident_rate=0,
    )
    fs = NFSFileSystem(env, quiet, np.random.default_rng(1), NFSParams(cv=0.0))
    assert fs.server_queue_length == 0
    # Saturate the thread pool; queue must become visible mid-flight.
    peak = {"q": 0}

    def writer(i):
        h, _ = yield from fs.open(f"/f{i}", "n", "w")
        yield from fs.write(h, 2**20)
        peak["q"] = max(peak["q"], fs.server_queue_length)
        yield from fs.close(h)

    for i in range(fs.params.server_threads + 4):
        env.process(writer(i))
    env.run()
    assert fs.server_queue_length == 0


def test_network_link_helpers():
    from repro.cluster import Network

    env = Environment()
    net = Network(env)
    for n in "abc":
        net.add_node(n)
    l1 = net.add_link("a", "b", latency_s=0.001, bandwidth_bps=1000.0)
    net.add_link("b", "c", latency_s=0.002, bandwidth_bps=1000.0)
    assert l1.transmit_time(500) == pytest.approx(0.5)
    links = net.links_on_path("a", "c")
    assert len(links) == 2
    assert links[0] is l1


def test_h5_dataset_geometry_props():
    from repro.hdf5.file import H5Dataset

    ds = H5Dataset(file=None, name="u", shape=(4, 5, 6), element_size=8)
    assert ds.ndims == 3
    assert ds.npoints_total == 120
    assert ds.nbytes == 960


def test_dsosd_has_schema():
    from repro.dsos import Attr, Dsosd, Schema

    d = Dsosd("x")
    schema = Schema("s", [Attr("a", "int")], {"idx": ("a",)})
    assert not d.has_schema("s")
    d.attach_schema(schema)
    assert d.has_schema("s")


def test_application_rank_process_abstract():
    from repro.apps import Application

    class Incomplete(Application):
        pass

    with pytest.raises(NotImplementedError):
        Incomplete().rank_process(None, 0)


def test_event_state_properties():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed("v")
    assert ev.triggered and ev.ok and not ev.processed
    env.run()
    assert ev.processed
    assert ev.value == "v"


def test_fabric_totals_delivery_ratio_empty():
    from repro.ldms.aggregator import FabricTotals

    t = FabricTotals(
        published_on_compute=0, received_at_l2=0, dropped_overflow=0,
        bytes_forwarded=0,
    )
    assert t.delivery_ratio == 1.0


def test_groupby_groups_exposes_indices():
    import numpy as np

    from repro.webservices import DataFrame

    df = DataFrame({"k": [1, 2, 1], "v": [10.0, 20.0, 30.0]})
    groups = df.groupby("k").groups()
    assert set(groups) == {(1,), (2,)}
    np.testing.assert_array_equal(groups[(1,)], [0, 2])


def test_signal_row_lives_in_a_leaf_module():
    import repro.diagnosis as diagnosis
    import repro.signals as signals

    assert diagnosis.Signal is signals.Signal
    # The drift census is gone: rows are declared once, so there is no
    # second name set to diff the catalog against.
    assert not hasattr(diagnosis, "expected_signals")
    assert not hasattr(diagnosis.SignalCatalog, "missing")
    assert not hasattr(diagnosis.SignalCatalog, "complete")


def test_store_and_telemetry_declare_rows_without_diagnosis():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    code = ("import sys, repro.dsos, repro.telemetry; print(sorted("
            "m for m in sys.modules if m.startswith('repro.diagnosis')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
