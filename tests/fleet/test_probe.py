"""Probe scanner: config validation, ghost traversal, straggler math.

The scanner's `_probe` is a *ghost traversal*: it reads the spine's own
cost model (daemon liveness, link state, congestion, outbox depths,
store episodes) without enqueueing events or advancing the clock —
every loss path and cost term is exercised here by mutating world state
directly and sweeping.
"""

import pytest

from repro.experiments import World, WorldConfig
from repro.fleet import (
    PROBE_METRICS,
    NodeProbeStats,
    ProbeConfig,
    ProbeReport,
    ProbeSample,
    flag_stragglers,
)


def _world(**kw):
    defaults = dict(
        seed=5, quiet=True, n_compute_nodes=4, telemetry=True,
        probe=ProbeConfig(period_s=0.05),
    )
    defaults.update(kw)
    return World(WorldConfig(**defaults))


# ----------------------------------------------------------- ProbeConfig


@pytest.mark.parametrize("bad", [
    {"period_s": 0.0},
    {"period_s": -1.0},
    {"payload_bytes": 0},
    {"straggler_fold": 1.0},
    {"min_nodes": 1},
    {"store_stall_penalty_s": -0.1},
])
def test_probe_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        ProbeConfig(**bad)


def test_probe_metrics_table_shape():
    names = [s.name for s in PROBE_METRICS]
    assert names == ["probe_latency_s", "probe_lost_total",
                     "probe_stragglers"]
    for s in PROBE_METRICS:
        assert s.unit and s.description


# ------------------------------------------------------- flag_stragglers


def test_flag_stragglers_needs_min_nodes():
    assert flag_stragglers({"a": 1.0, "b": 9.0}, min_nodes=3) == []


def test_flag_stragglers_needs_positive_median():
    assert flag_stragglers({"a": 0.0, "b": 0.0, "c": 0.0}) == []


def test_flag_stragglers_is_strict_fold():
    # Exactly fold x median is NOT a straggler; strictly above is.
    means = {"a": 1.0, "b": 1.0, "c": 2.0}
    assert flag_stragglers(means, fold=2.0) == []
    means["c"] = 2.0 + 1e-9
    assert flag_stragglers(means, fold=2.0) == ["c"]


def test_flag_stragglers_sorted_output():
    means = {"z": 10.0, "a": 10.0, "m": 1.0, "n": 1.0, "b": 1.0}
    assert flag_stragglers(means, fold=2.0) == ["a", "z"]


# -------------------------------------------------------- ghost traversal


def test_sweep_probes_every_node_sorted_and_clean():
    world = _world()
    scanner = world.probe_scanner
    t0 = world.env.now
    samples = scanner.sweep()
    assert [s.node for s in samples] == sorted(world.fabric.compute_daemons)
    assert len(samples) == 4
    for s in samples:
        assert not s.lost and s.reason == ""
        assert s.latency_s > 0
        assert s.latency_s == pytest.approx(
            s.publish_s + s.link_s + s.queue_s + s.store_s
        )
        assert s.store_s == 0.0
    # Read-only: the sweep advanced nothing and scheduled nothing strong
    # (the armed scanner's own ticks are weak, so run() drains at once).
    assert world.env.now == t0
    world.env.run()
    assert world.env.now == t0


def test_probe_lost_when_sampler_daemon_down():
    world = _world()
    victim = sorted(world.fabric.compute_daemons)[1]
    world.fabric.compute_daemons[victim].fail()
    samples = {s.node: s for s in world.probe_scanner.sweep()}
    assert samples[victim].lost
    assert samples[victim].latency_s == 0.0
    assert f"sampler ldmsd on {victim} down" == samples[victim].reason
    others = [s for n, s in samples.items() if n != victim]
    assert others and all(not s.lost for s in others)


def test_probe_lost_when_l1_down_without_standby():
    world = _world()
    world.fabric.l1.fail()
    samples = world.probe_scanner.sweep()
    assert all(s.lost for s in samples)
    assert {s.reason for s in samples} == {"L1 aggregator down, no standby"}


def test_probe_survives_l1_crash_via_standby():
    world = _world(standby_l1=True)
    world.fabric.l1.fail()
    samples = world.probe_scanner.sweep()
    assert all(not s.lost for s in samples)


def test_probe_lost_when_l2_down():
    world = _world()
    world.fabric.l2.fail()
    samples = world.probe_scanner.sweep()
    assert all(s.lost for s in samples)
    assert {s.reason for s in samples} == {"L2 aggregator down"}


def test_probe_lost_on_partitioned_link():
    world = _world()
    node = sorted(world.fabric.compute_daemons)[0]
    l1_node = world.fabric.l1.node.name
    world.cluster.network.links_on_path(node, l1_node)[0].set_up(False)
    samples = {s.node: s for s in world.probe_scanner.sweep()}
    assert samples[node].lost
    assert "partitioned" in samples[node].reason


def test_probe_charges_store_stall_penalty():
    world = _world()
    baseline = {s.node: s.latency_s for s in world.probe_scanner.sweep()}
    world.store.begin_slow_episode()
    stalled = world.probe_scanner.sweep()
    penalty = world.probe_scanner.config.store_stall_penalty_s
    for s in stalled:
        assert s.store_s == penalty
        assert s.latency_s == pytest.approx(baseline[s.node] + penalty)
    world.store.end_slow_episode()
    clean = world.probe_scanner.sweep()
    assert all(s.store_s == 0.0 for s in clean)


def test_arming_twice_raises():
    world = _world()  # World.__init__ already armed the scanner
    with pytest.raises(RuntimeError):
        world.probe_scanner.arm()


def test_no_scanner_without_probe_config():
    world = _world(probe=None)
    assert world.probe_scanner is None


# ------------------------------------------------------------ ProbeReport


def _sample(node, latency, lost=False, reason=""):
    return ProbeSample(t=0.0, node=node, lost=lost,
                       latency_s=0.0 if lost else latency, reason=reason)


def test_report_aggregates_per_node():
    samples = [
        _sample("a", 1.0), _sample("a", 3.0),
        _sample("b", 1.0), _sample("b", lost=True, latency=0.0,
                                   reason="L2 aggregator down"),
        _sample("c", 0.5), _sample("c", 1.5),
    ]
    report = ProbeReport.from_samples(samples, fold=2.0, min_nodes=3,
                                      sweeps=2)
    by_node = {n.node: n for n in report.nodes}
    assert list(by_node) == ["a", "b", "c"]  # sorted
    assert by_node["a"].mean_latency_s == pytest.approx(2.0)
    assert by_node["a"].worst_latency_s == 3.0
    assert by_node["b"].lost == 1 and by_node["b"].probes == 2
    assert by_node["b"].loss_ratio == 0.5
    assert by_node["b"].reasons == ("L2 aggregator down",)
    assert report.lost_nodes == ["b"]
    assert report.sweeps == 2
    # median over delivered-node means: median(2.0, 1.0, 1.0) = 1.0
    assert report.median_latency_s == pytest.approx(1.0)


def test_report_flags_straggler_and_rows_verdicts():
    samples = []
    for _ in range(3):
        samples += [_sample("a", 1.0), _sample("b", 1.0),
                    _sample("c", 5.0)]
    samples.append(_sample("d", lost=True, latency=0.0, reason="x down"))
    report = ProbeReport.from_samples(samples, fold=2.0, min_nodes=3,
                                      sweeps=3)
    assert report.stragglers == ["c"]
    verdicts = {r["node"]: r["verdict"] for r in report.to_rows()}
    assert verdicts == {"a": "ok", "b": "ok", "c": "STRAGGLER",
                        "d": "LOST"}
    payload = report.to_dict()
    assert payload["stragglers"] == ["c"]
    flags = {n["node"]: n["straggler"] for n in payload["nodes"]}
    assert flags == {"a": False, "b": False, "c": True, "d": False}


def test_report_empty_samples():
    report = ProbeReport.from_samples([], fold=2.0, min_nodes=3, sweeps=0)
    assert report.nodes == [] and report.stragglers == []
    assert report.median_latency_s == 0.0
    assert report.lost_nodes == []
    assert report.to_rows() == []


def test_node_stats_loss_ratio_no_probes():
    stats = NodeProbeStats(node="a", probes=0, lost=0, mean_latency_s=0.0,
                           worst_latency_s=0.0, reasons=())
    assert stats.loss_ratio == 0.0
