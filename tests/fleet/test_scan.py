"""Fleet scans end to end: the demo fleet, determinism, chaos deductions.

Runs the real three-cluster scan once (session fixture) and pins the
shape the console, the exporter and ``repro fleet --check`` rely on:
clean clusters at 100, the chaos cluster below the ready line with its
injected faults showing up in the *matching* scorecard components, and
a byte-stable ``to_dict`` payload.
"""

import json

import pytest

from repro.diagnosis.engine import SAMPLED_SERIES
from repro.fleet import FleetClusterSpec, default_fleet, scan_cluster


def _by_name(report):
    return {c.name: c for c in report}


def test_default_fleet_is_two_clean_one_chaos():
    specs = default_fleet()
    assert [s.name for s in specs] == ["voltrino", "chama", "attaway"]
    assert [s.faults is None for s in specs] == [True, True, False]


def test_scan_shape(fleet_report):
    assert len(fleet_report) == 3
    assert fleet_report.fast_lane is True
    clusters = _by_name(fleet_report)
    assert set(clusters) == {"voltrino", "chama", "attaway"}
    # Every compute node was probed, repeatedly.
    assert len(clusters["voltrino"].probe_report.nodes) == 4
    assert len(clusters["chama"].probe_report.nodes) == 6
    for c in fleet_report:
        assert c.probe_report.sweeps > 0
        assert c.runtime_s > 0


def test_every_scorecard_reconciles_exactly(fleet_report):
    assert fleet_report.all_reconcile
    for c in fleet_report:
        assert c.score.reconciles()
        total = sum(d.deduction for d in c.score.deductions)
        assert total == 100 - c.score.score  # the invariant, spelled out


def test_clean_clusters_score_100(fleet_report):
    clusters = _by_name(fleet_report)
    for name in ("voltrino", "chama"):
        score = clusters[name].score
        assert score.score == 100 and score.grade == "A" and score.ready
        assert all(d.deduction == 0 for d in score.deductions)
        assert clusters[name].probe_report.lost_nodes == []
        assert clusters[name].probe_report.stragglers == []


def test_chaos_cluster_fails_via_matching_components(fleet_report):
    attaway = _by_name(fleet_report)["attaway"]
    score = attaway.score
    assert not score.ready and score.score < 75
    # The injected L1 crash loses probes and fires alerts; the missing
    # messages land in the ledger; the slow store bills its component.
    assert score.component("probes").deduction > 0
    assert attaway.probe_report.lost_nodes  # probes genuinely lost
    assert score.component("alerts").deduction > 0
    assert score.component("ledger").deduction > 0
    assert attaway.health.dropped > 0
    assert score.component("store").deduction > 0
    assert any(a.rule == "store_stall" for a in attaway.incidents)
    assert not fleet_report.all_ready
    assert fleet_report.worst().name == "attaway"


def test_gauges_cover_every_sampled_series(fleet_report):
    expected = {s.name for s in SAMPLED_SERIES}
    for c in fleet_report:
        assert set(c.gauges) == expected


def test_scan_is_deterministic(fleet_report):
    spec = FleetClusterSpec(name="voltrino", seed=42)
    again = scan_cluster(spec)
    fixture = _by_name(fleet_report)["voltrino"]
    assert again.to_dict() == fixture.to_dict()


def test_report_to_dict_is_json_serializable(fleet_report):
    payload = fleet_report.to_dict()
    assert payload["fleet_ready"] is False
    assert payload["worst_cluster"] == "attaway"
    assert len(payload["clusters"]) == 3
    # Byte-stable under the CLI's sorted-dump contract.
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.loads(text) == payload


def test_openmetrics_export_over_real_scan(fleet_report):
    from repro.telemetry import render_openmetrics

    text = render_openmetrics(fleet_report)
    assert text.endswith("# EOF\n")
    assert "(uncatalogued)" not in text
    assert text == render_openmetrics(fleet_report)  # deterministic
    for c in fleet_report:
        assert (f'repro_health_score{{cluster="{c.name}"}} '
                f"{c.score.score}") in text


def test_world_config_arms_all_observers():
    config = FleetClusterSpec(name="x", seed=1).world_config()
    assert config.telemetry is True
    assert config.diagnosis is not None
    assert config.probe is not None
    assert config.quiet is True
    ref = FleetClusterSpec(name="x", seed=1).world_config(fast_lane=False)
    assert ref.fast_lane is False


def test_empty_fleet_report():
    from repro.fleet import FleetReport

    report = FleetReport([], fast_lane=True)
    assert len(report) == 0
    assert report.all_ready and report.all_reconcile
    assert report.to_dict()["worst_cluster"] is None
    with pytest.raises(ValueError):
        report.worst()
