"""The fleet console: pages, rendering, and the catalog page.

A hand-built two-cluster report (one clean, one degraded) exercises
every page without running a scan, so these tests stay fast and pin
exactly what the console shows: the readiness table with per-component
deductions, the drill-down tables, and the signal-catalog page.
"""

from dataclasses import dataclass, field

import pytest

from repro.fleet import (
    COMPONENT_WEIGHTS,
    ComponentDeduction,
    HealthScore,
    NodeProbeStats,
    ProbeReport,
)
from repro.webservices import FleetConsole


@dataclass
class _Alert:
    rule: str
    severity: str
    state: str = "resolved"
    peak_value: float = 1.0
    detail: str = "it happened"


@dataclass
class _Cluster:
    name: str
    score: HealthScore
    probe_report: ProbeReport
    incidents: list = field(default_factory=list)


def _score(name, per_component):
    deductions = tuple(
        ComponentDeduction(comp, weight, per_component.get(comp, 0),
                           min(per_component.get(comp, 0), weight), "")
        for comp, weight in COMPONENT_WEIGHTS.items()
    )
    total = sum(d.deduction for d in deductions)
    return HealthScore(cluster=name, score=100 - total,
                       deductions=deductions)


def _probe_report(lost=0):
    nodes = [
        NodeProbeStats(node="node00", probes=4, lost=lost,
                       mean_latency_s=0.001, worst_latency_s=0.002,
                       reasons=("L2 aggregator down",) if lost else ()),
        NodeProbeStats(node="node01", probes=4, lost=0,
                       mean_latency_s=0.001, worst_latency_s=0.001,
                       reasons=()),
    ]
    return ProbeReport(nodes=nodes, stragglers=[],
                       median_latency_s=0.001, fold=2.0, sweeps=4)


def _report():
    clean = _Cluster(name="alpha", score=_score("alpha", {}),
                     probe_report=_probe_report())
    sick = _Cluster(
        name="beta",
        score=_score("beta", {"probes": 30, "alerts": 10}),
        probe_report=_probe_report(lost=2),
        incidents=[_Alert("daemon_down", "critical", state="firing",
                          peak_value=1.0, detail="l1 dead")],
    )
    return [clean, sick]


@pytest.fixture
def console():
    return FleetConsole(_report())


def test_overview_rows_carry_scores_and_deductions(console):
    (panel,) = console.overview_panels()
    assert panel.title == "fleet readiness"
    rows = {r["cluster"]: r for r in panel.payload}
    assert rows["alpha"]["score"] == 100
    assert rows["alpha"]["grade"] == "A"
    assert rows["alpha"]["ready"] == "yes"
    assert rows["beta"]["score"] == 60
    assert rows["beta"]["ready"] == "NO"
    assert rows["beta"]["probes"] == "-30"
    assert rows["beta"]["alerts"] == "-10"
    assert rows["beta"]["ledger"] == "-0"


def test_cluster_drilldown_panels(console):
    score_panel, probe_panel, incident_panel = console.cluster_panels("beta")
    assert score_panel.title == "beta: scorecard (60/100, grade C)"
    assert [r["component"] for r in score_panel.payload] == list(
        COMPONENT_WEIGHTS
    )
    assert probe_panel.title == "beta: probe scan"
    assert probe_panel.payload[0]["verdict"] == "LOST"
    assert incident_panel.title == "beta: incidents"
    (incident,) = incident_panel.payload
    assert incident["rule"] == "daemon_down"
    assert incident["severity"] == "critical"
    assert incident["state"] == "firing"
    assert incident["value"] == "1"
    assert incident["detail"] == "l1 dead"


def test_unknown_cluster_raises_keyerror(console):
    with pytest.raises(KeyError, match="no scanned cluster"):
        console.cluster_panels("gamma")


def test_catalog_page_reports_complete(console):
    (panel,) = console.catalog_panels()
    assert panel.title == "signal catalog (52 signals)"
    assert len(panel.payload) == 52


def test_panels_order_overview_drilldowns_catalog(console):
    panels = console.panels()
    titles = [p.title for p in panels]
    assert titles[0] == "fleet readiness"
    assert titles[1].startswith("alpha: scorecard")
    assert titles[4].startswith("beta: scorecard")
    assert titles[-1].startswith("signal catalog")
    assert len(panels) == 1 + 2 * 3 + 1


def test_render_text_contains_every_page(console):
    text = console.render_text(width=100)
    assert "== fleet readiness ==" in text
    assert "== beta: scorecard (60/100, grade C) ==" in text
    assert "== signal catalog (52 signals) ==" in text
    assert "STRAGGLER" not in text and "LOST" in text


def test_to_html_renders_tables(console):
    page = console.to_html()
    assert page.startswith("<!DOCTYPE html>")
    assert "<title>Fleet console</title>" in page
    # Every non-empty table page renders as a table; alpha's empty
    # incident log renders as the "(no rows)" placeholder instead.
    assert page.count("<table>") == len(console.panels()) - 1
    assert "(no rows)" in page
    assert "daemon_down" in page


def test_empty_report_still_renders():
    console = FleetConsole(())
    panels = console.panels()
    assert len(panels) == 2  # overview (no rows) + catalog
    text = console.render_text()
    assert "(no rows)" in text
    assert "signal catalog" in text
