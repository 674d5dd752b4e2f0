"""The fleet console: multi-cluster operations view over a fleet scan.

Where :class:`~repro.webservices.live.LiveDashboard` renders one
engine's live state, :class:`FleetConsole` renders a whole
:class:`~repro.fleet.FleetReport` — the fleet overview (one scorecard
row per cluster), a per-cluster drill-down (scorecard breakdown, probe
table, incident log, and — when the scan carries one — the bottleneck
verdict panel), and the signal catalog page — all as the same
:class:`~repro.webservices.grafana.PanelData` the rest of the stack
uses, so every page drops into
:func:`~repro.webservices.grafana.render_ascii` and the HTML renderer
unchanged.
"""

from __future__ import annotations

from repro.webservices.grafana import PanelData, render_ascii

__all__ = ["FleetConsole"]


class FleetConsole:
    """Panel pages over one fleet scan report."""

    def __init__(self, report, catalog=None):
        from repro.diagnosis.signals import default_catalog

        self.report = report
        self.catalog = catalog or default_catalog()

    # -- pages ---------------------------------------------------------

    def overview_panels(self) -> list[PanelData]:
        """The fleet page: one scorecard row per cluster."""
        rows = [
            {
                "cluster": c.name,
                "score": c.score.score,
                "grade": c.score.grade,
                "ready": "yes" if c.score.ready else "NO",
                "probes": f"-{c.score.component('probes').deduction}",
                "alerts": f"-{c.score.component('alerts').deduction}",
                "ledger": f"-{c.score.component('ledger').deduction}",
                "backlog": f"-{c.score.component('backlog').deduction}",
                "store": f"-{c.score.component('store').deduction}",
            }
            for c in self.report
        ]
        return [
            PanelData(
                title="fleet readiness",
                viz="table",
                payload=rows,
                rows_queried=len(rows),
            )
        ]

    def cluster_panels(self, name: str) -> list[PanelData]:
        """One cluster's drill-down: breakdown, probes, incidents."""
        cluster = self._cluster(name)
        score_rows = cluster.score.to_rows()
        probe_rows = cluster.probe_report.to_rows()
        epoch_incidents = [
            {
                "rule": a.rule,
                "severity": a.severity,
                "state": a.state,
                "value": f"{a.peak_value:.4g}",
                "detail": a.detail,
            }
            for a in cluster.incidents
        ]
        panels = [
            PanelData(
                title=f"{name}: scorecard ({cluster.score.score}/100, "
                      f"grade {cluster.score.grade})",
                viz="table",
                payload=score_rows,
                rows_queried=len(score_rows),
            ),
            PanelData(
                title=f"{name}: probe scan",
                viz="table",
                payload=probe_rows,
                rows_queried=len(probe_rows),
            ),
            PanelData(
                title=f"{name}: incidents",
                viz="table",
                payload=epoch_incidents,
                rows_queried=len(epoch_incidents),
            ),
        ]
        explain = getattr(cluster, "explain", None)
        if explain:
            verdict_rows = [
                {
                    "class": v["class"],
                    "score": f"{v['score']:.3g}",
                    "strategy": v["strategy"],
                }
                for v in explain["verdicts"]
            ]
            panels.append(PanelData(
                title=f"{name}: bottleneck verdicts "
                      f"(job {explain['job_id']}, "
                      f"primary {explain['primary']})",
                viz="table",
                payload=verdict_rows,
                rows_queried=len(verdict_rows),
            ))
        return panels

    def catalog_panels(self) -> list[PanelData]:
        """The signal catalog page."""
        rows = self.catalog.to_rows()
        return [
            PanelData(title=f"signal catalog ({len(rows)} signals)",
                      viz="table", payload=rows, rows_queried=len(rows)),
        ]

    def panels(self) -> list[PanelData]:
        """Every page, in console order: overview, drill-downs, catalog."""
        panels = self.overview_panels()
        for cluster in self.report:
            panels.extend(self.cluster_panels(cluster.name))
        panels.extend(self.catalog_panels())
        return panels

    # -- rendering -----------------------------------------------------

    def render_text(self, width: int = 72) -> str:
        return "\n\n".join(
            render_ascii(panel, width=width) for panel in self.panels()
        )

    def to_html(self, title: str = "Fleet console") -> str:
        from repro.webservices.html import render_html

        return render_html(title, self.panels())

    # -- helpers -------------------------------------------------------

    def _cluster(self, name: str):
        for cluster in self.report:
            if cluster.name == name:
                return cluster
        raise KeyError(f"no scanned cluster {name!r}")
