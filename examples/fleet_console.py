#!/usr/bin/env python3
"""Fleet health console: probe the fleet before work lands on it.

Scans the demo fleet — two clean clusters plus one with an injected L1
crash and a slow-store episode — with the proactive probe scanner and
the streaming diagnosis engine armed.  Each cluster gets a 0–100
readiness scorecard whose component deductions reconcile *exactly*
(Σ deductions == 100 − score), and the whole scan renders as the fleet
console: the readiness table, per-cluster drill-downs, the signal
catalog, plus an OpenMetrics exposition for external scrapers.

Run:  python examples/fleet_console.py      (~half a minute)
"""

from repro.diagnosis import default_catalog
from repro.fleet import scan_fleet
from repro.telemetry import render_openmetrics
from repro.webservices import FleetConsole


def main() -> None:
    report = scan_fleet()
    catalog = default_catalog()
    console = FleetConsole(report, catalog)

    # The console pages: overview, drill-downs, signal catalog.
    print(console.render_text())

    # Every scorecard must reconcile exactly — this is the contract the
    # closed-loop scheduling layer will trust.
    for cluster in report:
        assert cluster.score.reconciles(), cluster.name
    worst = report.worst()
    print(f"\nfleet ready: {report.all_ready}  "
          f"(worst: {worst.name} at {worst.score.score}/100, "
          f"grade {worst.score.grade})")

    # The same scan, as the OpenMetrics text scrapers consume.
    exposition = render_openmetrics(report, catalog)
    print(f"\nOpenMetrics exposition: {len(exposition.splitlines())} lines "
          f"over {len(catalog)} catalogued signals; first samples:")
    for line in exposition.splitlines()[:5]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
