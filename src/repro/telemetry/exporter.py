"""OpenMetrics-style text exposition of a fleet scan.

:func:`render_openmetrics` turns a :class:`~repro.fleet.FleetReport`
into the text format external scrapers speak: one family per catalogued
signal that the scan produced a value for — ``# HELP`` / ``# TYPE``
header lines, then samples with sorted ``{cluster=...}`` label sets,
families in sorted name order, terminated by ``# EOF``.  Everything is
emitted in deterministic order from deterministic inputs, so the
``repro fleet --export`` output is byte-stable for a given seed set —
pinned by the CLI test suite.

Metric names carry a ``repro_`` prefix; histogram families expose
``_count`` / ``_sum`` pairs (enough for rate/mean recording rules
without shipping every bucket edge).
"""

from __future__ import annotations

__all__ = ["render_openmetrics"]

_PREFIX = "repro_"

#: Catalog kind → OpenMetrics type token.
_OM_TYPES = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "alert": "gauge",
    "score": "gauge",
}


def _fmt(value) -> str:
    """Deterministic sample-value formatting (ints stay ints)."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: dict, value) -> str:
    label_str = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{_PREFIX}{name}{{{label_str}}} {_fmt(value)}"


def _collect(report, catalog) -> dict[str, list[str]]:
    """Family name → rendered sample lines, from one fleet report."""
    alerts = [s for s in catalog if s.kind == "alert"]
    families: dict[str, list[str]] = {}

    def emit(name: str, labels: dict, value) -> None:
        families.setdefault(name, []).append(_sample(name, labels, value))

    for cluster in report:
        base = {"cluster": cluster.name}

        # Scorecard.
        emit("health_score", base, cluster.score.score)
        for d in cluster.score.deductions:
            emit(f"score_deduction_{d.component}", base, d.deduction)

        # Probe scan.
        for node in cluster.probe_report.nodes:
            labels = dict(base, node=node.node)
            emit("probe_latency_s", labels, node.mean_latency_s)
            emit("probe_lost_total", labels, node.lost)
        emit("probe_stragglers", base, len(cluster.probe_report.stragglers))

        # Alert incidents, one family per rule (0 included so scrapers
        # see the whole alert surface even on a clean fleet).
        by_rule: dict[str, int] = {}
        for alert in cluster.incidents:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
        for signal in alerts:
            emit(signal.name, base, by_rule.get(signal.rule, 0))

        # Diagnosis sampled series (end-of-scan values).
        for name, value in sorted(cluster.gauges.items()):
            emit(name, base, value)

        # Hop-latency histograms: count + sum per stage.
        for stage, hist in sorted(cluster.health.collector.histograms.items()):
            emit(f"hop_latency_{stage}_count", base, hist.count)
            emit(f"hop_latency_{stage}_sum", base, hist.total)

        # Flight-recorder self-metrics — absent when the recorder is
        # not armed, so legacy expositions stay byte-identical.
        recorder = getattr(cluster, "recorder", None)
        if recorder:
            emit("flightrec_bundles_frozen_total", base,
                 recorder["bundles_frozen"])
            emit("flightrec_bundle_bytes_total", base,
                 recorder["bundle_bytes"])
            emit("flightrec_triggers_dropped_total", base,
                 recorder["triggers_dropped"])
            for stream, counters in sorted(recorder["streams"].items()):
                labels = dict(base, stream=stream)
                emit("flightrec_captured_total", labels,
                     counters["captured"])
                emit("flightrec_evicted_total", labels,
                     counters["evicted"])
                emit("flightrec_retained", labels, counters["retained"])

        # Bottleneck-explanation gauges — absent when the scan carried
        # no explain report, so legacy expositions stay byte-identical.
        explain = getattr(cluster, "explain", None)
        if explain:
            for name, value in sorted(explain["gauges"].items()):
                emit(name, base, value)

    return families


def render_openmetrics(report, catalog=None) -> str:
    """The fleet report as an OpenMetrics text exposition."""
    from repro.diagnosis.signals import default_catalog

    catalog = catalog or default_catalog()
    families = _collect(report, catalog)

    lines: list[str] = []
    emitted = set()
    for name in sorted(families):
        # _count/_sum samples belong to their parent histogram family.
        root = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix) and catalog.get(name[: -len(suffix)]):
                root = name[: -len(suffix)]
        signal = catalog.get(root)
        if root not in emitted:
            emitted.add(root)
            if signal is not None:
                lines.append(f"# HELP {_PREFIX}{root} {signal.description}")
                om_type = _OM_TYPES.get(signal.kind, "gauge")
                lines.append(f"# TYPE {_PREFIX}{root} {om_type}")
            else:
                lines.append(f"# HELP {_PREFIX}{root} (uncatalogued)")
                lines.append(f"# TYPE {_PREFIX}{root} gauge")
        lines.extend(families[name])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
