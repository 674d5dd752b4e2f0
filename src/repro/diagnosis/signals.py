"""The signal catalog: every metric, alert and gauge the stack emits.

Each emitting module declares its own :class:`~repro.signals.Signal`
rows next to the code that emits them, and :func:`default_catalog` is
their concatenation:

* :data:`~repro.diagnosis.engine.SAMPLED_SERIES` — the diagnosis
  engine's sampled series;
* :data:`~repro.diagnosis.rules.ALERT_METRICS` — one alert per
  standard rule;
* :data:`~repro.telemetry.collector.HOP_METRICS` — the hop-latency
  histograms;
* :data:`~repro.fleet.probe.PROBE_METRICS`,
  :data:`~repro.telemetry.flightrec.RECORDER_METRICS`,
  :data:`~repro.diagnosis.explain.EXPLAIN_METRICS` and
  :data:`~repro.fleet.scorecard.SCORE_METRICS`.

Each row carries name, unit, kind, the source module that emits it and
— where one exists — the diagnosis rule it feeds, so the console page,
the OpenMetrics exposition (:mod:`repro.telemetry.exporter`) and the
evidence links of explain verdicts and forensic bundles
(:func:`rule_signals`) all read the same rows.
"""

from __future__ import annotations

from repro.signals import Signal

__all__ = ["Signal", "SignalCatalog", "default_catalog", "rule_signals"]


class SignalCatalog:
    """Ordered, unique-by-name registry of :class:`Signal` rows."""

    def __init__(self, signals=()):
        self._signals: dict[str, Signal] = {}
        for signal in signals:
            self.register(signal)

    def register(self, signal: Signal) -> Signal:
        if signal.name in self._signals:
            raise ValueError(f"signal {signal.name!r} already catalogued")
        self._signals[signal.name] = signal
        return signal

    def __iter__(self):
        return iter(sorted(self._signals.values(), key=lambda s: s.name))

    def __len__(self) -> int:
        return len(self._signals)

    def __contains__(self, name: str) -> bool:
        return name in self._signals

    def get(self, name: str) -> Signal | None:
        return self._signals.get(name)

    def names(self) -> list[str]:
        return sorted(self._signals)

    def to_rows(self) -> list[dict]:
        """Console-table rows, sorted by (kind, name)."""
        return [
            {
                "name": s.name,
                "kind": s.kind,
                "unit": s.unit,
                "source": s.source,
                "rule": s.rule or "-",
                "description": s.description,
            }
            for s in sorted(self._signals.values(),
                            key=lambda s: (s.kind, s.name))
        ]

    def to_dict(self) -> dict:
        return {
            "signals": [s.to_dict() for s in self],
            "count": len(self),
        }


def default_catalog() -> SignalCatalog:
    """Every row the emitting modules declare, in one catalog."""
    from repro.diagnosis.engine import SAMPLED_SERIES
    from repro.diagnosis.explain import EXPLAIN_METRICS
    from repro.diagnosis.rules import ALERT_METRICS
    from repro.fleet.probe import PROBE_METRICS
    from repro.fleet.scorecard import SCORE_METRICS
    from repro.telemetry.collector import HOP_METRICS
    from repro.telemetry.flightrec import RECORDER_METRICS

    return SignalCatalog(
        SAMPLED_SERIES + ALERT_METRICS + HOP_METRICS + PROBE_METRICS
        + RECORDER_METRICS + EXPLAIN_METRICS + SCORE_METRICS
    )


def rule_signals(rules) -> list[str]:
    """Sorted names of the catalogued signals feeding any of ``rules``."""
    rules = set(rules)
    return [s.name for s in default_catalog() if s.rule and s.rule in rules]
