"""The signal catalog: the emitting modules' own rows, concatenated.

Each emitting module declares its signals as :class:`Signal` rows next
to the code that emits them; the catalog adds nothing but uniqueness
and ordering.  The row count and kind census pin the catalog's
identity, and the rule-link test pins each sampled series' ``rule``
against what the rules actually read.
"""

import pytest

from repro.diagnosis import (
    DiagnosisConfig,
    Signal,
    SignalCatalog,
    default_catalog,
    default_rules,
    rule_signals,
)
from repro.diagnosis.engine import SAMPLED_SERIES


def test_default_catalog_is_complete():
    from repro.diagnosis.explain import EXPLAIN_METRICS
    from repro.diagnosis.rules import ALERT_METRICS
    from repro.fleet.probe import PROBE_METRICS
    from repro.fleet.scorecard import SCORE_METRICS
    from repro.telemetry.collector import HOP_METRICS
    from repro.telemetry.flightrec import RECORDER_METRICS

    tables = (SAMPLED_SERIES, ALERT_METRICS, HOP_METRICS, PROBE_METRICS,
              RECORDER_METRICS, EXPLAIN_METRICS, SCORE_METRICS)
    catalog = default_catalog()
    assert len(catalog) == sum(len(t) for t in tables) == 52
    for table in tables:
        for signal in table:
            assert catalog.get(signal.name) is signal


def test_catalog_covers_every_registry():
    names = set(default_catalog().names())
    # One spot check per source registry.
    assert "stored_total" in names           # SAMPLED_SERIES
    assert "alert_daemon_down" in names      # default_rules
    assert "hop_latency_end_to_end" in names  # hop histograms
    assert "probe_latency_s" in names        # PROBE_METRICS
    assert "health_score" in names           # scorecard
    assert "score_deduction_probes" in names  # COMPONENT_WEIGHTS
    assert "alert_under_replication" in names  # replication rules
    assert "flightrec_captured_total" in names  # RECORDER_METRICS


def test_kind_census():
    by_kind = {}
    for signal in default_catalog():
        by_kind[signal.kind] = by_kind.get(signal.kind, 0) + 1
    assert by_kind == {"counter": 12, "gauge": 16, "histogram": 6,
                       "alert": 12, "score": 6}


def test_series_rows_link_to_the_rules_they_feed():
    catalog = default_catalog()
    assert catalog.get("daemons_failed").rule == "daemon_down"
    assert catalog.get("slow_pending").rule == "store_stall"
    assert catalog.get("hop_latency_end_to_end").rule == "latency_slo"
    assert catalog.get("probe_latency_s").rule == ""  # dashboards only


def test_every_row_is_sourced_from_its_emitting_module():
    import importlib

    for signal in default_catalog():
        module = importlib.import_module(signal.source)
        assert any(signal in table for table in vars(module).values()
                   if isinstance(table, tuple)), signal.name


class _Series:
    """A window whose every statistic is large, so no rule returns
    early before reading all the series it depends on."""

    latest = 1e6

    def delta(self, window_s):
        return 1e6

    def rate(self, window_s):
        return 1e6

    def baseline_rate(self, window_s, windows):
        return 1e6


class _RecordingView:
    """A stub ``WindowView`` that records which series a rule reads."""

    window_s = 1.0

    def __init__(self):
        self.read = set()

    def series(self, name):
        self.read.add(name)
        return _Series()

    def slowest_trace(self):
        return None

    def rank_window_counts(self):
        return {}


def test_sampled_series_rule_links_match_what_each_rule_reads():
    sampled = [s for s in default_catalog()
               if s.source == "repro.diagnosis.engine"]
    for rule in default_rules(DiagnosisConfig()):
        view = _RecordingView()
        rule.evaluate(view)
        linked = {s.name for s in sampled if s.rule == rule.name}
        assert view.read == linked, rule.name


def test_rule_signals_lists_every_row_feeding_the_rules():
    assert rule_signals(["throughput_collapse"]) == [
        "alert_throughput_collapse", "ingest_backlog", "stored_total",
    ]
    assert rule_signals({"latency_slo", "nonsense"}) == [
        "alert_latency_slo", "e2e_count", "e2e_total_s",
        "hop_latency_end_to_end",
    ]
    assert rule_signals(()) == []


def test_register_duplicate_raises():
    catalog = SignalCatalog()
    signal = Signal(name="x", unit="u", kind="gauge", source="s",
                    description="d")
    catalog.register(signal)
    with pytest.raises(ValueError, match="already catalogued"):
        catalog.register(signal)


def test_signal_validation():
    with pytest.raises(ValueError, match="unknown signal kind"):
        Signal(name="x", unit="u", kind="vibes", source="s",
               description="d")
    with pytest.raises(ValueError, match="non-empty"):
        Signal(name="", unit="u", kind="gauge", source="s",
               description="d")


def test_iteration_and_lookup():
    catalog = default_catalog()
    names = [s.name for s in catalog]
    assert names == sorted(names) == catalog.names()
    assert "health_score" in catalog
    assert "nonsense" not in catalog
    assert catalog.get("nonsense") is None


def test_to_rows_sorted_by_kind_then_name():
    rows = default_catalog().to_rows()
    assert len(rows) == 52
    keys = [(r["kind"], r["name"]) for r in rows]
    assert keys == sorted(keys)
    # Un-ruled signals render a dash, not an empty cell.
    by_name = {r["name"]: r for r in rows}
    assert by_name["probe_stragglers"]["rule"] == "-"
    assert by_name["daemons_failed"]["rule"] == "daemon_down"
