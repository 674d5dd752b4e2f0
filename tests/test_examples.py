"""Smoke tests: the shipped examples must run end to end.

Each example's ``main()`` is executed directly (stdout captured); the
slowest campaign-driving examples are exercised at their default scale
since they already complete in tens of seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "connector published" in out
    assert "rank 0 timeline" in out
    assert "darshan-parser style totals" in out


def test_fleet_from_config_runs(capsys):
    _load("fleet_from_config").main()
    out = capsys.readouterr().out
    assert "6 daemons" in out
    assert "CSV store on shirley received 5 messages" in out


def test_darshan_logs_runs(capsys):
    _load("darshan_logs").main()
    out = capsys.readouterr().out
    assert "modules: H5D, H5F, LUSTRE, POSIX" in out
    assert "DXT segment traces" in out


def test_variability_dashboard_runs(capsys):
    _load("variability_dashboard").main()
    out = capsys.readouterr().out
    assert "anomalous job detected" in out
    assert "10 write phases" in out
    assert "congestion incident" in out


def test_cross_app_comparison_runs(capsys):
    _load("cross_app_comparison").main()
    out = capsys.readouterr().out
    assert "small-op-streaming" in out
    assert "high" in out


def test_system_correlation_runs(capsys):
    _load("system_correlation").main()
    out = capsys.readouterr().out
    assert "EXPLAINS the I/O variability" in out


def test_trace_drilldown_runs(capsys):
    _load("trace_drilldown").main()
    out = capsys.readouterr().out
    assert "== retention ==" in out
    assert "exemplar drill-down" in out
    assert "== gating chain ==" in out
    assert "exact: yes" in out
    assert "a retained dropped trace" in out
    assert "slowest retained traces" in out
    assert "critical-path flame" in out
    assert "rollup reconciles with sim-time profile: yes" in out


def test_fleet_console_runs(capsys):
    _load("fleet_console").main()
    out = capsys.readouterr().out
    assert "== fleet readiness ==" in out
    assert "== attaway: scorecard" in out
    assert "== signal catalog (52 signals) ==" in out
    assert "fleet ready: False" in out
    assert "worst: attaway" in out
    assert "OpenMetrics exposition:" in out
    assert "52 catalogued signals" in out


def test_explain_bottleneck_runs(capsys):
    _load("explain_bottleneck").main()
    out = capsys.readouterr().out
    assert "applied faults (ground truth)" in out
    assert "== feature vector (highlights) ==" in out
    assert "== bottleneck verdicts (job" in out
    assert "== classification scorecard ==" in out
    assert "recall=100% precision=100%" in out
    assert "clean-run control: primary verdict 'healthy' (OK)" in out
    assert "flight-recorder verdicts stream:" in out


def test_live_diagnosis_runs(capsys):
    _load("live_diagnosis").main()
    out = capsys.readouterr().out
    assert "applied faults (ground truth)" in out
    assert "incident log" in out
    assert "fault detection scorecard" in out
    assert "recall=100%" in out
    assert "pipeline sim-time profile" in out
    assert "EXACT" in out


def test_incident_forensics_runs(capsys):
    _load("incident_forensics").main()
    out = capsys.readouterr().out
    assert "flight recorder after the chaos campaign" in out
    assert "[ok]" in out and "BROKEN" not in out
    assert "fb-0: alert_firing" in out
    assert "first divergence: stream" in out
    assert "every fault class matched; every ring reconciles" in out
