"""Tests for the command-line front ends."""

import pytest

from repro.cli import main as repro_main
from repro.darshan.cli import main as parser_main, render_log


@pytest.fixture
def logfile(tmp_path):
    """A small real Darshan log on disk."""
    from repro.apps import MpiIoTest
    from repro.darshan import write_log
    from repro.experiments import World, WorldConfig, run_job

    world = World(WorldConfig(seed=1, quiet=True, n_compute_nodes=4))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=2, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs")
    path = tmp_path / "job.darshan"
    write_log(result.darshan_log, path)
    return path, result


def test_darshan_parser_renders_header_and_totals(logfile, capsys):
    path, result = logfile
    assert parser_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert f"# jobid: {result.job_id}" in out
    assert "# nprocs: 4" in out
    assert "POSIX module totals" in out
    assert "total_POSIX_BYTES_WRITTEN:" in out
    assert "MPIIO" in out


def test_darshan_parser_module_filter(logfile, capsys):
    path, _ = logfile
    assert parser_main([str(path), "--module", "MPIIO"]) == 0
    out = capsys.readouterr().out
    assert "MPIIO module totals" in out
    assert "POSIX module totals" not in out


def test_darshan_parser_dxt_output(logfile, capsys):
    path, _ = logfile
    assert parser_main([str(path), "--dxt"]) == 0
    out = capsys.readouterr().out
    assert "DXT segments" in out
    assert "\twrite\t" in out


def test_darshan_parser_bad_file(tmp_path, capsys):
    bad = tmp_path / "junk"
    bad.write_bytes(b"not a log")
    assert parser_main([str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_darshan_parser_missing_file(tmp_path, capsys):
    assert parser_main([str(tmp_path / "ghost")]) == 1


def test_render_log_contains_per_record_lines(logfile):
    path, result = logfile
    text = render_log(result.darshan_log)
    assert "POSIX_WRITES" in text
    assert "/nfs/scratch/mpi-io-test" in text


def test_repro_cli_fig7(capsys):
    assert repro_main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "anomalous" in out


def test_repro_cli_fig8(capsys):
    assert repro_main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "10 write phases" in out


def test_repro_cli_telemetry(capsys):
    assert repro_main([
        "telemetry", "--queue-depth", "1", "--inject-failure",
        "--fail-after", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency" in out
    assert "drop sites" in out
    assert (
        "reconciliation published == stored + Σ drops(site) "
        "+ in_flight_spill: EXACT" in out
    )
    assert "drop_overflow" in out
    assert "drop_daemon_failed" in out


def test_repro_cli_telemetry_check_passes(capsys):
    # A healthy run reconciles, so --check is a quiet exit 0.
    assert repro_main(["telemetry", "--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_repro_cli_telemetry_check_exits_nonzero_on_violation(
    monkeypatch, capsys
):
    from repro.telemetry.report import PipelineHealthReport

    monkeypatch.setattr(PipelineHealthReport, "verify", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["telemetry", "--check"])
    assert exc.value.code == 1
    assert "FAIL: loss reconciliation violated" in capsys.readouterr().out


def test_repro_cli_chaos_check(capsys):
    assert repro_main(["chaos", "--seed", "7", "--check"]) == 0
    out = capsys.readouterr().out
    assert "applied faults" in out
    assert "daemon_crash" in out
    assert "daemon_recover" in out
    assert "link_partition" in out
    assert "slow_store_begin" in out
    assert "recovery sites" in out
    assert "EXACT" in out


def test_repro_cli_chaos_check_exits_nonzero_on_violation(monkeypatch, capsys):
    from repro.telemetry.report import PipelineHealthReport

    monkeypatch.setattr(PipelineHealthReport, "verify", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["chaos", "--seed", "7", "--check"])
    assert exc.value.code == 1
    assert "FAIL: unaccounted events" in capsys.readouterr().out


def test_repro_cli_telemetry_json(capsys):
    import json

    assert repro_main(["telemetry", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is True
    assert payload["published"] == payload["stored"]
    assert "end_to_end" in payload["histograms"]
    assert payload["rows"] and payload["rows"][0]["exact"] is True


def test_repro_cli_chaos_json(capsys):
    import json

    assert repro_main(["chaos", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {f["kind"] for f in payload["applied_faults"]}
    assert {"daemon_crash", "link_partition", "slow_store_begin"} <= kinds
    assert payload["health"]["exact"] is True
    assert payload["fast_lane"] is True


def test_repro_cli_diagnose_check(capsys):
    assert repro_main(["diagnose", "--seed", "42", "--check"]) == 0
    out = capsys.readouterr().out
    assert "incident log" in out
    assert "fault detection scorecard" in out
    assert "recall=100%" in out
    assert "clean-run control: 0 alert(s) (OK)" in out
    assert "OK: every fault class detected; clean run silent" in out


def test_repro_cli_diagnose_json(capsys):
    import json

    assert repro_main(["diagnose", "--seed", "42", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"]["ok"] is True
    assert payload["score"]["classes"] == {
        "daemon_crash": True, "link_degrade": True, "slow_store": True,
    }
    assert payload["clean_run_alerts"] == 0
    assert payload["incidents"]
    # Incident ids are positional and durations are firing→resolved
    # spans (null while still firing) — the forensics cross-reference.
    assert [i["id"] for i in payload["incidents"]] == list(
        range(len(payload["incidents"]))
    )
    for incident in payload["incidents"]:
        assert "duration_s" in incident
        if incident["state"] == "resolved":
            assert incident["duration_s"] >= 0
        else:
            assert incident["duration_s"] is None
    for d in payload["score"]["detections"]:
        assert d["detected"] and d["detection_latency_s"] > 0


def test_repro_cli_diagnose_check_exits_nonzero_when_undetected(
    monkeypatch, capsys
):
    from repro.diagnosis import DiagnosisScore

    monkeypatch.setattr(DiagnosisScore, "ok", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["diagnose", "--seed", "42", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


def test_repro_cli_explain_text(capsys):
    assert repro_main(["explain"]) == 0
    out = capsys.readouterr().out
    assert "== applied faults ==" in out
    assert "== bottleneck verdicts (job" in out
    assert "== classification scorecard ==" in out
    assert "recall=100% precision=100%" in out
    assert "fired:" in out and "-> " in out
    assert "clean-run control: primary verdict 'healthy' (OK)" in out


def test_repro_cli_explain_json(capsys):
    import json

    assert repro_main(["explain", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"]["ok"] is True
    assert payload["score"]["recall"] == payload["score"]["precision"] == 1.0
    assert payload["clean_healthy"] is True
    assert payload["clean_primary"] == "healthy"
    report = payload["report"]
    assert report["primary"] != "healthy"
    assert {v["class"] for v in report["verdicts"]} == {
        "fs_contention", "network_transport", "pipeline_self_inflicted",
    }
    for verdict in report["verdicts"]:
        assert verdict["thresholds_fired"]
        assert verdict["evidence"]["incidents"]
        assert verdict["recommendations"]
    assert report["features"]["n_ranks"] == 8


def test_repro_cli_explain_check(capsys):
    assert repro_main(["explain", "--check"]) == 0
    out = capsys.readouterr().out
    assert "OK[slow]" in out and "OK[fast]" in out
    assert "OK: every fault class classified" in out


def test_repro_cli_explain_check_exits_nonzero_when_misclassified(
    monkeypatch, capsys
):
    from repro.diagnosis import ExplainScore

    monkeypatch.setattr(ExplainScore, "ok", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["explain", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


def test_repro_cli_explain_unknown_job_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["explain", "--job", "999999"])
    assert exc.value.code == 2
    assert "no stored events for job 999999" in capsys.readouterr().err


def test_repro_cli_profile(capsys):
    assert repro_main(["profile"]) == 0
    out = capsys.readouterr().out
    assert "pipeline sim-time profile" in out
    assert "connector" in out and "forwarder" in out
    assert "EXACT" in out


def test_repro_cli_profile_json(capsys):
    import json

    assert repro_main(["profile", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconciles"] is True
    assert payload["messages"] > 0
    stages = {c["stage"] for c in payload["components"]}
    assert {"publish", "forward", "ingest"} <= stages


def test_repro_cli_unknown_command():
    with pytest.raises(SystemExit):
        repro_main(["frobnicate"])


# ----------------------------------------------------------- repro trace


def test_repro_cli_trace_slowest_check(capsys):
    assert repro_main(["trace", "--slowest", "3", "--check"]) == 0
    out = capsys.readouterr().out
    assert "retained 288 of 288 traces" in out
    assert out.count("critical path:") == 3
    assert "exact: yes" in out
    assert "critical-path rollup" in out
    assert "OK: 287 critical paths exact" in out


def test_repro_cli_trace_drops_with_sampling(capsys):
    assert repro_main([
        "trace", "--drops", "--head-rate", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    # Tail sampling keeps drops even at a 5% head rate.
    assert "dropped at" in out
    assert "tail" in out


def test_repro_cli_trace_by_id_and_missing_id(capsys):
    assert repro_main(["trace", "--trace-id", "259900:1:4"]) == 0
    out = capsys.readouterr().out
    assert "trace 259900:1:4" in out
    # An unknown identifier is a usage error (exit 2), not a broken
    # invariant (exit 1) — the uniform exit-code contract.
    with pytest.raises(SystemExit) as exc:
        repro_main(["trace", "--trace-id", "999:9:9"])
    assert exc.value.code == 2
    assert "not retained" in capsys.readouterr().out


def test_repro_cli_trace_json(capsys):
    import json

    assert repro_main(["trace", "--slowest", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rollup_reconciles_with_profile"] is True
    assert payload["registry"]["retained"] == payload["registry"]["offered"]
    assert len(payload["traces"]) == 2
    for t in payload["traces"]:
        assert t["critical_path"]["exact"] is True
        assert t["critical_path"]["total_s"] == t["root"]["duration_s"]


def test_repro_cli_trace_check_exits_nonzero_on_inexact(monkeypatch, capsys):
    from repro.telemetry import spans

    monkeypatch.setattr(
        spans.CriticalPath, "exact", property(lambda self: False)
    )
    with pytest.raises(SystemExit) as exc:
        repro_main(["trace", "--slowest", "1", "--check"])
    assert exc.value.code == 1
    assert "FAIL: critical path != end-to-end latency" in (
        capsys.readouterr().out
    )


# --------------------------------------------------- sorted JSON contract


@pytest.mark.parametrize(
    "argv",
    [
        ["telemetry", "--json"],
        ["chaos", "--seed", "7", "--json"],
        ["profile", "--json"],
        ["trace", "--slowest", "1", "--json"],
        ["forensics", "--capture", "--json"],
        ["explain", "--json"],
        ["telemetry", "--json", "--check"],
        ["chaos", "--seed", "7", "--seeds", "2", "--json", "--check"],
        ["store", "--json", "--check"],
        ["diagnose", "--json", "--check"],
        ["trace", "--slowest", "1", "--json", "--check"],
        ["fleet", "--scan", "--json", "--check"],
        ["fleet", "--catalog", "--json", "--check"],
        ["forensics", "--capture", "--json", "--check"],
        ["explain", "--json", "--check"],
        ["check", "telemetry", "fleet-catalog", "--json"],
    ],
    ids=["telemetry", "chaos", "profile", "trace", "forensics", "explain",
         "telemetry-check", "chaos-sweep-check", "store-check",
         "diagnose-check", "trace-check", "fleet-scan-check",
         "fleet-catalog-check", "forensics-check", "explain-check",
         "check"],
)
def test_repro_cli_json_outputs_are_stable_sorted(argv, capsys):
    """Every --json stdout is byte-stable: 2-space indent, sorted keys.

    With --check the verdict lines go to stderr, so stdout stays exactly
    one JSON document.
    """
    import json

    assert repro_main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if "--check" in argv or argv[0] == "check":
        assert "OK:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["telemetry", "--no-fast-lane", "--columnar", "--check"],
        ["diagnose", "--columnar"],
        ["trace", "--columnar"],
        ["profile", "--columnar"],
        ["profile", "--check"],
        ["fig7", "--check"],
        ["fig7", "--check", "--drill", "--columnar"],
        ["chaos", "--columnar", "--no-fast-lane"],
        ["store", "--topology", "--drill"],
        ["store", "--topology", "--no-repair"],
        ["fleet", "--catalog", "--no-fast-lane"],
        ["forensics", "--show", "fb-0", "--check"],
        ["explain", "--job", "1", "--check"],
        ["check", "frobnicate"],
        # No subcommand has a --columnar flag.
        ["chaos", "--columnar"],
        ["store", "--columnar"],
        ["explain", "--columnar"],
        ["forensics", "--columnar"],
    ],
)
def test_repro_cli_rejects_flags_a_command_does_not_read(argv, capsys):
    """A flag the subcommand (or its chosen mode) ignores is a usage
    error, exit 2, reported on stderr."""
    with pytest.raises(SystemExit) as exc:
        repro_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err and not captured.out


def test_repro_cli_store_no_repair_check_is_a_negative_control(capsys):
    """Without anti-entropy repair the drill leaves under-replicated
    objects behind, so the census gate must fail."""
    with pytest.raises(SystemExit) as exc:
        repro_main(["store", "--drill", "--no-repair", "--check",
                    "--no-fast-lane"])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "under-replicated after recovery (repair disabled)" in out


# ------------------------------------------------------------- repro check


def test_repro_check_registry_matches_the_ci_gate_invocations():
    """The registry runs each gate at the seed, lanes and options of the
    per-command invocations it replaces."""
    from repro.check import GATES

    runs = [
        (g.name, lane, g.seed, dict(g.options))
        for g in GATES for lane in g.lanes
    ]
    assert runs == [
        ("bench", None, 42, {"quick": True}),
        ("telemetry", None, 42, {}),
        ("chaos", "fast", 3, {"seeds": 3}),
        ("chaos", "slow", 3, {"seeds": 3}),
        ("store", "slow", 42, {"mode": "drill"}),
        ("store", "fast", 42, {"mode": "drill"}),
        ("diagnose", "fast", 42, {}),
        ("diagnose", "slow", 42, {}),
        ("profile", None, 42, {}),
        ("trace", "fast", 42, {"slowest": 5}),
        ("trace", "slow", 42, {"slowest": 5}),
        ("fleet-scan", "fast", None, {"mode": "scan"}),
        ("fleet-scan", "slow", None, {"mode": "scan"}),
        ("fleet-catalog", None, None, {"mode": "catalog"}),
        ("fleet-export", None, None, {"mode": "export"}),
        ("forensics", "slow", 42, {}),
        ("forensics", "fast", 42, {}),
        ("explain", "slow", 42, {}),
        ("explain", "fast", 42, {}),
    ]


def test_repro_check_runs_named_gates(capsys):
    assert repro_main(["check", "fleet-catalog", "profile"]) == 0
    out = capsys.readouterr().out
    assert "== profile ==" in out and "== fleet-catalog ==" in out
    assert "OK: 52 signals; every rule link names a standard rule" in out
    assert out.rstrip().endswith("OK: 2 gate run(s) passed")


def test_repro_check_runs_every_gate_and_fails_on_any(monkeypatch, capsys):
    from repro.telemetry.report import PipelineHealthReport

    monkeypatch.setattr(PipelineHealthReport, "verify", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["check", "telemetry", "profile"])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    # The later gate still ran after the first one failed.
    assert "== profile ==" in out
    assert "FAIL: 1 of 2 gate run(s) failed: telemetry" in out


def test_repro_cli_bench_json_sorted_and_snapshotted(monkeypatch, capsys,
                                                     tmp_path):
    """bench --json: sorted JSON on stdout, dated snapshot on disk."""
    import json

    from repro.experiments import bench

    fake = {
        "benchmark": "pipeline_fast_lane",
        "campaign": {"quick": True},
        "slow": {"wall_s": 2.0, "events_per_sec": 100.0, "engine_events": 5},
        "fast": {"wall_s": 1.0, "events_per_sec": 200.0, "engine_events": 5},
        "speedup_events_per_sec": 2.0,
        "speedup_vs_seed_baseline": None,
    }
    monkeypatch.setattr(bench, "pipeline_benchmark", lambda **kw: fake)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    assert repro_main(["bench", "--quick", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(fake, indent=2, sort_keys=True) + "\n"
    snaps = list(tmp_path.glob("bench_pipeline_*.json"))
    assert len(snaps) == 1
    assert json.loads(snaps[0].read_text()) == fake
    # The dated name embeds an ISO date.
    import re

    assert re.fullmatch(
        r"bench_pipeline_\d{4}-\d{2}-\d{2}\.json", snaps[0].name
    )


def test_bench_same_day_snapshots_never_overwrite(monkeypatch, tmp_path):
    """Same-day reruns get _runN suffixes — the first free slot wins."""
    import datetime

    from repro.experiments import bench

    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    day = datetime.date(2026, 8, 9)
    first = bench.snapshot_path(day)
    assert first.name == "bench_pipeline_2026-08-09.json"
    first.write_text("{}")
    second = bench.snapshot_path(day)
    assert second.name == "bench_pipeline_2026-08-09_run2.json"
    second.write_text("{}")
    third = bench.snapshot_path(day)
    assert third.name == "bench_pipeline_2026-08-09_run3.json"
    # A gap is reused: delete run2 and the next snapshot lands there.
    second.unlink()
    assert bench.snapshot_path(day).name == "bench_pipeline_2026-08-09_run2.json"


# -------------------------------------------------------------- repro fleet


def test_repro_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().startswith("repro ")


def test_repro_cli_fleet_catalog_check(capsys):
    assert repro_main(["fleet", "--catalog", "--check"]) == 0
    out = capsys.readouterr().out
    assert "== signal catalog (52 signals) ==" in out
    assert "OK: 52 signals; every rule link names a standard rule" in out


def test_repro_cli_fleet_catalog_json(capsys):
    import json

    assert repro_main(["fleet", "--catalog", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["count"] == len(payload["signals"]) == 52
    assert set(payload) == {"count", "signals"}
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_repro_cli_fleet_catalog_check_fails_on_a_dangling_rule_link(
    monkeypatch, capsys
):
    # Negative control: a row linked to a rule the standard set does
    # not define must fail the catalog gate.
    from repro.fleet import probe
    from repro.signals import Signal

    ghost = Signal("ghost_series", "u", "gauge", probe.__name__, "d",
                   rule="no_such_rule")
    monkeypatch.setattr(probe, "PROBE_METRICS", probe.PROBE_METRICS + (ghost,))
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--catalog", "--check"])
    assert exc.value.code == 1
    assert "FAIL: signals linked to no standard rule: ghost_series" in (
        capsys.readouterr().out
    )


def test_repro_cli_fleet_modes_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--export", "--catalog"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_repro_cli_fleet_scan_check(capsys):
    assert repro_main(["fleet", "--scan", "--check"]) == 0
    out = capsys.readouterr().out
    assert "== fleet readiness ==" in out
    assert "== attaway: scorecard" in out
    assert "== signal catalog (52 signals) ==" in out
    assert ("OK: 3 scorecards reconcile exactly; chaos faults deducted "
            "via matching components") in out


def test_repro_cli_fleet_json_sorted_and_stable(capsys):
    import json

    assert repro_main(["fleet", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["fleet_ready"] is False
    assert payload["worst_cluster"] == "attaway"
    names = [c["cluster"] for c in payload["clusters"]]
    assert names == ["voltrino", "chama", "attaway"]
    for c in payload["clusters"]:
        assert c["scorecard"]["reconciles"] is True


def test_repro_cli_fleet_export_check(capsys):
    assert repro_main(["fleet", "--export", "--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("# EOF\n")
    assert "# TYPE repro_health_score gauge" in captured.out
    assert 'repro_health_score{cluster="attaway"}' in captured.out
    assert "(uncatalogued)" not in captured.out
    assert "OK: every exported family catalogued" in captured.err


def test_repro_cli_fleet_scan_check_fails_on_broken_reconciliation(
    monkeypatch, capsys
):
    from repro.fleet.scorecard import HealthScore

    monkeypatch.setattr(HealthScore, "reconciles", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        repro_main(["fleet", "--check"])
    assert exc.value.code == 1
    assert "FAIL: scorecard does not reconcile" in capsys.readouterr().out


# ---------------------------------------------------------- repro forensics


def test_repro_cli_forensics_capture(capsys):
    assert repro_main(["forensics", "--capture"]) == 0
    out = capsys.readouterr().out
    assert "== applied faults ==" in out
    assert "== frozen bundles ==" in out
    assert "fb-0" in out
    assert "== rings (captured == retained + evicted) ==" in out
    assert "NO" not in out  # every ring reconciles
    assert "== fault-class evidence matches ==" in out
    assert "UNMATCHED" not in out
    assert "0 trigger(s) dropped" in out


def test_repro_cli_forensics_capture_json(capsys):
    import json

    assert repro_main(["forensics", "--capture", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconciles"] is True
    assert payload["bundles"]
    for bundle in payload["bundles"]:
        assert bundle["evidence"]["rules"]
        assert bundle["evidence"]["signals"]
    for match in payload["matches"].values():
        assert match["matched"] is True
    assert payload["archive_bytes"] > 0


def test_repro_cli_forensics_show(capsys):
    assert repro_main(["forensics", "--show", "fb-0"]) == 0
    out = capsys.readouterr().out
    assert "bundle fb-0" in out
    assert "alerts" in out
    assert "evidence links:" in out


def test_repro_cli_forensics_show_unknown_bundle_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--show", "nope-99"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no bundle 'nope-99'" in err
    assert "fb-0" in err  # the error lists what did freeze


def test_repro_cli_forensics_diff_against_clean_snapshot(capsys):
    assert repro_main(["forensics", "--diff", "fb-0", "clean-0"]) == 0
    out = capsys.readouterr().out
    assert "diff fb-0 vs clean-0" in out
    assert "first divergence: stream" in out


def test_repro_cli_forensics_modes_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--show", "fb-0", "--diff", "a", "b"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_repro_cli_forensics_check_ok(capsys):
    assert repro_main(["forensics", "--capture", "--check"]) == 0
    out = capsys.readouterr().out
    assert "OK[slow]" in out
    assert "OK[fast]" in out
    assert "OK: every fault class matched a bundle naming its signal" in out


def test_repro_cli_forensics_check_fails_on_unmatched_class(
    monkeypatch, capsys
):
    from repro.diagnosis import forensics

    monkeypatch.setattr(
        forensics, "match_bundles",
        lambda applied, bundles, epoch, grace_s=1.0: {
            "daemon_crash": forensics.ClassMatch("daemon_crash", 1),
        },
    )
    with pytest.raises(SystemExit) as exc:
        repro_main(["forensics", "--capture", "--check"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out
