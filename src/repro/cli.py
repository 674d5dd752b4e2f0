"""Experiment CLI: regenerate the paper's tables, figures and ablations,
and run the campaign gates.

Usage::

    python -m repro.cli table2c --families 400   # any table/figure/ablation
    python -m repro.cli chaos --seed 3 --seeds 3 --check --no-fast-lane
    python -m repro.cli check [NAME ...]         # every gate, or the named
    python -m repro.cli <command> --help          # a command's flags

Each subcommand accepts only the flags it reads; any other flag is a
usage error.  The campaign subcommands and ``check`` share one output
and exit-code contract, implemented once in :mod:`repro.check`:
``--json`` prints exactly one sorted JSON document on stdout (verdict
lines go to stderr); exit 0 = OK, 1 = an invariant is broken, 2 =
usage error (bad flags, unknown or missing identifiers).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_SUPPRESS = argparse.SUPPRESS


def _print_overhead(rows: list[dict]) -> None:
    print(f"{'config':<28} {'fs':<7} {'msgs':>8} {'rate/s':>7} "
          f"{'Darshan(s)':>11} {'dC(s)':>9} {'overhead':>9}")
    for r in rows:
        print(f"{r['config']:<28} {r['filesystem']:<7} {r['avg_messages']:>8} "
              f"{r['rate_msgs_per_s']:>7.1f} {r['darshan_runtime_s']:>11.2f} "
              f"{r['dC_runtime_s']:>9.2f} {r['overhead_percent']:>8.2f}%")


def _table2a(seed=42, reps=2, ranks_per_node=4) -> None:
    from repro.experiments import table2a_mpiio

    cells = table2a_mpiio(seed=seed, reps=reps, ranks_per_node=ranks_per_node)
    _print_overhead([c.as_row() for c in cells])


def _table2b(seed=42, reps=2, ranks_per_node=4, particles=500_000) -> None:
    from repro.experiments import table2b_haccio

    cells = table2b_haccio(
        seed=seed, reps=reps, ranks_per_node=ranks_per_node,
        particle_counts=(particles, 2 * particles),
    )
    _print_overhead([c.as_row() for c in cells])


def _table2c(seed=42, reps=2, families=200) -> None:
    from repro.experiments import table2c_hmmer

    cells = table2c_hmmer(seed=seed, reps=reps, n_families=families)
    _print_overhead([c.as_row() for c in cells])


def _fig5(seed=42, reps=2) -> None:
    from repro.experiments import fig5_op_counts

    for label, counts in fig5_op_counts(seed=seed, reps=reps).items():
        line = "  ".join(
            f"{op}={counts[op]['mean']:.0f}±{counts[op]['ci']:.1f}"
            for op in sorted(counts)
        )
        print(f"{label:<16} {line}")


def _fig6(seed=42) -> None:
    from repro.experiments import fig6_per_node

    for job_id, nodes in fig6_per_node(seed=seed).items():
        print(f"job {job_id}:")
        for node, ops in sorted(nodes.items()):
            print(f"  {node}: {ops}")


def _fig7() -> None:
    from repro.experiments import fig7_duration_variability

    out = fig7_duration_variability()
    print(f"{'job':>8} {'reads(s)':>10} {'writes(s)':>10}")
    for job in out["job_ids"]:
        s = out["stats"][job]
        mark = "  <-- anomalous" if job in out["anomalous"] else ""
        print(f"{job:>8} {s['read']['mean']:>10.3f} {s['write']['mean']:>10.3f}{mark}")


def _fig8() -> None:
    from repro.experiments import fig8_timeline

    tl = fig8_timeline()
    writes = tl["op"] == "write"
    reads = tl["op"] == "read"
    print(f"job {tl['job_id']}: {tl['write_phases']} write phases "
          f"over [0, {tl['t'][writes].max():.0f}]s; "
          f"reads in [{tl['t'][reads].min():.0f}, {tl['t'][reads].max():.0f}]s")


def _fig9() -> None:
    from repro.experiments import fig9_grafana_series

    s = fig9_grafana_series(bucket_s=10.0)
    print(f"job {s['job_id']} (MiB per 10s bucket):")
    for op in ("write", "read"):
        print(f"  {op:>6}: " + " ".join(f"{v / 2**20:.0f}" for v in s[op]["bytes"]))


def _ablations(families=200) -> None:
    from repro.experiments import (
        ablation_dsos_index,
        ablation_push_pull,
        ablation_sampling,
        ablation_sprintf,
    )

    print("== A1: JSON formatting on/off ==")
    _print_overhead(ablation_sprintf(n_families=families, reps=1))
    print("\n== A2: n-th-event sampling ==")
    for r in ablation_sampling(sample_every=(1, 5, 20, 100), n_families=families):
        print(f"  n={r['sample_every']:<4} overhead={r['overhead_percent']:.0f}% "
              f"fidelity={r['fidelity']:.0%}")
    print("\n== A3: DSOS index choice ==")
    for r in ablation_dsos_index():
        print(f"  {r['index']:<32} scanned={r['rows_scanned']:<7} "
              f"latency={r['est_latency_s'] * 1e6:.0f}us")
    print("\n== A4: push vs pull ==")
    for r in ablation_push_pull():
        print(f"  {r['mode']:<5} buffered={r['peak_buffered']:<6} lost={r['lost']:<7} "
              f"latency={r['mean_latency_s']:.2f}s")


def _report() -> None:
    from pathlib import Path

    from repro.experiments.report import generate_report

    results_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    print(generate_report(results_dir))


class _Pick(argparse.Action):
    """One of several flags choosing a subcommand's mode.  A second,
    different choice is a usage error; a valued flag (``--show ID``)
    also stores its value under the chosen name."""

    def __init__(self, option_strings, dest, const, nargs=0, **kw):
        super().__init__(option_strings, dest, nargs=nargs, const=const, **kw)

    def __call__(self, parser, namespace, values, option_string=None):
        prior = getattr(namespace, self.dest, None)
        if prior not in (None, self.const):
            raise argparse.ArgumentError(
                self, f"--{prior} and {option_string} are mutually exclusive")
        setattr(namespace, self.dest, self.const)
        if self.nargs != 0:
            setattr(namespace, self.const, values)


def _flag(*names, **kw) -> argparse.ArgumentParser:
    """A parent parser holding one flag.

    Nothing defaults: a flag that is not given is absent from the
    parsed namespace, so each gate function's keyword defaults are the
    only defaults.
    """
    parser = argparse.ArgumentParser(add_help=False,
                                     argument_default=_SUPPRESS)
    parser.add_argument(*names, **kw)
    return parser


_SEED = _flag("--seed", type=int, help="campaign seed (default 42)")
_RPN = _flag("--ranks-per-node", type=int, help="MPI ranks per node")
_REPS = _flag("--reps", type=int, help="repetitions (default 2)")
_FAMILIES = _flag("--families", type=int,
                  help="HMMER Pfam families (scaled input, default 200)")
_FAIL_AFTER = _flag("--fail-after", type=int,
                    help="messages seen at L1 before the crash (default 50)")
_JSON = _flag("--json", action="store_true",
              help="sorted, byte-stable JSON on stdout")
_CHECK = _flag("--check", action="store_true",
               help="verify the gate's invariants; exit 1 if any is broken")
_SLOW = _flag("--no-fast-lane", action="store_const", dest="lane",
              const="slow",
              help="per-message reference path instead of the fast lane")


def _modes(*names):
    """Mutually exclusive ``--<name>`` mode flags; the first is the
    default."""
    return [_flag(f"--{n}", action=_Pick, dest="mode", const=n,
                  help=f"{n} mode" + (" (default)" if n == names[0] else ""))
            for n in names]


def _parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.check import GATES, run_gates

    g = "repro.experiments.gates:"  # resolved only when the command runs

    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, *parents, help, **defaults):
        sub.add_parser(name, parents=parents, help=help,
                       argument_default=_SUPPRESS).set_defaults(run=run,
                                                                **defaults)

    add("table2a", _table2a, _SEED, _RPN, _REPS,
        help="Table IIa: MPI-IO-TEST overhead")
    add("table2b", _table2b, _SEED, _RPN, _REPS, _flag(
        "--particles", type=int, help="HACC particles per rank (scaled)"),
        help="Table IIb: HACC-IO overhead")
    add("table2c", _table2c, _SEED, _REPS, _FAMILIES,
        help="Table IIc: HMMER overhead")
    add("fig5", _fig5, _SEED, _REPS, help="Fig. 5: operation counts")
    add("fig6", _fig6, _SEED, help="Fig. 6: operations per node")
    add("fig7", _fig7, help="Fig. 7: per-job duration variability")
    add("fig8", _fig8, help="Fig. 8: one job's I/O timeline")
    add("fig9", _fig9, help="Fig. 9: Grafana throughput series")
    add("report", _report, help="experiment report from benchmarks/results")
    add("ablations", _ablations, _FAMILIES,
        help="formatting, sampling, index and push/pull ablations")

    add("telemetry", g + "telemetry", _SEED, _RPN, _FAIL_AFTER, _JSON, _CHECK,
        _flag("--queue-depth", type=int,
              help="forward-outbox depth (small = overflow)"),
        _flag("--inject-failure", action="store_true",
              help="crash the L1 aggregator mid-run"),
        help="pipeline telemetry and loss reconciliation")
    add("chaos", g + "chaos", _SEED, _RPN, _FAIL_AFTER, _SLOW, _JSON, _CHECK,
        _flag("--seeds", type=int, help="sweep this many consecutive seeds "
              "starting at --seed in one process"),
        help="seeded chaos campaign against the self-healing pipeline")
    add("store", g + "store", _SEED, _RPN, _SLOW, _JSON, _CHECK,
        *_modes("drill", "topology"),
        _flag("--no-repair", action="store_false", dest="repair",
              help="disable anti-entropy repair (negative control)"),
        help="replicated-store topology and crash drill")
    add("diagnose", g + "diagnose", _SEED, _RPN, _FAIL_AFTER, _SLOW, _JSON,
        _CHECK, help="live diagnosis scored against injected faults")
    add("explain", g + "explain", _SEED, _SLOW, _JSON, _CHECK,
        _flag("--job", type=int, help="job id to explain (default: the "
              "campaign's own job)"),
        help="bottleneck verdicts scored against injected faults")
    # profile always verifies its reconciliation.
    add("profile", g + "profile", _SEED, _RPN, _SLOW, _JSON, check=True,
        help="sim-time profile of the pipeline")
    add("trace", g + "trace", _SEED, _RPN, _FAIL_AFTER, _SLOW, _JSON, _CHECK,
        _flag("--trace-id", help="drill into one retained trace id"),
        _flag("--slowest", type=int,
              help="show the N slowest stored traces (default 5)"),
        _flag("--drops", action="store_true",
              help="show retained dropped traces"),
        _flag("--head-rate", type=float,
              help="deterministic head-sampling rate (1.0 = keep all)"),
        _flag("--tail-latency", type=float, help="always retain stored "
              "traces at least this slow (seconds)"),
        help="span trees and critical paths under chaos")
    add("bench", g + "bench", _SEED, _JSON, _CHECK,
        _flag("--quick", action="store_true", help="reduced campaign for CI"),
        _flag("--out", help="tracked result path (default "
              "benchmarks/BENCH_pipeline.json)"),
        help="pipeline lane benchmark (slow vs fast lane)")
    add("fleet", g + "fleet", _SLOW, _JSON, _CHECK,
        *_modes("scan", "export", "catalog"),
        help="fleet health console, OpenMetrics export, signal catalog")
    add("forensics", g + "forensics", _SEED, _FAIL_AFTER, _SLOW, _JSON,
        _CHECK, *_modes("capture"),
        _flag("--show", action=_Pick, dest="mode", const="show", nargs=None,
              metavar="BUNDLE", help="one frozen bundle's timeline"),
        _flag("--diff", action=_Pick, dest="mode", const="diff", nargs=2,
              metavar=("A", "B"), help="diff two bundles (faulted-run ids "
              "or the clean-run snapshot 'clean-0')"),
        help="flight-recorder capture, timelines, bundle diffs")

    names = sorted({gate.name for gate in GATES})

    def gate_name(name):
        if name not in names:
            raise argparse.ArgumentTypeError(
                f"unknown gate {name!r} (choose from {', '.join(names)})")
        return name

    add("check", run_gates, _JSON, _flag(
        "names", nargs="*", default=(), metavar="NAME", type=gate_name,
        help="gates to run (default: all): " + ", ".join(names)),
        check=True, help="run every registered gate, or the named ones")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli`` / ``repro-experiments``."""
    from repro.check import Check, UsageError, call, emit, resolve

    kwargs = vars(_parser().parse_args(argv))
    command = kwargs.pop("command")
    run = kwargs.pop("run")
    if isinstance(run, str):
        run = resolve(run)
    as_json = kwargs.pop("json", False)
    verdict = kwargs.pop("check", False)
    try:
        result = call(run, check=verdict, **kwargs)
        if isinstance(result, Check):
            emit(result, as_json=as_json, checked=verdict)
            if command == "bench" and not verdict:
                _record_bench(result.payload, kwargs.get("out"), as_json)
    except UsageError as err:
        print(err, file=sys.stdout if err.stdout else sys.stderr)
        raise SystemExit(2) from None
    return 0


def _record_bench(result: dict, out: str | None, as_json: bool) -> None:
    """``bench`` without ``--check``: ``--json`` writes a dated snapshot
    under ``benchmarks/results/``; text mode updates the tracked file
    (its ``quick`` section for a quick campaign)."""
    import json
    from pathlib import Path

    from repro.experiments import bench

    if as_json:
        path = bench.snapshot_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        path = Path(out) if out else bench.DEFAULT_RESULT_PATH
        bench.record(result, path)
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
