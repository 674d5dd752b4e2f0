"""Steadiness record: run every workload over several seeds and summarize.

Run from the repository root::

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --holdout 9001

For each workload the benchmark runs once per seed (``--trace 0``, one
run at a time) and, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — are written with the
raw values to ``perfbench/steadiness.json``, next to the metric's bound
from ``BENCHMARK.json``, with each run's wall seconds.  ``--holdout``
names a seed that was not used while the benchmark was built; its run
is recorded with each metric's distance from the median.  Progress
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One benchmark run's result and its wall seconds, set-up included."""
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(_HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{out.stderr}")
    return result, time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--holdout", type=int, required=True)
    parser.add_argument("--out", default=os.path.join(_HERE, "steadiness.json"))
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    record = {
        "host": {"cpus": os.cpu_count(), "cpu": _cpu_model(),
                 "python": platform.python_version()},
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "holdout_seed": args.holdout,
        "workloads": {},
    }
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        walls = []
        for seed in args.seeds:
            result, wall = _run(name, seed, bench["run_seconds"])
            walls.append(wall)
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()),
                file=sys.stderr, flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bounds[metric],
                "values": vals,
            }
        holdout, _ = _run(name, args.holdout, bench["run_seconds"])
        record["workloads"][name] = {
            "run_wall_s": walls,
            "metrics": summary,
            "holdout": {
                metric: {
                    "value": holdout["metrics"][metric]["value"],
                    "vs_median": holdout["metrics"][metric]["value"]
                    / summary[metric]["median"] - 1.0,
                }
                for metric in bounds
            },
        }
        print(f"{name}: spreads " + ", ".join(
            f"{m}={s['spread']:.4f}" for m, s in summary.items()),
            file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
