"""Repository benchmark: end-to-end metrics, or a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload hmmer_inert --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else
(progress, sample counts, fingerprint status) goes to standard error.

``--trace 0`` reports the end-to-end metrics.  Their times are in
reference seconds — host seconds scaled by the calibration kernel timed
beside each sample (see :mod:`calibrate`), so that the shared host's
speed cancels; the raw host figures are printed on standard error.

* ``setup_s`` — median seconds, over :data:`SETUP_PROBES` fresh
  interpreters, to import ``repro`` and build the world and the first
  job, up to the first simulated event;
* ``events_per_s`` — rows stored in DSOS per second of the campaign
  phase, median over the run's campaigns;
* ``peak_rss_mib`` — ``VmHWM`` of one campaign plus its panel replay
  (reset before each), median over the run's campaigns;
* ``query_p50_ms`` / ``query_p99_ms`` — latency of one panel
  request (DSOS query + webservices reduction) over every request of
  the run; the run issues at least :data:`MIN_QUERY_SAMPLES` so that at
  least ten samples lie beyond p99;
* ``ok_frac`` — operations that succeeded over operations attempted
  (I/O events published plus panel requests issued).  An event fails
  when its reference row is not stored exactly; a request fails when
  it raises or its answer differs from the reference answer.

``--trace 1`` runs untraced and traced campaigns alternately and reports
the per-layer metrics of :mod:`tracer` in raw host seconds, per traced
campaign: calls and self seconds per layer, each layer's share of its
own window (the replay window for ``dsos.query`` and ``webservices``,
the campaign window for every other layer), the measured residual and
its share of each window, the ratio counters, and the tracing overhead
(median traced wall minus median untraced wall, both windows).

Every campaign — timed, traced or untraced — must reproduce the
reference fingerprint computed once per run on the per-message slow
lane; the traced run also checks ``Σ self + residual == wall`` in each
window, with the residual measured by the tracer, and the zero-call
predictions in ``perfbench/predictions.json``.  A run that
fails any check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 3

#: Panel-request samples a run collects at least (>= 10 beyond p99).
MIN_QUERY_SAMPLES = 1100

#: Per-layer ratio counters derived outside :mod:`tracer`.
_EXTRA = ("sim.engine.events_per_io_event", "core.batch.rows_per_batch")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


_clock = time.perf_counter


# -- peak RSS ------------------------------------------------------------------


def _reset_hwm() -> None:
    """Reset ``VmHWM`` to the current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _hwm_kib() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- set-up probe ----------------------------------------------------------


class _FirstEvent(Exception):
    pass


def setup_probe(workload_name: str, seed: int) -> tuple[float, float]:
    """Seconds from before ``import repro`` to the first ``Environment.run``,
    and the calibration kernel's seconds measured after it.

    Runs in a fresh interpreter (``--setup-probe``), so every import is
    paid; stops the campaign at its first simulated event.
    """
    t0 = _clock()
    import workloads

    from repro.sim.engine import Environment

    campaign = workloads.Campaign(
        workloads.WORKLOADS[workload_name], seed, workloads.LANE
    )

    def first_event(self, until=None):
        raise _FirstEvent

    Environment.run = first_event
    try:
        campaign.run()
    except _FirstEvent:
        setup = _clock() - t0
        return setup, statistics.median(calibrate.measure() for _ in range(3))
    raise RuntimeError("campaign finished without simulating an event")


def measure_setup(workload_name: str, seed: int) -> tuple[list, list]:
    """Raw and reference seconds of :data:`SETUP_PROBES` set-ups."""
    cmd = [sys.executable, os.path.join(_HERE, "run.py"), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        setup, kernel = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(setup)
        scaled.append(setup * calibrate.REFERENCE_S / kernel)
    return raw, scaled


# -- reference --------------------------------------------------------------


class Reference:
    """The slow-lane outcome every campaign of the run must reproduce."""

    def __init__(self, workload, seed: int):
        import workloads

        campaign = workloads.Campaign(workload, seed, workloads.REFERENCE_LANE)
        campaign.run()
        rows = campaign.rows()
        self.fingerprint = campaign.fingerprint(rows)
        self.rows = workloads.row_counter(rows)
        self.ledger_faults = campaign.ledger_faults()
        self.plan = workloads.panel_plan(rows, seed, workload.requests)
        dsos = campaign.world.dsos
        workloads.warm_indices(dsos, self.plan[0].job)
        self.answers = [
            workloads.answer_digest(workloads.answer(dsos, req))
            for req in self.plan
        ]


class Tally:
    """Attempted and failed operations plus every fault seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def check(self, ref: Reference, campaign, answers, label: str) -> None:
        import workloads

        rows = campaign.rows()
        self.attempted += campaign.published + len(answers)
        missing = workloads.missing_rows(ref.rows, rows)
        self.failed += missing
        fp = campaign.fingerprint(rows)
        for key, want in ref.fingerprint.items():
            if fp[key] != want:
                self.faults.append(f"{label}: {key} {fp[key]!r} != reference {want!r}")
                if not missing:
                    self.failed += 1
        for fault in campaign.ledger_faults():
            self.faults.append(f"{label}: {fault}")
            self.failed += 1
        bad = sum(
            a is _FAILED or workloads.answer_digest(a) != want
            for a, want in zip(answers, ref.answers)
        )
        if bad:
            self.faults.append(f"{label}: {bad} panel answers differ from reference")
            self.failed += bad


_FAILED = object()


# -- one campaign plus its panel replay ------------------------------------------


def run_rep(workload, seed: int, ref: Reference, tracer=None) -> dict:
    """Build, run and replay one campaign; returns its measurements.

    The campaign and the replay are timed as two windows (world build
    excluded); traced, each is also a :class:`tracer.Window`.
    Untraced, the calibration kernel runs between the two windows
    (``kernel_mid_s``).
    """
    import workloads

    gc.collect()
    _reset_hwm()
    windows = {}
    if tracer is not None:
        tracer.install()
    try:
        campaign = workloads.Campaign(workload, seed, workloads.LANE)
        if tracer is not None:
            tracer.reset()
        t0 = _clock()
        if tracer is not None:
            tracer.begin(t0)
        campaign.run()
        t1 = _clock()
        if tracer is not None:
            windows["campaign"] = tracer.end(t1)
        kernel_mid = None
        rss_kib = _hwm_kib()
        if tracer is None:
            kernel_mid = calibrate.measure()
            # The kernel's table is freed again; keep it out of the peak.
            _reset_hwm()
        t1_replay = _clock()
        if tracer is not None:
            tracer.begin(t1_replay)
        dsos = campaign.world.dsos
        workloads.warm_indices(dsos, ref.plan[0].job)
        answers, latencies = [], []
        for req in ref.plan:
            ts = _clock()
            try:
                result = workloads.answer(dsos, req)
            except Exception:  # a failed request is counted, not fatal
                _log(traceback.format_exc())
                result = _FAILED
            latencies.append(_clock() - ts)
            answers.append(result)
        t2 = _clock()
        if tracer is not None:
            windows["replay"] = tracer.end(t2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kib = max(rss_kib, _hwm_kib())
    return {
        "campaign": campaign,
        "answers": answers,
        "events_per_s": campaign.stored / (t1 - t0),
        "kernel_mid_s": kernel_mid,
        "latencies": latencies,
        "rss_kib": rss_kib,
        "wall_s": (t1 - t0) + (t2 - t1_replay),
        "windows": windows,
    }


def _min_reps(workload) -> int:
    return math.ceil(MIN_QUERY_SAMPLES / workload.requests)


# -- timed run ------------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float, ref: Reference, tally: Tally) -> dict:
    """End-to-end metrics in reference seconds (see :mod:`calibrate`):
    each campaign, and each replay, is scaled by the mean of the kernel
    timings taken just before and just after it."""
    raw_eps, eps, rss, raw_lat, lat = [], [], [], [], []
    deadline = _clock() + seconds
    kernel_before = calibrate.measure()
    rep = 0
    while rep < _min_reps(workload) or _clock() < deadline:
        m = run_rep(workload, seed, ref)
        tally.check(ref, m["campaign"], m["answers"], f"rep {rep}")
        # Drop this campaign's world before the kernel runs and the next
        # world is built, so neither runs beside its heap.
        m["campaign"] = m["answers"] = None
        kernel_after = calibrate.measure()
        raw_eps.append(m["events_per_s"])
        eps.append(m["events_per_s"] * (kernel_before + m["kernel_mid_s"])
                   / 2 / calibrate.REFERENCE_S)
        rss.append(m["rss_kib"] / 1024.0)
        raw_lat.extend(m["latencies"])
        scale = 2 * calibrate.REFERENCE_S / (m["kernel_mid_s"] + kernel_after)
        lat.extend(x * scale for x in m["latencies"])
        kernel_before = kernel_after
        rep += 1
    p99 = statistics.quantiles(lat, n=100)[98]
    _log(f"{workload.name}: {rep} campaigns, {len(lat)} panel requests "
         f"({sum(x > p99 for x in lat)} beyond p99); raw host medians: "
         f"events/s {statistics.median(raw_eps):.1f}, query p50 "
         f"{statistics.median(raw_lat) * 1e3:.4f} ms, p99 "
         f"{statistics.quantiles(raw_lat, n=100)[98] * 1e3:.4f} ms; "
         f"reference events/s samples {[round(x) for x in eps]}")
    return {
        "events_per_s": statistics.median(eps),
        "peak_rss_mib": statistics.median(rss),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p99_ms": p99 * 1e3,
    }


# -- traced run -----------------------------------------------------------------


def traced_run(workload, seed: int, seconds: float, ref: Reference, tally: Tally) -> dict:
    from tracer import Tracer

    predictions = _load_predictions()
    tracer = Tracer()
    untraced, traced = [], []
    calls: dict[str, int] = {}
    # Per window: each campaign's wall, and the measured residual and
    # each layer's self seconds summed over campaigns.
    walls = {w: [] for w in _WINDOWS}
    residual = {w: 0.0 for w in _WINDOWS}
    self_s = {w: {name: 0.0 for name in tracer.layers} for w in _WINDOWS}
    counters: dict[str, list[int]] = {}
    extra = {name: [0, 0] for name in _EXTRA}
    deadline = _clock() + seconds
    while not traced or _clock() < deadline:
        m = run_rep(workload, seed, ref)
        tally.check(ref, m["campaign"], m["answers"], f"untraced {len(untraced)}")
        untraced.append(m["wall_s"])
        m = None

        m = run_rep(workload, seed, ref, tracer=tracer)
        label = f"traced {len(traced)}"
        tally.check(ref, m["campaign"], m["answers"], label)
        traced.append(m["wall_s"])
        for w, win in m["windows"].items():
            attributed = sum(win.self_s.values())
            if abs(attributed + win.residual_s - win.wall_s) > 1e-6 * win.wall_s:
                tally.faults.append(
                    f"{label} {w}: Σ self {attributed!r} + residual "
                    f"{win.residual_s!r} != wall {win.wall_s!r}"
                )
            walls[w].append(win.wall_s)
            residual[w] += win.residual_s
            for name, v in win.self_s.items():
                self_s[w][name] += v
        for name, layer in tracer.layers.items():
            calls[name] = calls.get(name, 0) + layer.calls
        for name, c in tracer.counters.items():
            acc = counters.setdefault(name, [0, 0])
            acc[0] += c.num
            acc[1] += c.den
        campaign = m["campaign"]
        extra["sim.engine.events_per_io_event"][0] += campaign.world.env._seq
        extra["sim.engine.events_per_io_event"][1] += campaign.events
        spine = campaign.world.spine
        if spine is not None:
            extra["core.batch.rows_per_batch"][0] += spine.stats.batch_rows
            extra["core.batch.rows_per_batch"][1] += spine.stats.record_batches
        m = campaign = spine = None
    if tracer.absent:
        _log(f"absent trace targets: {tracer.absent}")

    n = len(traced)
    for layer in predictions:
        if workload.name in predictions[layer]["zero_calls_on"] and calls[layer]:
            tally.faults.append(
                f"{layer}: predicted zero calls on {workload.name}, "
                f"read {calls[layer]}"
            )
    metrics = {}
    outside = {}
    for name in tracer.layers:
        own = _layer_window(name)
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_s"] = sum(self_s[w][name] for w in _WINDOWS) / n
        metrics[f"{name}.share"] = self_s[own][name] / sum(walls[own])
        for w in _WINDOWS:
            if w != own and self_s[w][name]:
                outside[f"{name} in {w}"] = self_s[w][name] / n
    if outside:
        _log(f"self seconds per campaign outside the layer's own window: "
             f"{outside}")
    metrics["residual.self_s"] = sum(residual.values()) / n
    for w in _WINDOWS:
        metrics[f"residual.{w}_share"] = residual[w] / sum(walls[w])
        metrics[f"trace.{w}_wall_s"] = statistics.median(walls[w])
    for name, (num, den) in {**counters, **extra}.items():
        metrics[name] = num / den if den else 0.0
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.absent_targets"] = len(tracer.absent)
    _log(f"{workload.name}: {n} traced + {len(untraced)} untraced campaigns; "
         f"layer shares " + ", ".join(
             f"{k}={v:.3f}" for k, v in metrics.items()
             if k.endswith("share")))
    return metrics


#: The two measured windows of every campaign.
_WINDOWS = ("campaign", "replay")

#: Layers whose share is taken over the replay window; every other
#: layer's share is taken over the campaign window.
_REPLAY_LAYERS = ("dsos.query", "webservices")


def _layer_window(layer: str) -> str:
    return "replay" if layer in _REPLAY_LAYERS else "campaign"


def _load_predictions() -> dict:
    from tracer import LAYERS

    with open(os.path.join(_HERE, "predictions.json")) as f:
        layers = json.load(f)["layers"]
    if set(layers) != set(LAYERS):
        raise RuntimeError(
            f"predictions.json layers {sorted(layers)} != traced layers "
            f"{sorted(LAYERS)}"
        )
    return layers


def _declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _log(f"no repro package under {src}: run from the repository root")
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, _HERE)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _log(f"unknown workload {args.workload!r} "
             f"(choose from {sorted(workloads.WORKLOADS)})")
        return 2

    tally = Tally()
    metrics = {}
    if not args.trace:
        raw, setup = measure_setup(workload.name, args.seed)
        _log(f"{workload.name}: setup probes {[round(s, 4) for s in raw]} "
             f"host s, {[round(s, 4) for s in setup]} reference s")
        metrics["setup_s"] = statistics.median(setup)
    t = _clock()
    ref = Reference(workload, args.seed)
    _log(f"{workload.name}: reference (slow lane) in {_clock() - t:.2f}s, "
         f"{ref.fingerprint['objects_stored']} rows, "
         f"{len(ref.plan)} panel requests")
    tally.faults.extend(f"reference: {f}" for f in ref.ledger_faults)
    if args.trace:
        metrics.update(traced_run(workload, args.seed, args.seconds, ref, tally))
    else:
        metrics.update(timed_run(workload, args.seed, args.seconds, ref, tally))
        metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
    correct = not tally.faults and tally.failed == 0
    for fault in tally.faults:
        _log(f"FAULT {fault}")
    _log(f"{workload.name}: attempted={tally.attempted} failed={tally.failed} "
         f"failed_frac={tally.failed / tally.attempted:.6g} "
         f"fingerprint {'ok' if correct else 'MISMATCH'}")
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} != BENCHMARK.json "
            f"{sorted(units)}"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
