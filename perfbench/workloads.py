"""The benchmark's workloads: campaigns, panel replay and correctness gate.

Every workload is one campaign of simulated jobs run through the public
job runner (``repro.experiments.runner.run_job``), followed by a closed
loop of dashboard-panel requests — one client, each request issued when
the previous one has been answered — over the rows the campaign stored.
A request is one DSOS query plus its ``repro.webservices.analysis``
reduction, the Fig. 5–9 panels; requests come in dashboard sessions
that open a job with whole-prefix scans and then zoom into time
windows (:func:`panel_plan`).

The lane every timed run uses is chosen once, in :data:`LANE`.  The
reference fingerprint always comes from :data:`REFERENCE_LANE`, the
per-message slow path, so every faster lane is checked against it.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

#: The lane timed runs use (today: the columnar record-batch lane).
LANE = {"fast_lane": True, "columnar": True}

#: The per-message reference lane every fingerprint is computed on.
REFERENCE_LANE = {"fast_lane": False, "columnar": False}

#: The `repro bench --quick` HMMER input (12,439 events).
_HMMER_FAMILIES = 80


@dataclass(frozen=True)
class Workload:
    name: str
    #: Panel requests replayed after each campaign (whole sessions).
    requests: int

    def world_config(self, seed: int, lane: dict):
        from repro.experiments.world import WorldConfig

        if self.name == "mpiio_query":
            from repro.experiments.figures import FIGURE_LOAD_KWARGS

            return WorldConfig(
                seed=seed, n_compute_nodes=8,
                load_kwargs=dict(FIGURE_LOAD_KWARGS), **lane,
            )
        if self.name == "hmmer_observed":
            from repro.diagnosis import DiagnosisConfig

            return WorldConfig(
                seed=seed, quiet=True, n_compute_nodes=2,
                telemetry=True, diagnosis=DiagnosisConfig(), flightrec=True,
                dsos_shards=2, dsos_replication=2, **lane,
            )
        return WorldConfig(seed=seed, quiet=True, n_compute_nodes=2, **lane)

    def jobs(self) -> list[tuple[object, str]]:
        """``(application, file system)`` per job, in submission order."""
        from repro.apps import Hmmer, MpiIoTest

        if self.name == "mpiio_query":
            return [
                (MpiIoTest(n_nodes=4, ranks_per_node=4, iterations=10,
                           block_size=8 * 2**20, collective=False), "lustre")
                for _ in range(8)
            ]
        return [(Hmmer(ranks_per_node=8, n_families=_HMMER_FAMILIES), "nfs")]


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hmmer_inert", requests=100),
        Workload("hmmer_observed", requests=400),
        Workload("mpiio_query", requests=200),
    )
}


# -- campaign ---------------------------------------------------------------


class Campaign:
    """One world plus the jobs run in it."""

    def __init__(self, workload: Workload, seed: int, lane: dict):
        from repro.experiments.world import World

        self.lane = lane
        self.workload = workload
        self.world = World(workload.world_config(seed, lane))
        self.results: list = []

    def run(self) -> None:
        from repro.core import ConnectorConfig
        from repro.experiments.runner import run_job

        for i, (app, fs_name) in enumerate(self.workload.jobs()):
            # The first job is submitted at once, so the campaign's first
            # Environment.run drives that job (where setup_s stops).
            self.results.append(run_job(
                self.world, app, fs_name,
                connector_config=ConnectorConfig(**self.lane),
                **({"inter_job_gap_s": 0.0} if i == 0 else {}),
            ))

    @property
    def events(self) -> int:
        return sum(r.connector.stats.events_seen for r in self.results)

    @property
    def published(self) -> int:
        return sum(r.connector.stats.messages_published for r in self.results)

    @property
    def stored(self) -> int:
        return self.world.store.objects_stored

    def rows(self) -> list[dict]:
        out = []
        for r in self.results:
            out.extend(self.world.query_job(r.job_id).rows)
        return out

    def fingerprint(self, rows: list[dict]) -> dict:
        """Simulated outcome every lane must reproduce exactly."""
        stats = [r.connector.stats for r in self.results]
        return {
            "events_seen": sum(s.events_seen for s in stats),
            "messages_published": sum(s.messages_published for s in stats),
            "bytes_published": sum(s.bytes_published for s in stats),
            "numeric_conversions": sum(s.numeric_conversions for s in stats),
            "objects_stored": self.stored,
            "sim_runtime_s": [repr(r.runtime_s) for r in self.results],
            "rows_digest": _digest(sorted(_row_key(r) for r in rows)),
        }

    def ledger_faults(self) -> list[str]:
        """Exact-ledger violations of an observed world (empty if none)."""
        faults = []
        for r in self.results:
            h = r.health
            if h is None:
                continue
            if h.published != h.stored + h.dropped + h.in_flight_spill:
                faults.append(
                    f"job {r.job_id}: published={h.published} != stored="
                    f"{h.stored} + dropped={h.dropped} + in_flight_spill="
                    f"{h.in_flight_spill}"
                )
        recorder = self.world.flight_recorder
        if recorder is not None and not recorder.reconciles():
            bad = [k for k, ok in recorder.reconciliation().items() if not ok]
            faults.append(f"flight recorder rings do not reconcile: {bad}")
        return faults


def _row_key(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def missing_rows(reference: Counter, rows: list[dict]) -> int:
    """Reference rows absent from (or altered in) ``rows``."""
    return sum((reference - Counter(_row_key(r) for r in rows)).values())


def row_counter(rows: list[dict]) -> Counter:
    return Counter(_row_key(r) for r in rows)


# -- panel replay ----------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    job: int
    rank: int
    t_lo: float
    t_hi: float
    module: str
    bucket_s: float


def panel_plan(rows: list[dict], seed: int, n: int):
    """``n`` seeded panel requests over the jobs, ranks and time spans
    present in ``rows`` (the reference campaign's stored rows).

    The requests come in dashboard sessions of :data:`SESSION`
    requests.  A session opens one job's dashboard the way the repo's
    own panels read it — whole-prefix scans of ``job_rank_time``: the
    job prefix ``(job,)`` of ``World.query_job`` (Figs 5–8 keep its
    POSIX rows, the Fig 9 Grafana panel all of them) and a ``(job,
    rank)`` prefix as in the quickstart — and then zooms in with
    time-picker requests.  Each zoom is bounded by a window holding
    :data:`_WINDOW_ROWS` consecutive rows of the series it scans: one
    rank's rows for ``job_rank_time`` range scans, the whole job's for
    ``time_job_rank`` range scans.
    """
    by_job: dict[int, list[float]] = {}
    by_rank: dict[tuple[int, int], list[float]] = {}
    modules: dict[int, set] = {}
    for row in rows:
        job, t = row["job_id"], row["timestamp"]
        by_job.setdefault(job, []).append(t)
        by_rank.setdefault((job, row["rank"]), []).append(t)
        modules.setdefault(job, set()).add(row["module"])
    for series in (*by_job.values(), *by_rank.values()):
        series.sort()
    jobs = sorted(by_job)
    ranks = {job: sorted(r for j, r in by_rank if j == job) for job in jobs}
    rng = random.Random(f"perfbench-panels-{seed}")
    low, high = _WINDOW_ROWS
    plan = []
    for i in range(n):
        # Kinds, window sizes and module filters cycle the same way for
        # every seed, so plans differ in where they look, not in how
        # much they ask for; the seed picks jobs, ranks and positions.
        session, step = divmod(i, SESSION)
        if step == 0:
            job = rng.choice(jobs)
        rank = rng.choice(ranks[job])
        if step < len(_OPEN_KINDS):
            # Opening panels: whole-prefix scans, cycling over sessions.
            kind = _WHOLE_KINDS[
                (session * len(_OPEN_KINDS) + step) % len(_WHOLE_KINDS)
            ]
            series = by_rank[job, rank] if kind in _RANK_KINDS else by_job[job]
            plan.append(Request(
                kind=kind, job=job, rank=rank, t_lo=series[0],
                t_hi=series[-1], module="POSIX", bucket_s=_FIG9_BUCKET_S,
            ))
            continue
        z = session * _ZOOMS + step - len(_OPEN_KINDS)
        kind = _ZOOM_KINDS[z % len(_ZOOM_KINDS)]
        j = z // len(_ZOOM_KINDS)
        k = low + int(j * _GOLDEN % 1.0 * (high - low + 1))
        series = by_rank[job, rank] if kind in _RANK_KINDS else by_job[job]
        lo = rng.randrange(max(len(series) - k, 1))
        t_lo = series[lo]
        t_hi = series[min(lo + k, len(series) - 1)]
        job_modules = sorted(modules[job])
        plan.append(Request(
            kind=kind, job=job, rank=rank, t_lo=t_lo, t_hi=t_hi,
            module=job_modules[j % len(job_modules)],
            bucket_s=max((t_hi - t_lo) / 20.0, 1e-3),
        ))
    return plan


#: Requests per dashboard session: the opening panels, then the zooms.
SESSION = 20

#: Opening panels per session (whole-prefix scans).
_OPEN_KINDS = ("open_job", "open_rank")
_ZOOMS = SESSION - len(_OPEN_KINDS)

#: Whole-prefix panels, as the repo reads them: ``job_*`` scan the job
#: prefix, ``rank_*`` a (job, rank) prefix.
_WHOLE_KINDS = ("job_fig5_module_ops", "job_fig6_node_ops",
                "job_fig7_durations", "job_fig8_timeline", "job_fig9_series",
                "rank_fig7_durations")

#: Zoomed (time-picker) panels.
_ZOOM_KINDS = ("fig5_module_ops", "fig6_node_ops", "fig7_durations",
               "fig8_timeline", "fig9_series")

#: Kinds scanning ``job_rank_time`` under a (job, rank) prefix.
_RANK_KINDS = ("fig5_module_ops", "fig7_durations", "rank_fig7_durations")

#: Rows per zoom window, spread evenly over the range by the
#: golden-ratio sequence (even for any number of requests).
_WINDOW_ROWS = (40, 160)
_GOLDEN = (5 ** 0.5 - 1) / 2

#: Bucket of the whole-job Fig 9 panel (examples/variability_dashboard.py).
_FIG9_BUCKET_S = 10.0


def warm_indices(dsos, job: int) -> None:
    """Materialize every index the panels scan (lazily sorted after
    ingest), so the replay times steady-state requests."""
    for index in ("job_rank_time", "time_job_rank"):
        dsos.query("darshan_data", index, limit=1, **(
            {"prefix": (job,)} if index == "job_rank_time" else {}
        ))


def answer(dsos, req: Request):
    """One panel request: a DSOS query plus its webservices reduction.

    Returns the reduction's result, or ``None`` for an empty panel.
    """
    from repro.webservices import analysis as ws

    if req.kind in _WHOLE_KINDS:
        prefix = (req.job, req.rank) if req.kind in _RANK_KINDS else (req.job,)
        rows = dsos.query("darshan_data", "job_rank_time", prefix=prefix).rows
        if req.kind.startswith("job_fig") and req.kind != "job_fig9_series":
            # Figs 5-8 keep the POSIX rows of query_job's result.
            rows = [r for r in rows if r["module"] == req.module]
        if not rows:
            return None
        return _reduce(ws, req.kind.split("_", 1)[1], ws.rows_to_dataframe(rows), req)
    if req.kind in _RANK_KINDS:
        where = [("module", "==", req.module)] if req.kind == "fig5_module_ops" else []
        rows = dsos.query("darshan_data", "job_rank_time",
                          begin=(req.job, req.rank, req.t_lo),
                          end=(req.job, req.rank, req.t_hi), where=where).rows
    else:
        where = [("job_id", "==", req.job)]
        if req.kind == "fig6_node_ops":
            where.append(("module", "==", req.module))
        elif req.kind == "fig9_series":
            # The series needs at least one data op in the window.
            where.append(("op", "==", "write"))
        rows = dsos.query("darshan_data", "time_job_rank",
                          begin=(req.t_lo,), end=(req.t_hi,), where=where).rows
    if not rows:
        return None
    return _reduce(ws, req.kind, ws.rows_to_dataframe(rows), req)


def _reduce(ws, panel: str, df, req: Request):
    """The ``repro.webservices.analysis`` reduction of one panel."""
    if panel == "fig5_module_ops":
        return ws.op_counts_with_ci(df)
    if panel == "fig6_node_ops":
        return ws.ops_per_node(df)
    if panel == "fig7_durations":
        stats = ws.duration_stats_per_job(df)
        return stats, ws.detect_anomalous_jobs(stats, op="read", factor=5.0)
    if panel == "fig8_timeline":
        tl = ws.timeline(df, req.job)
        return tl, ws.count_write_phases(tl, gap_s=1.0)
    return ws.throughput_series(df, req.job, bucket_s=req.bucket_s)


def answer_digest(result) -> str:
    return _digest([json.dumps(_canonical(result), sort_keys=True)])


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, float):
        return repr(value)
    return value
