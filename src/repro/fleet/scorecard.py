"""Readiness scorecards: one 0–100 HealthScore per cluster, reconciled.

A :class:`HealthScore` is component-weighted: each component (probe
results, alert incidents, the loss ledger, forwarder backlog, store
stalls) contributes an **integer** deduction capped at its weight, and
the weights sum to 100 — so the breakdown reconciles *exactly*:

    Σ component deductions == 100 − score

pinned by ``tests/fleet/test_scorecard.py`` under clean runs and under
the chaos harness.  Integer points make the reconciliation arithmetic
exact by construction; the per-component ``raw`` field keeps the
unclamped input magnitude for operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.signals import Signal

__all__ = [
    "COMPONENT_WEIGHTS",
    "ComponentDeduction",
    "HealthScore",
    "SCORE_METRICS",
    "build_scorecard",
]

#: Component → maximum deduction; the weights sum to exactly 100, so a
#: cluster failing every component scores 0 and a clean one scores 100.
COMPONENT_WEIGHTS = {
    "probes": 30,   # lost probes and stragglers (proactive scan)
    "alerts": 25,   # diagnosis incidents (excluding store_stall)
    "ledger": 25,   # dropped / dead-lettered / spill-parked messages
    "backlog": 10,  # forward outboxes still holding messages
    "store": 10,    # store stalls + replication debt (census)
}
assert sum(COMPONENT_WEIGHTS.values()) == 100

#: The score and its per-component deductions, as signal catalog rows.
SCORE_METRICS = (
    Signal("health_score", "points", "score", __name__,
           "per-cluster readiness score, 0-100, "
           "100 minus the sum of component deductions"),
) + tuple(
    Signal(f"score_deduction_{component}", "points", "score", __name__,
           f"scorecard deduction for the {component} component "
           f"(capped at {weight})")
    for component, weight in COMPONENT_WEIGHTS.items()
)

#: Points per incident by severity (alerts component).
_SEVERITY_POINTS = {"critical": 10, "warning": 5, "info": 2}


@dataclass(frozen=True)
class ComponentDeduction:
    """One component's line of the scorecard breakdown."""

    component: str
    weight: int
    #: Unclamped input magnitude (points before the weight cap).
    raw: int
    #: Final deduction: ``min(raw, weight)`` — what the score loses.
    deduction: int
    detail: str

    def __post_init__(self):
        if not 0 <= self.deduction <= self.weight:
            raise ValueError(
                f"deduction {self.deduction} outside [0, {self.weight}]"
            )


@dataclass(frozen=True)
class HealthScore:
    """One cluster's readiness verdict with its reconciling breakdown."""

    cluster: str
    score: int
    deductions: tuple

    #: Scores at or above this are "ready for work".
    READY_THRESHOLD = 75

    def reconciles(self) -> bool:
        """The scorecard invariant: Σ deductions == 100 − score."""
        return (
            0 <= self.score <= 100
            and sum(d.deduction for d in self.deductions) == 100 - self.score
            and all(0 <= d.deduction <= d.weight for d in self.deductions)
        )

    @property
    def grade(self) -> str:
        if self.score >= 90:
            return "A"
        if self.score >= 75:
            return "B"
        if self.score >= 50:
            return "C"
        if self.score >= 25:
            return "D"
        return "F"

    @property
    def ready(self) -> bool:
        return self.score >= self.READY_THRESHOLD

    def component(self, name: str) -> ComponentDeduction:
        for d in self.deductions:
            if d.component == name:
                return d
        raise KeyError(f"no scorecard component {name!r}")

    def to_dict(self) -> dict:
        return {
            "cluster": self.cluster,
            "score": self.score,
            "grade": self.grade,
            "ready": self.ready,
            "reconciles": self.reconciles(),
            "deductions": [
                {
                    "component": d.component,
                    "weight": d.weight,
                    "raw": d.raw,
                    "deduction": d.deduction,
                    "detail": d.detail,
                }
                for d in self.deductions
            ],
        }

    def to_rows(self) -> list[dict]:
        """Console-table rows for the breakdown."""
        return [
            {
                "component": d.component,
                "deduction": f"-{d.deduction}",
                "cap": d.weight,
                "detail": d.detail,
            }
            for d in self.deductions
        ]


def build_scorecard(cluster: str, *, probe_report, incidents, health,
                    snapshots, slow_pending: int = 0,
                    store_census=None) -> HealthScore:
    """Fold one scanned cluster's surfaces into a :class:`HealthScore`.

    Parameters
    ----------
    probe_report:
        A :class:`~repro.fleet.probe.ProbeReport` (or ``None`` when no
        scanner was armed — the probes component then deducts nothing).
    incidents:
        The diagnosis :class:`~repro.diagnosis.alerts.IncidentLog`.
    health:
        The campaign :class:`~repro.telemetry.report.PipelineHealthReport`.
    snapshots:
        ``fabric.health_snapshots()`` at scan end (backlog component).
    slow_pending:
        Messages still deferred by a slow-store episode at scan end.
    store_census:
        A :class:`~repro.dsos.cluster.StoreCensus` for replicated
        clusters (``None`` on a legacy flat store — the store component
        then bills only stalls and deferrals).
    """
    deductions = []

    # -- probes: lost nodes weigh heavier than stragglers --------------
    if probe_report is not None:
        lost_nodes = probe_report.lost_nodes
        stragglers = probe_report.stragglers
        raw = 10 * len(lost_nodes) + 5 * len(stragglers)
        detail = (
            f"{len(lost_nodes)} node(s) lost probes, "
            f"{len(stragglers)} straggler(s) over {probe_report.sweeps} sweeps"
        )
    else:
        raw, detail = 0, "no probe scanner armed"
    deductions.append(_capped("probes", raw, detail))

    # -- alerts: every incident that fired, store stalls excluded ------
    # (store_stall has its own component; counting it here too would
    # double-bill one fault class.)
    counted = [a for a in incidents if a.rule != "store_stall"]
    raw = sum(_SEVERITY_POINTS.get(a.severity, 2) for a in counted)
    worst = sorted({a.rule for a in counted})
    deductions.append(_capped(
        "alerts", raw,
        f"{len(counted)} incident(s)"
        + (f": {', '.join(worst)}" if worst else ""),
    ))

    # -- ledger: loss percentage plus anything parked or dead ----------
    published = health.published
    lost = health.dropped + health.in_flight_spill
    raw = math.ceil(100.0 * lost / published) if published else 0
    if not health.verify():
        # A ledger that does not even close is a full-weight failure.
        raw = COMPONENT_WEIGHTS["ledger"]
        detail = "loss ledger does not reconcile"
    else:
        detail = (
            f"{health.dropped} dropped + {health.in_flight_spill} spill-parked "
            f"of {published} published"
        )
    deductions.append(_capped("ledger", raw, detail))

    # -- backlog: forward outboxes still holding messages at scan end --
    depth = sum(
        fwd["queue_depth"] for snap in snapshots for fwd in snap["forwards"]
    )
    deductions.append(_capped(
        "backlog", depth, f"Σ forward outbox depth {depth}"
    ))

    # -- store: stalls, deferrals, and replication debt ----------------
    stalls = sum(1 for a in incidents if a.rule == "store_stall")
    raw = 5 * stalls + slow_pending
    detail = f"{stalls} store_stall incident(s), {slow_pending} deferred"
    if store_census is not None:
        # Degraded shards bill per shard; any *lost* object is a
        # full-weight failure — a store that cannot produce an object
        # it acked is not "slightly unhealthy".
        raw += (3 * store_census.under_replicated
                + 2 * len(store_census.degraded_shards))
        if store_census.lost:
            raw = max(raw, COMPONENT_WEIGHTS["store"])
        detail += (
            f"; census: {store_census.lost} lost, "
            f"{store_census.under_replicated} under-replicated, "
            f"{len(store_census.degraded_shards)} degraded shard(s)"
        )
    deductions.append(_capped("store", raw, detail))

    total = sum(d.deduction for d in deductions)
    return HealthScore(
        cluster=cluster, score=100 - total, deductions=tuple(deductions)
    )


def _capped(component: str, raw: int, detail: str) -> ComponentDeduction:
    weight = COMPONENT_WEIGHTS[component]
    return ComponentDeduction(
        component=component, weight=weight, raw=int(raw),
        deduction=min(int(raw), weight), detail=detail,
    )
