"""Declarative diagnosis rules.

A :class:`Rule` is pure data plus a pure evaluation function: every
tick the engine hands it a :class:`~repro.diagnosis.engine.WindowView`
(sliding windows over the live surfaces) and the rule answers with a
:class:`RuleEval` — is the condition holding, at what value, against
what threshold.  Rules never touch the world, never draw randomness and
never schedule anything; the engine owns the alert lifecycle.

:func:`default_rules` builds the standard rule set from a
:class:`~repro.diagnosis.engine.DiagnosisConfig` — the LASSi-style
metric rules the ISSUE names: daemon down, end-to-end latency SLO,
throughput collapse vs a trailing baseline, store stall / ingest
backlog, forwarder queue backlog, rank I/O imbalance, spill growth,
retry growth and dead-letter growth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.signals import Signal

__all__ = ["ALERT_METRICS", "Rule", "RuleEval", "default_rules"]

#: Severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class RuleEval:
    """One tick's verdict for one rule."""

    active: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class Rule:
    """A named, windowed condition with firing hysteresis."""

    name: str
    severity: str
    description: str
    #: The condition must hold this long before the alert fires.
    for_duration_s: float
    #: ``evaluate(view) -> RuleEval`` — pure, observation-only.
    evaluate: object

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        if self.for_duration_s < 0:
            raise ValueError("for_duration_s must be >= 0")
        if not callable(self.evaluate):
            raise TypeError("evaluate must be callable")


# -- the standard rule set -------------------------------------------------


def _daemon_down(view) -> RuleEval:
    n = view.series("daemons_failed").latest
    return RuleEval(n > 0, n, 0, f"{n:.0f} daemon(s) down")


def _latency_slo(slo_s: float, min_count: int):
    def evaluate(view) -> RuleEval:
        count = view.series("e2e_count").delta(view.window_s)
        total = view.series("e2e_total_s").delta(view.window_s)
        if count < min_count:
            return RuleEval(False, 0.0, slo_s, "too few stored messages")
        mean = total / count
        detail = f"window mean e2e {mean:.4f}s over {count:.0f} msgs"
        exemplar = view.slowest_trace()
        if exemplar is not None:
            worst_s, trace_id = exemplar
            detail += f"; worst {worst_s:.4f}s trace {trace_id}"
        return RuleEval(mean > slo_s, mean, slo_s, detail)

    return evaluate


def _throughput_collapse(collapse_frac: float, baseline_windows: int,
                         min_baseline_rate: float):
    def evaluate(view) -> RuleEval:
        stored = view.series("stored_total")
        baseline = stored.baseline_rate(view.window_s, baseline_windows)
        if baseline < min_baseline_rate:
            return RuleEval(False, 0.0, collapse_frac, "no baseline yet")
        current = stored.rate(view.window_s)
        backlog = view.series("ingest_backlog").latest
        ratio = current / baseline
        # A quiesced pipeline (job over, nothing owed) is not a
        # collapse: only alert while messages are known to be stuck.
        active = ratio < collapse_frac and backlog > 0
        return RuleEval(
            active, ratio, collapse_frac,
            f"stored rate {current:.1f}/s vs baseline {baseline:.1f}/s, "
            f"backlog {backlog:.0f}",
        )

    return evaluate


def _store_stall(view) -> RuleEval:
    pending = view.series("slow_pending").latest
    return RuleEval(
        pending > 0, pending, 0, f"{pending:.0f} messages deferred by store"
    )


def _queue_backlog(depth_threshold: int):
    def evaluate(view) -> RuleEval:
        depth = view.series("forward_queue_depth").latest
        return RuleEval(
            depth > depth_threshold, depth, depth_threshold,
            f"Σ forward outbox depth {depth:.0f}",
        )

    return evaluate


def _rank_imbalance(ratio_threshold: float, min_events: int):
    def evaluate(view) -> RuleEval:
        counts = view.rank_window_counts()
        total = sum(counts.values())
        if len(counts) < 2 or total < min_events:
            return RuleEval(False, 1.0, ratio_threshold, "too few events")
        mean = total / len(counts)
        worst_rank, worst = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        ratio = worst / mean
        return RuleEval(
            ratio > ratio_threshold, ratio, ratio_threshold,
            f"rank {worst_rank}: {worst} of {total} stored events "
            f"(x{ratio:.1f} the mean)",
        )

    return evaluate


def _spill_growth(view) -> RuleEval:
    parked = view.series("spill_parked").latest
    return RuleEval(
        parked > 0, parked, 0, f"{parked:.0f} events parked in spill buffers"
    )


def _retry_growth(view) -> RuleEval:
    retries = view.series("retries_total").delta(view.window_s)
    return RuleEval(
        retries > 0, retries, 0, f"{retries:.0f} forward retries in window"
    )


def _under_replication(view) -> RuleEval:
    down = view.series("store_replicas_down").latest
    under = view.series("store_under_replicated").latest
    return RuleEval(
        down + under > 0, down + under, 0,
        f"{down:.0f} replica(s) down, {under:.0f} object(s) below quorum copies",
    )


def _replica_lag(lag_threshold: int):
    def evaluate(view) -> RuleEval:
        lag = view.series("store_replica_lag").latest
        return RuleEval(
            lag > lag_threshold, lag, lag_threshold,
            f"worst live-replica gap {lag:.0f} objects",
        )

    return evaluate


def _shard_skew(skew_threshold: int):
    def evaluate(view) -> RuleEval:
        skew = view.series("store_shard_skew").latest
        return RuleEval(
            skew > skew_threshold, skew, skew_threshold,
            f"fullest vs emptiest shard differ by {skew:.0f} objects",
        )

    return evaluate


def _deadletter_growth(view) -> RuleEval:
    dead = view.series("dead_letters_total").delta(view.window_s)
    return RuleEval(
        dead > 0, dead, 0, f"{dead:.0f} messages dead-lettered in window"
    )


#: The standard rule set, as ``(name, severity, description, bind)``:
#: ``bind(config)`` returns the rule's ``evaluate`` with a
#: ``DiagnosisConfig``'s thresholds baked in.
_STANDARD = (
    ("daemon_down", "critical", "a fabric daemon reports failed",
     lambda c: _daemon_down),
    ("latency_slo", "warning",
     "windowed mean end-to-end latency breaches the SLO",
     lambda c: _latency_slo(c.latency_slo_s, c.slo_min_count)),
    ("throughput_collapse", "warning",
     "stored rate collapsed vs the trailing baseline with a backlog",
     lambda c: _throughput_collapse(c.collapse_frac, c.baseline_windows,
                                    c.min_baseline_rate)),
    ("store_stall", "critical",
     "DSOS ingest is deferring messages (slow-store episode)",
     lambda c: _store_stall),
    ("queue_backlog", "warning", "forwarder outboxes are backing up",
     lambda c: _queue_backlog(c.queue_depth_threshold)),
    ("rank_imbalance", "info",
     "one rank dominates the stored I/O event stream",
     lambda c: _rank_imbalance(c.imbalance_ratio, c.imbalance_min_events)),
    ("spill_growth", "warning",
     "connector spill buffers hold unreplayed events",
     lambda c: _spill_growth),
    ("retry_growth", "warning", "forwarders are retrying sends",
     lambda c: _retry_growth),
    ("deadletter_growth", "critical", "messages are being dead-lettered",
     lambda c: _deadletter_growth),
    ("under_replication", "critical",
     "a dsosd replica is down or objects sit below quorum copies",
     lambda c: _under_replication),
    ("replica_lag", "warning",
     "live replicas of one shard have diverged (repair owed)",
     lambda c: _replica_lag(c.replica_lag_threshold)),
    ("shard_skew", "info",
     "object placement across shards is badly imbalanced",
     lambda c: _shard_skew(c.shard_skew_threshold)),
)


def default_rules(config) -> tuple:
    """The standard set, thresholds from a ``DiagnosisConfig``."""
    return tuple(
        Rule(name, severity, description, config.for_duration_s, bind(config))
        for name, severity, description, bind in _STANDARD
    )


#: One alert signal per standard rule (its state as a catalog row).
ALERT_METRICS = tuple(
    Signal(f"alert_{name}", "state", "alert", __name__,
           f"{severity}: {description}", rule=name)
    for name, severity, description, _ in _STANDARD
)
