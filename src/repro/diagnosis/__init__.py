"""repro.diagnosis: live runtime diagnosis of the monitoring pipeline.

The paper's claim is *run-time* diagnosis; this package delivers it for
the reproduction's own pipeline.  A :class:`DiagnosisEngine` runs as a
periodic process **inside simulated time**, evaluating declarative
:class:`~repro.diagnosis.rules.Rule`\\ s (rank imbalance, throughput
collapse vs a trailing baseline, latency-SLO breach, spill/dead-letter
growth, store stalls, queue backlogs) over sliding windows fed by a
live tail on DSOS ingest and the existing telemetry surfaces.  Alerts
move ``pending → firing → resolved`` with ``for_duration`` hysteresis
and land in an :class:`~repro.diagnosis.alerts.IncidentLog`; when a
fault plan is armed, :mod:`~repro.diagnosis.scoring` correlates the
incidents against the injector's ``AppliedFault`` ground truth —
per-fault detection latency, precision and recall.

Like telemetry, the whole subsystem is opt-in and observation-only:
its evaluation ticks are *weak* simulation events and its sampling is
read-only, so a seeded campaign is byte-identical with the engine
armed or absent (pinned by the property suite).
"""

from repro.diagnosis.alerts import FIRING, PENDING, RESOLVED, Alert, IncidentLog
from repro.diagnosis.engine import DiagnosisConfig, DiagnosisEngine, WindowView
from repro.diagnosis.explain import (
    CLASSIFIERS,
    EXPLAIN_METRICS,
    STRATEGY_WEIGHTS,
    VERDICT_CLASSES,
    BottleneckVerdict,
    ExplainReport,
    ExplainScore,
    Recommendation,
    check_explain,
    explain_campaign,
    explain_gauges,
    explain_job,
    explain_plan,
    score_verdicts,
)
from repro.diagnosis.features import FeatureVector, job_features
from repro.diagnosis.forensics import (
    BundleDiff,
    CaptureResult,
    bundle_timeline,
    capture_campaign,
    check_forensics,
    diff_bundles,
    match_bundles,
    timeline_panel,
)
from repro.diagnosis.rules import Rule, RuleEval, default_rules
from repro.diagnosis.scoring import (
    DETECTORS,
    DiagnosisScore,
    FaultWindow,
    fault_windows,
    score_incidents,
)
from repro.diagnosis.signals import (
    Signal,
    SignalCatalog,
    default_catalog,
    rule_signals,
)
from repro.diagnosis.tail import IngestTail
from repro.diagnosis.windows import SeriesWindow

__all__ = [
    "Alert",
    "BottleneckVerdict",
    "BundleDiff",
    "CLASSIFIERS",
    "CaptureResult",
    "DETECTORS",
    "DiagnosisConfig",
    "DiagnosisEngine",
    "DiagnosisScore",
    "EXPLAIN_METRICS",
    "ExplainReport",
    "ExplainScore",
    "FIRING",
    "FaultWindow",
    "FeatureVector",
    "IncidentLog",
    "IngestTail",
    "PENDING",
    "RESOLVED",
    "Recommendation",
    "Rule",
    "RuleEval",
    "STRATEGY_WEIGHTS",
    "SeriesWindow",
    "Signal",
    "SignalCatalog",
    "VERDICT_CLASSES",
    "WindowView",
    "bundle_timeline",
    "capture_campaign",
    "check_explain",
    "check_forensics",
    "default_catalog",
    "default_rules",
    "diff_bundles",
    "explain_campaign",
    "explain_gauges",
    "explain_job",
    "explain_plan",
    "fault_windows",
    "job_features",
    "match_bundles",
    "rule_signals",
    "score_incidents",
    "score_verdicts",
    "timeline_panel",
]
