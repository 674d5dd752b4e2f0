"""The :class:`Signal` row: one declared metric, alert, histogram or score.

Every emitting module declares its signals as a tuple of these rows
next to the code that emits them — ``SAMPLED_SERIES`` in the diagnosis
engine, ``HOP_METRICS`` in the trace collector, and so on — and the signal catalog
(:mod:`repro.diagnosis.signals`) is just their concatenation.  This
module imports nothing from the rest of the package, so the lowest
layers can declare rows without pulling in the diagnosis stack.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KINDS", "Signal"]

#: Valid signal kinds (OpenMetrics-ish; "alert" and "score" are ours).
KINDS = ("counter", "gauge", "histogram", "alert", "score")


@dataclass(frozen=True)
class Signal:
    """One declared emission site."""

    name: str
    unit: str
    kind: str
    #: Dotted module path of the site that emits it.
    source: str
    description: str
    #: Name of the diagnosis rule this signal feeds, if any.
    rule: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not self.name:
            raise ValueError("signal name must be non-empty")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "kind": self.kind,
            "source": self.source,
            "description": self.description,
            "rule": self.rule,
        }
