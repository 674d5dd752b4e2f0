"""One contract for every ``--check`` gate: result, registry, runner.

A *gate* is a named invariant over a seeded campaign: the loss ledger
closes, every fault class is detected, every critical path is exact,
the lane speedups hold.  Every gate returns a :class:`Check`, and
:func:`emit` is the one place that decides what reaches stdout and
stderr and which exit code results:

* ``--json``: stdout is exactly the payload, sorted with a 2-space
  indent (byte-stable); verdict lines go to stderr;
* text: the report, then the verdict lines, both on stdout, unless
  the report is itself a machine-readable document (the OpenMetrics
  exposition), in which case the verdict lines go to stderr;
* exit 0 when the gate holds, 1 when it is broken; a
  :class:`UsageError` (unknown identifier, a flag the chosen mode does
  not read) exits 2.

:data:`GATES` registers every gate with the seed, lanes and options CI
runs it at; ``repro check [NAME ...]`` runs them through
:func:`run_gates`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from dataclasses import dataclass

__all__ = [
    "CHECK_LANES",
    "Check",
    "GATES",
    "Gate",
    "LANES",
    "UsageError",
    "call",
    "emit",
    "lane_flags",
    "resolve",
    "run_gates",
    "verdict",
]

#: Lane name -> the ``fast_lane`` switch of a world/connector.
LANES = {"slow": False, "fast": True}

#: The lanes the multi-lane gates (explain, forensics) verify when no
#: lane is named: the per-message reference path and the fast lane,
#: whose spine must refuse to arm under their observers and fall back
#: bit-identically.
CHECK_LANES = ("slow", "fast")


def lane_flags(lane: str | None) -> bool:
    """``fast_lane`` for ``lane``; ``None`` is the fast lane."""
    return LANES[lane or "fast"]


@dataclass
class Check:
    """One gate's result: the verdict plus what the command reports.

    ``payload`` is the ``--json`` document (``None``: the gate has no
    JSON form), ``text`` the human report (or a callable rendering it,
    called only in text mode), ``lines`` the verdict lines
    (``FAIL: ...`` / ``OK: ...``), printed only when a verdict was asked
    for.  ``document`` marks a ``text`` that is machine-readable itself.
    """

    name: str
    ok: bool
    lines: list[str]
    payload: object = None
    text: object = ""
    document: bool = False


class UsageError(Exception):
    """The gate cannot run as asked: exit 2, message on stderr (or on
    stdout with ``stdout=True``, where a command always printed it)."""

    def __init__(self, message: str, *, stdout: bool = False):
        super().__init__(message)
        self.stdout = stdout


def resolve(target: str):
    """The function a ``"module:function"`` target names, imported only
    now, so building the CLI or the registry imports no campaign code."""
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def verdict(ok_line: str, *checks, lane: str | None = None):
    """``(ok, lines)`` over ``(broken, message)`` pairs: one ``FAIL:``
    line per broken pair, else the one ``OK:`` line (``FAIL[lane]:`` /
    ``OK[lane]:`` when a lane is named)."""
    tag = "" if lane is None else f"[{lane}]"
    lines = [f"FAIL{tag}: {message}" for broken, message in checks if broken]
    return not lines, lines or [f"OK{tag}: {ok_line}"]


def call(gate, *, check: bool = False, **kwargs) -> Check:
    """Run ``gate(**kwargs)``, handing ``check`` to gates whose verdict
    costs extra campaigns and is therefore computed only on request."""
    if "check" in inspect.signature(gate).parameters:
        kwargs["check"] = check
    return gate(**kwargs)


def emit(check: Check, *, as_json: bool = False,
         checked: bool = True) -> None:
    """Print ``check`` under the stdout/stderr rule; exit 1 if it failed.

    ``checked=False`` prints the report only (no ``--check`` given).
    """
    if as_json:
        if check.payload is None:
            raise UsageError(f"repro {check.name}: this mode has no --json form")
        print(json.dumps(check.payload, indent=2, sort_keys=True))
    else:
        text = check.text() if callable(check.text) else check.text
        if text:
            print(text, end="" if text.endswith("\n") else "\n")
    if not checked:
        return
    out = sys.stderr if as_json or check.document else sys.stdout
    for line in check.lines:
        print(line, file=out)
    if not check.ok:
        raise SystemExit(1)


@dataclass(frozen=True)
class Gate:
    """A registered gate: its function, the lanes and seed it runs at,
    and any further keyword options, as CI invokes it."""

    name: str
    target: str  # "module:function"
    lanes: tuple = (None,)
    seed: int | None = 42
    options: tuple = ()  # ((keyword, value), ...)

    def run(self, lane: str | None) -> Check:
        kwargs = dict(self.options)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if lane is not None:
            kwargs["lane"] = lane
        return call(resolve(self.target), check=True, **kwargs)

    def label(self, lane: str | None) -> str:
        """``name[lane]``, or just ``name`` for a gate without lanes."""
        return self.name if lane is None else f"{self.name}[{lane}]"


_G = "repro.experiments.gates:"

#: Every gate, in run order.  ``bench`` runs first so its per-lane peak
#: RSS is measured on a fresh process, as when it runs alone.
GATES = (
    Gate("bench", _G + "bench", options=(("quick", True),)),
    Gate("telemetry", _G + "telemetry"),
    Gate("chaos", _G + "chaos", lanes=("fast", "slow"), seed=3,
         options=(("seeds", 3),)),
    Gate("store", _G + "store", lanes=CHECK_LANES,
         options=(("mode", "drill"),)),
    Gate("diagnose", _G + "diagnose", lanes=("fast", "slow")),
    Gate("profile", _G + "profile"),
    Gate("trace", _G + "trace", lanes=("fast", "slow"),
         options=(("slowest", 5),)),
    Gate("fleet-scan", _G + "fleet", lanes=("fast", "slow"), seed=None,
         options=(("mode", "scan"),)),
    Gate("fleet-catalog", _G + "fleet", seed=None,
         options=(("mode", "catalog"),)),
    Gate("fleet-export", _G + "fleet", seed=None,
         options=(("mode", "export"),)),
    Gate("forensics", _G + "forensics", lanes=CHECK_LANES),
    Gate("explain", _G + "explain", lanes=CHECK_LANES),
)


def run_gates(names=()) -> Check:
    """Run the named gates (all of them when ``names`` is empty).

    Every lane of every gate runs, even after a failure.  The verdict
    lines are each run's header and lines, then a summary; the payload
    lists every run.
    """
    runs, lines, failed = [], [], []
    for gate in GATES:
        if names and gate.name not in names:
            continue
        for lane in gate.lanes:
            result = gate.run(lane)
            runs.append({"gate": gate.name, "lane": lane, "seed": gate.seed,
                         "ok": result.ok, "lines": result.lines})
            lines += [f"== {gate.label(lane)} ==", *result.lines]
            if not result.ok:
                failed.append(gate.label(lane))
    if failed:
        lines.append(f"FAIL: {len(failed)} of {len(runs)} gate run(s) "
                     f"failed: " + ", ".join(failed))
    else:
        lines.append(f"OK: {len(runs)} gate run(s) passed")
    return Check("check", not failed, lines,
                 payload={"ok": not failed, "runs": runs})
