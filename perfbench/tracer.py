"""Outside-in layer tracer: host time per layer, from the benchmark side.

The program is not edited.  While a :class:`Tracer` is installed, the
public entry points named in :data:`LAYERS` are replaced on their
classes (or modules) by timing wrappers, and put back by
:meth:`Tracer.uninstall`.  Worlds built while the tracer is installed
capture the wrappers in their bound-method callbacks, so install before
building a world and uninstall after the last call into it.

Spans nest on one stack.  A span's *self* time is its duration minus the
durations of the spans opened inside it, so the layers' self times never
overlap.  Measurements are taken over *windows* (:meth:`Tracer.begin`,
:meth:`Tracer.end`) that enclose whole spans.  Inside a window the
tracer separately adds up the *residual*: the time during which no span
is open.  Attribution is exact when ``Σ self + residual == wall`` for
the window; a span whose time is lost or counted twice breaks the
equality.  Generator entry points (file-system, POSIX, MPI-IO, hook
and Darshan ops are DES generators) are timed once per resume through a
transparent ``send``/``throw``/``close`` proxy, never across a ``yield``
— a suspended op waits in simulated time, not host time.

``calls`` counts invocations of a layer's entry points (a generator op
counts once, however often it resumes).  A target that no longer exists
is recorded in :attr:`Tracer.absent` and its layer simply reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

__all__ = ["LAYERS", "COUNTERS", "Tracer", "Window"]

_clock = time.perf_counter

#: layer -> entry points, as ``(module, class or None, attribute)``.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "sim.engine": [("repro.sim.engine", "Environment", "run")],
    "fs": (
        [("repro.fs.posix", "PosixClient", m)
         for m in ("open", "read", "write", "close", "fsync", "stat")]
        + [("repro.fs.posix", "StdioClient", m)
           for m in ("fopen", "fread", "fwrite", "fflush", "fclose")]
        + [("repro.fs.base", "FileSystem", m)
           for m in ("open", "close", "read", "write", "fsync", "stat",
                     "unlink")]
        + [("repro.mpi.io", "MPIIOFile", m)
           for m in ("write_at", "read_at", "write_at_all", "read_at_all")]
    ),
    "darshan": [
        ("repro.darshan.modules", "ModuleHook", "after_op"),
        ("repro.darshan.runtime", "DarshanRuntime", "observe"),
    ],
    "core.format": [
        ("repro.core.json_format", "MessageBuilder", "format"),
        ("repro.core.json_format", "MessageBuilder", "format_columnar"),
    ],
    "core.connector": [
        ("repro.core.connector", "DarshanLdmsConnector", "on_io_event"),
    ],
    "core.batch": [
        ("repro.core.batch", "ColumnarSpine", m)
        for m in ("append", "advance", "drain_all")
    ],
    "ldms.streams": [
        ("repro.ldms.streams", "StreamsBus", "publish"),
        ("repro.ldms.streams", "StreamsBus", "publish_batch"),
    ],
    "ldms.daemon": (
        [("repro.ldms.daemon", "Ldmsd", m)
         for m in ("publish", "publish_prepaid", "publish_prepaid_message",
                   "publish_now", "receive", "receive_batch")]
        + [("repro.ldms.daemon", "_Forwarder", "enqueue")]
    ),
    "dsos.ingest": (
        [("repro.dsos.store_plugin", "DsosStreamStore", "on_message")]
        + [("repro.dsos.cluster", "DsosCluster", m)
           for m in ("insert", "insert_many", "insert_replicated")]
    ),
    "dsos.journal": [
        ("repro.dsos.journal", "IngestJournal", "admit"),
        ("repro.dsos.journal", "IngestJournal", "admit_at"),
        ("repro.dsos.journal", "StoreWal", "append"),
    ],
    "dsos.query": [("repro.dsos.query", "Query", "execute")],
    "webservices": [
        ("repro.webservices.analysis", None, f)
        for f in ("rows_to_dataframe", "op_counts_with_ci", "ops_per_node",
                  "duration_stats_per_job", "detect_anomalous_jobs",
                  "timeline", "count_write_phases", "throughput_series")
    ],
    "telemetry": [
        ("repro.telemetry.collector", "TraceCollector", m)
        for m in ("begin", "hop", "open_hop", "close_hop", "hop_batch",
                  "close_hop_batch", "gauge")
    ],
    "diagnosis": [("repro.diagnosis.engine", "DiagnosisEngine", "tick")],
    "flightrec": [
        ("repro.telemetry.flightrec", "FlightRecorder", m)
        for m in ("tick", "_on_alert", "_on_diagnosis_tick", "_on_stored",
                  "_on_recovery", "_on_fault")
    ],
}


def _one(args, kwargs, result) -> int:
    return 1


def _batch_len(args, kwargs, result) -> int:
    return len(args[1] if len(args) > 1 else kwargs["messages"])


def _returned(args, kwargs, result) -> int:
    return result


def _query_rows(args, kwargs, result) -> tuple[int, int]:
    return result.stats.rows_returned, result.stats.rows_scanned


#: Ratio counters taken at the entry points: counter name ->
#: ``{(class, attribute): fn(args, kwargs, result)}``.  ``fn`` returns
#: the items one *outermost* call carried (a call nested inside another
#: call of the same counter is not counted twice), or a
#: ``(numerator, denominator)`` pair summed across calls.
COUNTERS = {
    "ldms.daemon.msgs_per_delivery": {
        ("Ldmsd", "receive"): _one,
        ("Ldmsd", "receive_batch"): _batch_len,
    },
    "dsos.ingest.rows_per_insert": {
        ("DsosCluster", "insert"): _one,
        ("DsosCluster", "insert_many"): _returned,
        ("DsosCluster", "insert_replicated"): _one,
    },
    "dsos.query.rows_returned_per_scanned": {
        ("Query", "execute"): _query_rows,
    },
}


class _Layer:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class _Counter:
    __slots__ = ("num", "den", "depth")

    def __init__(self):
        self.num = 0
        self.den = 0
        self.depth = 0


@dataclass
class Window:
    """One measured window: its wall seconds, the residual (seconds with
    no span open) and each layer's self seconds inside it."""

    wall_s: float
    residual_s: float
    self_s: dict


class _GenSpan:
    """Transparent generator proxy timing each resume as one span."""

    __slots__ = ("_gen", "_layer", "_stack", "_idle")

    def __init__(self, gen, layer: _Layer, stack: list, idle: list):
        self._gen = gen
        self._layer = layer
        self._stack = stack
        self._idle = idle

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        # Same span bookkeeping as Tracer._wrap's wrapper.
        stack = self._stack
        t = _clock()
        if not stack:
            idle = self._idle
            idle[0] += t - idle[1]
        frame = [t, 0.0]
        stack.append(frame)
        try:
            return method(*args)
        finally:
            stack.pop()
            t = _clock()
            d = t - frame[0]
            self._layer.self_s += d - frame[1]
            if stack:
                stack[-1][1] += d
            else:
                self._idle[1] = t

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        return self._resume(self._gen.close)

    def __getattr__(self, name):
        # Process names, gi_frame and the like read through.
        return getattr(self._gen, name)


class Tracer:
    """Install timing wrappers on every entry point in :data:`LAYERS`."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.counters = {name: _Counter() for name in COUNTERS}
        #: ``module:Class.attr`` targets that could not be resolved.
        self.absent: list[str] = []
        #: Open spans: ``[t_start, child_seconds]`` per frame.
        self._stack: list = []
        #: ``[residual seconds so far, time the stack last emptied]``.
        self._idle: list = [0.0, 0.0]
        #: Window start and each layer's self seconds at that moment.
        self._window: tuple[float, dict] | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for layer_name, targets in LAYERS.items():
            layer = self.layers[layer_name]
            for module_name, class_name, attr in targets:
                label = f"{module_name}:{class_name or ''}.{attr}"
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                except (ImportError, AttributeError):
                    self.absent.append(label)
                    continue
                original = (
                    owner.__dict__.get(attr)
                    if isinstance(owner, type) else getattr(owner, attr, None)
                )
                if not inspect.isfunction(original):
                    self.absent.append(label)
                    continue
                counter = self._counter_for(class_name, attr)
                setattr(owner, attr, self._wrap(original, layer, counter))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _counter_for(self, class_name, attr):
        for name, spec in COUNTERS.items():
            fn = spec.get((class_name, attr))
            if fn is not None:
                return self.counters[name], fn
        return None

    def _wrap(self, fn, layer: _Layer, counter):
        stack = self._stack
        idle = self._idle
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                layer.calls += 1
                return _GenSpan(fn(*args, **kwargs), layer, stack, idle)

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            layer.calls += 1
            t = _clock()
            if not stack:
                # An outermost span opens: the gap since the stack last
                # emptied is residual.
                idle[0] += t - idle[1]
            frame = [t, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                t = _clock()
                d = t - frame[0]
                layer.self_s += d - frame[1]
                if stack:
                    stack[-1][1] += d
                else:
                    idle[1] = t

        if counter is None:
            return functools.wraps(fn)(wrapper)

        acc, count = counter

        def counted(*args, **kwargs):
            acc.depth += 1
            try:
                result = wrapper(*args, **kwargs)
            finally:
                acc.depth -= 1
            if acc.depth == 0:
                n = count(args, kwargs, result)
                if isinstance(n, tuple):
                    acc.num += n[0]
                    acc.den += n[1]
                else:
                    acc.num += n
                    acc.den += 1
            return result

        return functools.wraps(fn)(counted)

    def reset(self) -> None:
        """Zero every layer and counter (spans must all be closed)."""
        for layer in self.layers.values():
            layer.calls = 0
            layer.self_s = 0.0
        for counter in self.counters.values():
            counter.num = counter.den = 0

    def begin(self, t: float) -> None:
        """Open a window at clock time ``t`` (no span may be open)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans open at window start")
        self._idle[:] = [0.0, t]
        self._window = (t, {n: l.self_s for n, l in self.layers.items()})

    def end(self, t: float) -> Window:
        """Close the window opened by :meth:`begin` at clock time ``t``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans open at window end")
        t0, mark = self._window
        self._window = None
        return Window(
            wall_s=t - t0,
            residual_s=self._idle[0] + (t - self._idle[1]),
            self_s={n: l.self_s - mark[n] for n, l in self.layers.items()},
        )
