"""darshan-runtime: job-scoped instrumentation state.

One :class:`DarshanRuntime` exists per application run (the real library
initializes at ``MPI_Init`` and shuts down at ``MPI_Finalize``).  It

* owns the per-(module, file, rank) counter records and the name table;
* owns the DXT tracer;
* emulates ``clock_gettime`` via :meth:`wtime` — vanilla Darshan stores
  only these job-relative times;
* implements the paper's modification: with
  ``config.absolute_timestamps`` the runtime threads the absolute time
  through every module (the "time struct pointer" of Section IV-A) and
  delivers a run-time :class:`IOEvent` to registered listeners — the
  seam where the Darshan-LDMS connector plugs in.

Listeners are generator-based and run on the application rank's clock,
so whatever time a listener charges (JSON formatting!) directly slows
the application — reproducing the paper's overhead mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.darshan.counters import (
    MODULE_COUNTERS,
    SUPPORTED_MODULES,
    record_id_for,
)
from repro.darshan.dxt import DxtTracer
from repro.darshan.records import DarshanRecord, NameRecord
from repro.fs.base import OpRecord
from repro.fs.posix import IOContext
from repro.records import frozen_record
from repro.sim import Environment

__all__ = ["DarshanConfig", "DarshanRuntime", "IOEvent"]

#: Ops that produce run-time events (Table I: read, write, open, close).
_EVENT_OPS = frozenset({"open", "close", "read", "write"})

#: module -> its RW_SWITCHES counter key, for the per-event read in
#: :meth:`DarshanRuntime.observe` (modules without the counter are
#: absent, so a misuse still raises ``KeyError`` like ``.get`` would).
_RW_SWITCHES_KEY = {
    m: f"{m}_RW_SWITCHES"
    for m in SUPPORTED_MODULES
    if f"{m}_RW_SWITCHES" in MODULE_COUNTERS[m]
}


@dataclass(frozen=True)
class DarshanConfig:
    """Runtime feature switches (the real tool's environment variables)."""

    enable_dxt: bool = True
    #: HEATMAP module: constant-memory time-binned intensity per rank.
    enable_heatmap: bool = True
    #: The paper's modification: expose absolute timestamps to listeners.
    absolute_timestamps: bool = True
    enabled_modules: tuple = SUPPORTED_MODULES
    max_dxt_segments_per_record: int = 1 << 20
    heatmap_bins: int = 128

    def __post_init__(self) -> None:
        unknown = set(self.enabled_modules) - set(SUPPORTED_MODULES)
        if unknown:
            raise ValueError(f"unknown Darshan modules: {sorted(unknown)}")


@frozen_record
class IOEvent:
    """One instrumented I/O event, as seen by run-time listeners.

    ``start``/``end`` are absolute (epoch-like) times when the runtime
    was built with ``absolute_timestamps``; otherwise they are
    job-relative, which is all vanilla Darshan can provide.
    """

    module: str
    op: str
    path: str
    record_id: int
    context: IOContext
    offset: int
    nbytes: int
    start: float
    end: float
    cnt: int
    switches: int
    flushes: int
    max_byte: int
    collective: bool = False
    #: HDF5 metadata (data_set/ndims/npoints/pt_sel/reg_hslab/irreg_hslab)
    #: or None for non-HDF5 modules.
    hdf5: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def timestamp(self) -> float:
        """The paper's headline metric: absolute end time of the op."""
        return self.end


class DarshanRuntime:
    """Instrumentation state for one application run."""

    def __init__(
        self,
        env: Environment,
        *,
        job_id: int,
        uid: int,
        exe: str,
        nprocs: int,
        config: DarshanConfig = DarshanConfig(),
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.env = env
        self.config = config
        self.job_id = job_id
        self.uid = uid
        self.exe = exe
        self.nprocs = nprocs
        self.start_time = env.now
        self.end_time: float | None = None

        self.records: dict[tuple[str, int, int], DarshanRecord] = {}
        self.names: dict[int, NameRecord] = {}
        self.dxt = DxtTracer(config.max_dxt_segments_per_record) if config.enable_dxt else None
        if config.enable_heatmap:
            from repro.darshan.heatmap import Heatmap

            self.heatmap = Heatmap(n_bins=config.heatmap_bins)
        else:
            self.heatmap = None
        self._listeners: list = []
        # Per-(module, rank) op count since last close (Table I "cnt").
        self._op_counts: dict[tuple[str, int], int] = {}
        # Per-(module, record, rank) last data direction, for RW_SWITCHES.
        self._last_rw: dict[tuple[str, int, int], str] = {}
        # Per-(module, record, rank, op) last end offset, for SEQ/CONSEC.
        self._last_extent: dict[tuple[str, int, int, str], int] = {}
        #: Total events observed (all modules, all ranks).
        self.total_events = 0

    # -- clock ------------------------------------------------------------

    def wtime(self) -> float:
        """Job-relative seconds, vanilla Darshan's ``clock_gettime`` use."""
        return self.env.now - self.start_time

    # -- listeners -----------------------------------------------------------

    def add_event_listener(self, listener) -> None:
        """Register a run-time listener (generator ``on_io_event(event)``)."""
        if not hasattr(listener, "on_io_event"):
            raise TypeError(f"listener {listener!r} lacks on_io_event")
        self._listeners.append(listener)

    # -- instrumentation attachment ----------------------------------------------

    def instrument(self, client) -> None:
        """Wrap a POSIX/STDIO/MPIIO/H5 client with Darshan recording."""
        from repro.darshan.modules import ModuleHook

        client.add_hook(ModuleHook(self, client))

    # -- record access ---------------------------------------------------------

    def record_for(self, module: str, path: str, rank: int) -> DarshanRecord:
        rid = record_id_for(path)
        key = (module, rid, rank)
        rec = self.records.get(key)
        if rec is None:
            rec = DarshanRecord(module=module, record_id=rid, rank=rank)
            self.records[key] = rec
            self.names.setdefault(rid, NameRecord(rid, path))
        return rec

    def module_records(self, module: str) -> list[DarshanRecord]:
        return [r for (m, _, _), r in self.records.items() if m == module]

    # -- event plumbing (called by ModuleHook) --------------------------------------

    def observe(
        self,
        module: str,
        context: IOContext,
        op_record: OpRecord,
        darshan_record: DarshanRecord,
        hdf5: dict | None,
    ):
        """Generator: count the op, trace it, and fan out to listeners."""
        self.total_events += 1
        op = op_record.op
        rank = context.rank
        nbytes = op_record.nbytes
        offset = op_record.offset
        start_time = self.start_time
        if self.heatmap is not None and module == "POSIX":
            self.heatmap.record(
                rank,
                op,
                nbytes,
                op_record.start - start_time,
                op_record.end - start_time,
            )
        if self.dxt is not None:
            self.dxt.trace(
                module,
                rank,
                darshan_record.record_id,
                op,
                offset,
                nbytes,
                op_record.start - start_time,
                op_record.end - start_time,
            )
        if op not in _EVENT_OPS or not self._listeners:
            if op == "close":
                self._op_counts[(module, rank)] = 0
            return

        count_key = (module, rank)
        cnt = self._op_counts.get(count_key, 0) + 1
        self._op_counts[count_key] = 0 if op == "close" else cnt

        if op == "read" or op == "write":
            max_byte = offset + nbytes - 1
            switches = (
                darshan_record.counters[_RW_SWITCHES_KEY[module]]
                if module != "LUSTRE" else -1
            )
        else:
            max_byte = -1
            switches = -1
        if module in ("H5F", "H5D"):
            flushes = darshan_record.counters[module + "_FLUSHES"]
        else:
            flushes = -1

        if self.config.absolute_timestamps:
            start, end = op_record.start, op_record.end
        else:
            start = op_record.start - start_time
            end = op_record.end - start_time

        event = IOEvent(
            module=module,
            op=op,
            path=op_record.path,
            record_id=darshan_record.record_id,
            context=context,
            offset=offset,
            nbytes=nbytes,
            start=start,
            end=end,
            cnt=cnt,
            switches=switches,
            flushes=flushes,
            max_byte=max_byte,
            collective=op_record.collective,
            hdf5=hdf5,
        )
        for listener in self._listeners:
            yield from listener.on_io_event(event)

    # -- shutdown -----------------------------------------------------------------

    def finalize(self):
        """End-of-job reduction; returns the in-memory log object."""
        from repro.darshan.logfile import DarshanLog

        self.end_time = self.env.now
        return DarshanLog(
            job_id=self.job_id,
            uid=self.uid,
            exe=self.exe,
            nprocs=self.nprocs,
            start_time=self.start_time,
            end_time=self.end_time,
            records=list(self.records.values()),
            names=dict(self.names),
            dxt_segments=self.dxt.all_segments() if self.dxt else {},
            heatmap=self.heatmap,
        )
