"""File, handle and the abstract file-system queueing model.

A :class:`FileSystem` tracks a namespace of :class:`File` objects (we
simulate sizes and access accounting, not byte contents) and exposes
generator-based operations — ``open``/``read``/``write``/``close``/
``fsync``/``stat``/``unlink`` — that charge simulated time through
subclass-specific service models.  Every completed operation returns an
:class:`OpRecord` carrying the exact fields Darshan's DXT traces record
(start, end, offset, length), which is what the connector later
timestamps and publishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.fs.variability import LoadProcess
from repro.records import frozen_record
from repro.sim import Environment

__all__ = ["File", "FileHandle", "FileSystem", "FileSystemError", "OpRecord"]


class FileSystemError(RuntimeError):
    """Simulated I/O error (missing file, bad handle, ...)."""


@frozen_record
class OpRecord:
    """Timing/extent record of one completed I/O operation.

    Mirrors a Darshan DXT segment: absolute start/end times, byte offset
    and length.  ``op`` is one of ``open/read/write/close/fsync/stat``.
    """

    op: str
    path: str
    offset: int
    nbytes: int
    start: float
    end: float
    #: Set by the MPI-IO layer on two-phase collective operations.
    collective: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class File:
    """Namespace entry.  ``size`` is the highest byte ever written + 1."""

    path: str
    size: int = 0
    create_time: float = 0.0
    #: Aggregate access counters (reads/writes/bytes), for fs-level stats.
    counters: dict = field(
        default_factory=lambda: {
            "opens": 0,
            "closes": 0,
            "reads": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }
    )


class FileHandle:
    """An open file descriptor bound to a node."""

    _fd_counter = itertools.count(3)  # 0-2 are stdio, as tradition demands

    def __init__(self, file: File, node_name: str, flags: str):
        self.fd = next(FileHandle._fd_counter)
        self.file = file
        self.node_name = node_name
        self.flags = flags
        self.position = 0
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FileHandle(fd={self.fd}, path={self.file.path!r})"


class FileSystem:
    """Abstract queueing file system.

    Subclasses implement two hooks:

    * ``_meta_op(op, node_name)`` — generator charging the time of a
      metadata operation (open/close/stat/unlink/fsync-commit);
    * ``_data_op(op, file, offset, nbytes, node_name)`` — generator
      charging the time of a data transfer.

    Both receive the current load factor implicitly via ``self.load``.
    """

    #: Subclass-set human name ("nfs", "lustre").
    name: str = "abstract"

    def __init__(self, env: Environment, load: LoadProcess):
        self.env = env
        self.load = load
        self.files: dict[str, File] = {}
        #: Running totals across all files (conservation-checked in tests).
        self.totals = {"bytes_read": 0, "bytes_written": 0, "ops": 0}

    # -- namespace -------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self.files

    def _lookup(self, path: str, create: bool) -> File:
        f = self.files.get(path)
        if f is None:
            if not create:
                raise FileSystemError(f"[{self.name}] no such file: {path}")
            f = File(path=path, create_time=self.env.now)
            self.files[path] = f
        return f

    # -- operations (generator API) ---------------------------------------

    def open(self, path: str, node_name: str, flags: str = "r"):
        """Open ``path``; creates it when flags contain ``w`` or ``a``."""
        create = any(c in flags for c in "wa")
        start = self.env.now
        file = self._lookup(path, create=create)
        if "w" in flags:
            file.size = 0  # truncate
        yield from self._meta_op("open", node_name)
        file.counters["opens"] += 1
        self.totals["ops"] += 1
        handle = FileHandle(file, node_name, flags)
        record = OpRecord("open", path, 0, 0, start, self.env.now)
        return handle, record

    def close(self, handle: FileHandle):
        self._check(handle)
        start = self.env.now
        yield from self._meta_op("close", handle.node_name)
        handle.closed = True
        handle.file.counters["closes"] += 1
        self.totals["ops"] += 1
        return OpRecord("close", handle.file.path, 0, 0, start, self.env.now)

    def read(self, handle: FileHandle, nbytes: int, offset: int | None = None):
        """Read ``nbytes`` at ``offset`` (or the handle position)."""
        self._check(handle)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        start = self.env.now
        pos = handle.position if offset is None else offset
        # Reads past EOF are truncated, like the syscall.
        avail = max(handle.file.size - pos, 0)
        actual = min(nbytes, avail)
        if actual:
            yield from self._data_op("read", handle.file, pos, actual, handle.node_name)
        else:
            yield from self._meta_op("stat", handle.node_name)
        handle.position = pos + actual
        handle.file.counters["reads"] += 1
        handle.file.counters["bytes_read"] += actual
        self.totals["bytes_read"] += actual
        self.totals["ops"] += 1
        return OpRecord("read", handle.file.path, pos, actual, start, self.env.now)

    def write(self, handle: FileHandle, nbytes: int, offset: int | None = None):
        """Write ``nbytes`` at ``offset`` (or the handle position)."""
        self._check(handle)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        start = self.env.now
        pos = handle.position if offset is None else offset
        if nbytes:
            yield from self._data_op("write", handle.file, pos, nbytes, handle.node_name)
        handle.position = pos + nbytes
        handle.file.size = max(handle.file.size, pos + nbytes)
        handle.file.counters["writes"] += 1
        handle.file.counters["bytes_written"] += nbytes
        self.totals["bytes_written"] += nbytes
        self.totals["ops"] += 1
        return OpRecord("write", handle.file.path, pos, nbytes, start, self.env.now)

    def fsync(self, handle: FileHandle):
        self._check(handle)
        start = self.env.now
        yield from self._meta_op("fsync", handle.node_name)
        self.totals["ops"] += 1
        return OpRecord("fsync", handle.file.path, 0, 0, start, self.env.now)

    def stat(self, path: str, node_name: str):
        start = self.env.now
        file = self._lookup(path, create=False)
        yield from self._meta_op("stat", node_name)
        self.totals["ops"] += 1
        return file.size, OpRecord("stat", path, 0, 0, start, self.env.now)

    def unlink(self, path: str, node_name: str):
        start = self.env.now
        self._lookup(path, create=False)
        yield from self._meta_op("unlink", node_name)
        del self.files[path]
        self.totals["ops"] += 1
        return OpRecord("unlink", path, 0, 0, start, self.env.now)

    # -- subclass hooks ----------------------------------------------------

    def _meta_op(self, op: str, node_name: str):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def _data_op(
        self, op: str, file: File, offset: int, nbytes: int, node_name: str
    ):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # noqa: unreachable

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check(handle: FileHandle) -> None:
        if handle.closed:
            raise FileSystemError(f"operation on closed handle {handle!r}")
