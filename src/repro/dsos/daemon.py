"""dsosd: one storage daemon holding object shards.

Each daemon stores a shard of every schema's objects together with the
schema's indices over *its* shard.  Cluster-level queries fan out to
daemons and merge; the per-daemon work (rows scanned in index order) is
what the latency model charges.

Replicated clusters run daemons in **WAL mode**: every applied object
carries a cluster-assigned per-shard sequence number, is logged to a
checksummed :class:`~repro.dsos.journal.StoreWal` before it becomes
visible, and is tracked in an applied-set so peers can compute the
set difference for anti-entropy repair.  A crash (:meth:`fail`) wipes
all in-memory state — objects, indices, applied-set — but the WAL
bytes survive (host-side durable, minus an optional torn tail);
:meth:`recover` replays the longest clean WAL prefix and the cluster's
repair pass pulls whatever the tail lost from peer replicas.

Legacy daemons (WAL off) skip all of it: no sequence bookkeeping, no
log appends, byte-identical to the pre-replication store.
"""

from __future__ import annotations

from repro.dsos.index import SortedIndex
from repro.dsos.journal import StoreWal, WalRecord, WalRecovery
from repro.dsos.schema import Schema, SchemaError

__all__ = ["Dsosd", "StoreDownError", "write_unit"]

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class StoreDownError(RuntimeError):
    """An operation reached a crashed daemon (or a replica-less shard)."""


def write_unit(schema: Schema, seq: int, obj: dict,
               trace_id: str = "") -> tuple[bytes, tuple]:
    """One object's replicated write, built once for every replica: its
    WAL frame and its key under each of the schema's indices."""
    frame = WalRecord.frame(seq, schema.name, schema.encode(obj), trace_id)
    return frame, schema.index_keys(obj)


class _Shard:
    """One schema's objects + indices on one daemon."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.objects: list[dict] = []
        self.indices = {
            name: SortedIndex(name, attrs)
            for name, attrs in schema.indices.items()
        }
        #: Indices in ``schema.indices`` order, the order of
        #: ``schema.index_keys``.
        self._index_list = tuple(self.indices.values())

    def add(self, obj: dict, keys: tuple | None = None) -> int:
        """Append one object; ``keys`` (one per index, from
        ``schema.index_keys``) when the caller already built them."""
        oid = len(self.objects)
        self.objects.append(obj)
        if keys is None:
            keys = self.schema.index_keys(obj)
        for index, key in zip(self._index_list, keys):
            index.add(key, oid)
        return oid

    def add_many(self, objs: list) -> None:
        """Append a batch: one index pass per index, not per object."""
        base = len(self.objects)
        self.objects.extend(objs)
        getters = self.schema.key_getters
        for name, index in self.indices.items():
            key = getters[name]
            index.extend_unchecked(
                [(key(obj), base + i) for i, obj in enumerate(objs)]
            )


class Dsosd:
    """One DSOS storage daemon."""

    def __init__(self, name: str, *, wal_enabled: bool = False):
        self.name = name
        self._shards: dict[str, _Shard] = {}
        #: Ingest accounting (objects currently applied; a crash resets
        #: it and recovery/repair re-earn it).
        self.objects_stored = 0
        self.alive = True
        #: Which replica group this daemon serves (set by the cluster).
        self.shard_id = 0
        self.wal_enabled = wal_enabled
        self.wal = StoreWal() if wal_enabled else None
        #: Sequence numbers applied on this daemon (WAL mode only).
        self.applied: set[int] = set()
        #: seq -> (schema_name, obj, trace_id); the repair-pull source.
        self._by_seq: dict[int, tuple] = {}
        # Resilience accounting.
        self.crashes = 0
        self.wal_replayed = 0
        self.wal_truncated_bytes = 0
        self.repair_pulled = 0

    def attach_schema(self, schema: Schema) -> None:
        if schema.name in self._shards:
            raise SchemaError(f"schema {schema.name!r} already attached to {self.name}")
        self._shards[schema.name] = _Shard(schema)

    def has_schema(self, schema_name: str) -> bool:
        return schema_name in self._shards

    def _shard(self, schema_name: str) -> _Shard:
        try:
            return self._shards[schema_name]
        except KeyError:
            raise SchemaError(
                f"daemon {self.name} has no schema {schema_name!r}"
            ) from None

    # -- ingest ---------------------------------------------------------------

    def insert(self, schema_name: str, obj: dict, *, validate: bool = True) -> None:
        shard = self._shard(schema_name)
        if validate:
            shard.schema.validate(obj)
        shard.add(obj)
        self.objects_stored += 1

    def insert_many(self, schema_name: str, objs: list, *, validate: bool = True) -> None:
        """Batch insert, equivalent to sequential :meth:`insert` calls
        (validation stays interleaved per object, so a mid-batch schema
        error leaves exactly the objects a sequential caller would)."""
        shard = self._shard(schema_name)
        if validate:
            for obj in objs:
                shard.schema.validate(obj)
                shard.add(obj)
                self.objects_stored += 1
        else:
            shard.add_many(objs)
            self.objects_stored += len(objs)

    def insert_seq(
        self,
        schema_name: str,
        seq: int,
        obj: dict,
        *,
        trace_id: str = "",
        validate: bool = True,
    ) -> None:
        """Replicated apply of one object (the repair path): builds the
        object's write unit, then :meth:`apply`."""
        if not self.alive:
            raise StoreDownError(f"daemon {self.name} is down")
        if self.wal is None:
            raise SchemaError(
                f"daemon {self.name} is not in WAL mode; use insert()"
            )
        schema = self._shard(schema_name).schema
        if validate:
            schema.validate(obj)
        frame, keys = write_unit(schema, seq, obj, trace_id)
        self.apply(schema_name, seq, obj, trace_id, frame, keys)

    def apply(self, schema_name: str, seq: int, obj: dict, trace_id: str,
              frame: bytes | None, keys: tuple | None) -> None:
        """Make one replicated object visible: WAL first, then the shard.

        Every write lands here — a cluster write hands each live replica
        the same prebuilt ``frame`` and ``keys`` (:func:`write_unit`),
        repair builds them per pulled object, and WAL replay passes
        ``frame=None`` (the record is already in the log) and
        ``keys=None`` (built from the replayed object).  The WAL
        append precedes visibility, so a crash between the two can only
        lose an object the log already holds — replay puts it back.
        """
        if frame is not None:
            self.wal.append(frame)
        self._shard(schema_name).add(obj, keys)
        self.applied.add(seq)
        self._by_seq[seq] = (schema_name, obj, trace_id)
        self.objects_stored += 1

    def count(self, schema_name: str) -> int:
        return len(self._shard(schema_name).objects)

    # -- crash / recovery --------------------------------------------------------

    def fail(self, *, tear_tail: bool = False, tear_bytes: int = 7) -> None:
        """Crash: all in-memory state is gone; the WAL bytes survive.

        ``tear_tail`` models the crash landing mid-append — the last
        ``tear_bytes`` of the log never made it to disk, so recovery
        must truncate (not trust) the torn record.
        """
        self.alive = False
        self.crashes += 1
        self._shards = {
            name: _Shard(shard.schema) for name, shard in self._shards.items()
        }
        self.applied = set()
        self._by_seq = {}
        self.objects_stored = 0
        if tear_tail:
            if self.wal is None:
                raise SchemaError(f"daemon {self.name} has no WAL to tear")
            self.wal.tear_tail(tear_bytes)

    def recover(self) -> WalRecovery:
        """Restart: replay the longest clean WAL prefix, then live again.

        Replayed objects skip validation (they validated on first
        apply) and do not re-append to the WAL.  Whatever a torn or
        corrupt tail lost stays missing until the cluster's
        anti-entropy repair pulls it from peers.
        """
        if self.wal is None:
            raise SchemaError(f"daemon {self.name} has no WAL to recover from")
        recovery = self.wal.recover()
        for record in recovery.entries:
            self.apply(record.schema, record.seq, record.obj,
                       record.trace_id, None, None)
        self.wal_replayed += len(recovery.entries)
        self.wal_truncated_bytes += recovery.truncated_bytes
        self.alive = True
        return recovery

    def records_for(self, seqs) -> list[tuple]:
        """Repair-pull source: ``(seq, schema, obj, trace_id)`` for every
        requested sequence number this daemon has applied."""
        out = []
        for seq in seqs:
            entry = self._by_seq.get(seq)
            if entry is not None:
                out.append((seq, *entry))
        return out

    def apply_repair(self, seq: int, schema_name: str, obj: dict,
                     trace_id: str = "") -> None:
        """Apply one object pulled from a peer replica (idempotent)."""
        if seq in self.applied:
            return
        self.insert_seq(schema_name, seq, obj, trace_id=trace_id, validate=False)
        self.repair_pulled += 1

    # -- observability ------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Per-daemon counters, qualified by daemon name and shard id —
        two daemons on one node must stay two series."""
        snap = {
            "daemon": self.name,
            "shard": self.shard_id,
            "alive": self.alive,
            "objects_stored": self.objects_stored,
            "crashes": self.crashes,
        }
        if self.wal is not None:
            snap.update(
                wal_records=self.wal.records_appended,
                wal_replayed=self.wal_replayed,
                wal_truncated_bytes=self.wal_truncated_bytes,
                repair_pulled=self.repair_pulled,
            )
        return snap

    # -- shard-local query -------------------------------------------------------

    def query_shard(
        self,
        schema_name: str,
        index_name: str,
        *,
        begin: tuple | None = None,
        end: tuple | None = None,
        prefix: tuple | None = None,
        filters: list[tuple] | None = None,
    ) -> tuple[list[tuple], int]:
        """Sorted (key, object) pairs matching the query, plus the number
        of index entries scanned (pre-filter) for the cost model."""
        shard = self._shard(schema_name)
        if index_name not in shard.indices:
            raise SchemaError(
                f"schema {schema_name!r} has no index {index_name!r}"
            )
        index = shard.indices[index_name]
        key = shard.schema.key_getters[index_name]
        if prefix is not None:
            if begin is not None or end is not None:
                raise ValueError("prefix is exclusive with begin/end")
            oids = index.prefix_range(prefix)
        else:
            oids = index.range(begin, end)
        scanned = len(oids)
        out = []
        for oid in oids:
            obj = shard.objects[oid]
            if filters and not self._matches(obj, filters):
                continue
            out.append((key(obj), obj))
        return out, scanned

    @staticmethod
    def _matches(obj: dict, filters: list[tuple]) -> bool:
        for attr, op, value in filters:
            fn = _OPS.get(op)
            if fn is None:
                raise ValueError(f"unknown filter op {op!r} (use {sorted(_OPS)})")
            if attr not in obj:
                raise SchemaError(f"filter references unknown attribute {attr!r}")
            if not fn(obj[attr], value):
                return False
        return True
