"""Columnar messages and the express spine.

Two pieces:

* :class:`ColumnarMessage` — a lazy, StreamMessage-duck-typed view of
  one formatted event: the payload join and the parsed dict
  materialize only if something downstream actually reads them (chaos
  paths, spill buffers, CSV stores).  The DSOS store builds its rows
  straight from the message's shape and slot values.
* :class:`ColumnarSpine` — the express lane: when an armed guard proves
  nothing can observe the difference, a published event whose whole
  path is provably uncontended is *fused*: its publish → forward →
  forward → ingest instants are computed in closed form and its
  effects applied eagerly, with no engine event, so ``engine_events``
  scales with application I/O, not with monitoring messages.  Every
  other event is handed to the real pipeline — the real
  ``_Forwarder``s, buses and ``DsosStreamStore.on_message`` — as a
  :class:`ColumnarMessage`.  The real forwarders are the only code that
  queues, batches, kicks and drains.

One forwarder, plus fused rows
------------------------------

A row fuses at its publish instant ``now`` iff:

* every real spine forwarder is idle — empty outbox, no drain pending
  (so nothing is in flight that the row could queue behind or batch
  with);
* this node's L0 hop is free at ``now`` and the L1 hop is free by the
  instant ``t0`` the row reaches L1 (no earlier fused row still holds
  either);
* no other node can reach L1 first: ``env.peek() + min L0 latency >
  t0``.  Any later row is published at or after the next engine event,
  so it arrives at L1 strictly after ``t0`` and can only queue behind.

The row is then a one-row batch at each hop, and its completion
instants ``t0`` (L1 arrival) and ``t1`` (ingest) follow from the same
float arithmetic as ``_Forwarder._kick``.  It emits the identical
stats, hops, gauges, journal admissions and DSOS rows, in the identical
per-trace order, as the event-driven lane.  Its rows wait in a slab for
one ``insert_many``.

A fused row leaves an *occupancy stamp* on the two real forwarders it
used (``busy_until``: ``t0`` on its L0 hop, ``t1`` on L1).  A row that
cannot fuse first *materializes* every stamp still in the future (the
hop counts as draining and holds its link channel; one event at the
stamp releases it and drains again, see ``_Forwarder.materialize``) and
flushes the slab, so the real pipeline sees the occupancy and the DSOS
insert order stays the event-driven lane's; then it is published
through the real bus.

Guard discipline
----------------

The spine arms only when the world is *inert*: no fault plan, no retry
policy, no standby aggregator, no diagnosis engine, no probe scanner,
no CSV store, single-link routes, fast-lane daemons and store.
Telemetry may be armed — the spine emits exact hop records.  Any
mutation that could break the closed form (a daemon failing or turning
flaky, a link partition/degrade, congestion attach, a new subscriber
on a spine bus or forward rule into a spine relay, samplers starting,
a foreign publish on a spine daemon, a new ingest observer) *de-arms
first*: stamps are materialized and the slab flushed, then every
publish takes the per-message path again.

Ties between causally unrelated entries — a transfer completing at the
very instant of a publish — may resolve in a different order than the
event-driven path; with continuous service times such ties do not
occur — the same caveat
:meth:`~repro.cluster.network.Network.transfer_coalesced` documents.
Likewise, the ``peek`` bound does not see a process that this row's own
engine step wakes at ``now``; such a process would have to finish an
I/O operation, format and publish within one L0 transfer to overtake.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import trace as _trace
from repro.telemetry.collector import collector_for

__all__ = [
    "ColumnarMessage",
    "ColumnarSpine",
    "SpineStats",
    "spine_for",
]

#: Attribute the armed spine is stored under on the Environment.
_ENV_ATTR = "_repro_express_spine"


def spine_for(env) -> "ColumnarSpine | None":
    """The armed express spine for ``env``, or ``None``."""
    return getattr(env, _ENV_ATTR, None)


class ColumnarMessage:
    """A StreamMessage-shaped view of one columnar row, lazily joined.

    Duck-types the frozen :class:`~repro.ldms.streams.StreamMessage`
    for every consumer in the tree (buses, forwarders, stores, spill
    buffers): same attributes, same ``size_bytes``.  The payload string
    and the parsed dict are built on first access and cached — on paths
    that never read them (counters-only delivery) they never exist.
    """

    __slots__ = (
        "tag", "fmt", "src_node", "publish_time", "trace_id",
        "size_bytes", "_shape", "_values", "_vstrs", "_payload", "_parsed",
    )

    def __init__(
        self, tag, shape, values, vstrs, nbytes,
        src_node="", publish_time=0.0, trace_id="",
    ):
        self.tag = tag
        self.fmt = "json"
        self.src_node = src_node
        self.publish_time = publish_time
        self.trace_id = trace_id
        self.size_bytes = nbytes
        self._shape = shape
        self._values = values
        self._vstrs = vstrs
        self._payload = None
        self._parsed = None

    @property
    def payload(self) -> str:
        payload = self._payload
        if payload is None:
            vstrs = self._vstrs
            if vstrs is None:  # lazy-formatted row: re-render from values
                payload = self._shape.render(self._values)[0]
            else:
                payload = self._shape.payload(vstrs)
            self._payload = payload
        return payload

    @property
    def parsed(self) -> dict:
        parsed = self._parsed
        if parsed is None:
            parsed = self._parsed = self._shape.parsed(self._values)
        return parsed

    @property
    def shape(self):
        """The compiled message shape (``_Shape``) this row fills."""
        return self._shape

    @property
    def values(self) -> tuple:
        """The row's varying slot values, in the shape's slot order."""
        return self._values


@dataclass
class SpineStats:
    """Row accounting for one express spine."""

    #: Rows appended (one per published event while armed).
    rows: int = 0
    #: Rows applied in closed form (one-row transfers at each hop).
    fused: int = 0
    #: Rows handed to the real forwarders.
    fall_through: int = 0
    #: Times the spine de-armed (0 on a clean express campaign).
    dearms: int = 0

    @property
    def record_batches(self) -> int:
        """Transfers the spine carried itself: one per fused row."""
        return self.fused

    @property
    def batch_rows(self) -> int:
        """Rows those transfers carried."""
        return self.fused


class ColumnarSpine:
    """Closed-form publish→forward→ingest for one stream tag."""

    def __init__(self, world):
        self.world = world
        self.env = world.env
        self.tag = world.fabric.tag
        self.store = world.store
        self.fabric = world.fabric
        self.stats = SpineStats()
        self._armed = False
        #: node name -> (the node's real L0 forwarder, its link to L1).
        self._l0: dict[str, tuple] = {}
        #: (the real L1 forwarder, its link to L2).
        self._l1: tuple | None = None
        #: Every real spine forwarder, L0s first.
        self._forwarders: list = []
        self._min_latency = float("inf")
        #: True while real forwarders may hold fall-through traffic.
        self._busy = False
        #: Cross-group ingest slab: DSOS rows awaiting one insert_many.
        #: Round-robin placement makes insert_many ≡ sequential inserts,
        #: so flush boundaries are free (``DsosCluster.insert_many``).
        self._slab: list[dict] = []
        self._slab_cap = 1024
        #: Latest fused ingest instant (``-inf`` before the first).
        self.last_time = float("-inf")
        self._hooked: list = []
        # Hot-loop references, resolved at arm time (attribute chases
        # the fused per-row path must not repeat 62k times).
        self._journal = None
        self._sbus_stats = None
        self._rows_fn = None
        self._l1bus_stats = None

    # -- arming ----------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def accepts(self, daemon, tag: str) -> bool:
        """True iff this armed spine carries ``tag`` traffic published
        at ``daemon`` (one of the spine's L0 entry points)."""
        return (
            self._armed and tag == self.tag and daemon.node.name in self._l0
        )

    def try_arm(self) -> bool:
        """Arm iff the world is provably inert (see module docstring)."""
        world, fabric, store = self.world, self.fabric, self.store
        cfg = world.config
        if (
            cfg.faults is not None or cfg.retry is not None
            or cfg.standby_l1 or cfg.diagnosis is not None
            or cfg.probe is not None or cfg.keep_csv or not cfg.fast_lane
            or bool(cfg.flightrec)
        ):
            return False
        if world._samplers_running or world._pipeline_samplers_running:
            return False
        if not store._fast or store._slow or store._observers or store._bus.in_batch:
            return False
        # Replicated DSOS: quorum acks and per-write sequence numbers
        # have no closed form — the express spine only serves the
        # legacy flat cluster.
        if store._sharded:
            return False
        net = world.cluster.network
        if net._congestion is not None:
            return False
        daemons = [*fabric.compute_daemons.values(), fabric.l1, fabric.l2]
        for d in daemons:
            if d.failed or not d.fast_lane:
                return False
            for f in d._forwarders:
                if (
                    f._flaky is not None or f.retry is not None
                    or len(f.outbox) or f._draining
                ):
                    return False
        l1, l2 = fabric.l1, fabric.l2
        if l2.streams._subscribers.get(self.tag) != [store.on_message]:
            return False

        def hop(name, daemon, peer):
            """``(forwarder, link)`` of ``daemon``'s one forward rule —
            on our tag, to ``peer``, over a healthy single-link route,
            with an undisturbed subscriber list — or ``None``."""
            if len(daemon._forwarders) != 1:
                return None
            fwd = daemon._forwarders[0]
            if (
                fwd.tag != self.tag or fwd.peer is not peer
                or daemon.streams._subscribers.get(self.tag) != [fwd.enqueue]
            ):
                return None
            links = net.links_on_path(name, peer.node.name)
            if len(links) != 1 or not links[0]._up or links[0]._degrade != 1.0:
                return None
            return fwd, links[0]

        l0 = {
            name: hop(name, d, l1)
            for name, d in fabric.compute_daemons.items()
        }
        l1hop = hop(l1.node.name, l1, l2)
        if l1hop is None or None in l0.values():
            return False
        self._l0, self._l1 = l0, l1hop
        self._forwarders = [fwd for fwd, _ in (*l0.values(), self._l1)]
        self._min_latency = min(link.latency_s for _, link in l0.values())
        self._journal = store.journal
        self._sbus_stats = store._bus.stats
        self._rows_fn = store.columnar_rows
        self._l1bus_stats = l1.streams.stats
        self._install_hooks(daemons, net)
        self._armed = True
        setattr(self.env, _ENV_ATTR, self)
        return True

    def _install_hooks(self, daemons, net) -> None:
        """Point every guard-relevant object back at this spine."""
        targets = [net, *daemons, self.store]
        for d in daemons:
            targets.append(d.streams)
        for _, link in (*self._l0.values(), self._l1):
            targets.append(link)
        for obj in targets:
            obj._express_spine = self
            self._hooked.append(obj)

    def dearm(self) -> None:
        """Hand everything to the real pipeline, then stand down.

        Fused transfers still in flight become real engine state, the
        slab lands; afterwards every publish takes the per-message path.
        """
        if not self._armed:
            return
        self._armed = False
        self.stats.dearms += 1
        self._materialize()
        for obj in self._hooked:
            obj._express_spine = None
        self._hooked.clear()
        if getattr(self.env, _ENV_ATTR, None) is self:
            delattr(self.env, _ENV_ATTR)

    def drain_all(self) -> float:
        """Land the slab (end of run).

        Returns the last fused ingest instant — which may lie beyond
        the last engine event — or ``-inf`` if no row ever fused.
        """
        self._flush_slab()
        return self.last_time

    # -- the per-row path -------------------------------------------------

    def append(
        self, daemon, shape, values, nbytes: int,
        trace_id: str, t_pub: float, job_id: int, rank: int,
    ) -> None:
        """One published event enters the spine at ``env.now``.

        The caller (the connector's fast lane) has already advanced
        the clock to the publish-completion instant and charged its own
        stats.  The row fuses if it can (module docstring); otherwise
        it takes the real per-message path from here.
        """
        env = self.env
        now = env.now
        self.stats.rows += 1
        node = daemon.node.name
        fwd, link = self._l0[node]
        l1, l1link = self._l1
        if fwd.busy_until <= now and self._idle():
            t0 = (now + link.latency_s * 1.0) + link.transmit_time(nbytes) * 1.0
            if l1.busy_until <= t0 and env.peek() + self._min_latency > t0:
                t1 = (
                    (t0 + l1link.latency_s * 1.0)
                    + l1link.transmit_time(nbytes) * 1.0
                )
                self._fuse(
                    daemon, fwd, l1, shape, values, nbytes,
                    trace_id, t_pub, job_id, rank, now, t0, t1,
                )
                return
        # Fall through: the real pipeline takes the row, after seeing
        # every fused transfer still in flight and every fused row's
        # DSOS insert.
        self.stats.fall_through += 1
        self._materialize()
        collector = collector_for(env)
        if collector is not None:
            collector.begin(trace_id, job_id, rank, node, t_begin=t_pub)
        daemon.publish_prepaid_message(
            ColumnarMessage(
                self.tag, shape, values, None, nbytes,
                src_node=node, publish_time=t_pub, trace_id=trace_id,
            )
        )

    def _idle(self) -> bool:
        """True iff no real spine forwarder holds or awaits traffic."""
        if self._busy:
            for fwd in self._forwarders:
                if fwd._draining or len(fwd.outbox):
                    return False
            self._busy = False
        return True

    def _materialize(self) -> None:
        """Turn every fused transfer still in flight into engine state
        and land the slab: the real pipeline takes over from here."""
        for fwd in self._forwarders:
            fwd.materialize()
        self._busy = True
        self._flush_slab()

    def _fuse(
        self, daemon, fwd, l1, shape, values, nbytes: int,
        trace_id: str, t_pub: float, job_id: int, rank: int,
        now: float, t0: float, t1: float,
    ) -> None:
        """Apply one fused row: enqueue → drain → transfer → deliver →
        transfer → ingest, collapsed to its closed-form instants."""
        bus_stats = daemon.streams.stats
        bus_stats.published += 1
        bus_stats.bytes_published += nbytes
        bus_stats.delivered += 1
        fstats = fwd.stats
        fstats.enqueued += 1
        if fstats.max_queue_depth < 1:
            fstats.max_queue_depth = 1
        fstats.forwarded += 1
        fstats.bytes_forwarded += nbytes
        self.stats.fused += 1
        l1bus = self._l1bus_stats
        l1bus.published += 1
        l1bus.bytes_published += nbytes
        l1bus.delivered += 1
        l1stats = l1.stats
        l1stats.enqueued += 1
        if l1stats.max_queue_depth < 1:
            l1stats.max_queue_depth = 1
        l1stats.forwarded += 1
        l1stats.bytes_forwarded += nbytes
        sbus = self._sbus_stats
        sbus.published += 1
        sbus.bytes_published += nbytes
        sbus.delivered += 1
        journal = self._journal
        if journal is not None and trace_id:
            journal.admit_at(trace_id, t1)
        rows = self._rows_fn(shape, values)
        slab = self._slab
        slab.extend(rows)
        self.store.objects_stored += len(rows)
        if len(slab) >= self._slab_cap:
            self._flush_slab()
        fwd.busy_until = t0
        l1.busy_until = t1
        if t1 > self.last_time:
            self.last_time = t1
        collector = collector_for(self.env)
        if collector is not None:
            self._fused_telemetry(
                collector, daemon.node.name, trace_id, t_pub,
                job_id, rank, now, t0, t1,
            )

    def _fused_telemetry(
        self, collector, node: str,
        trace_id: str, t_pub: float, job_id: int, rank: int,
        now: float, t0: float, t1: float,
    ) -> None:
        """Exact hop/gauge records for one fused row — the per-trace
        order and ``t_in``/``t_out`` instants the real pipeline emits."""
        l1node = self.fabric.l1.node.name
        tag = self.tag
        collector.begin(trace_id, job_id, rank, node, t_begin=t_pub)
        collector.hop(
            trace_id, _trace.STAGE_PUBLISH, node, _trace.PUBLISHED,
            t_in=t_pub,
        )
        collector.gauge(f"outbox_depth/{node}/{tag}", 1)
        collector.hop(trace_id, _trace.STAGE_BUS, node, _trace.DELIVERED)
        collector.hop(
            trace_id, _trace.STAGE_FORWARD, node, _trace.FORWARDED,
            t_in=now, t_out=t0,
        )
        collector.gauge(f"outbox_depth/{l1node}/{tag}", 1)
        collector.hop(
            trace_id, _trace.STAGE_BUS, l1node, _trace.DELIVERED,
            t_in=t0, t_out=t0,
        )
        collector.hop(
            trace_id, _trace.STAGE_FORWARD, l1node, _trace.FORWARDED,
            t_in=t0, t_out=t1,
        )
        l2node = self.fabric.l2.node.name
        collector.hop(
            trace_id, _trace.STAGE_INGEST, l2node, _trace.STORED,
            t_in=t1, t_out=t1,
        )
        collector.hop(
            trace_id, _trace.STAGE_BUS, l2node, _trace.DELIVERED,
            t_in=t1, t_out=t1,
        )

    def _flush_slab(self) -> None:
        slab = self._slab
        if slab:
            self._slab = []
            self.store.client.cluster.insert_many(
                self.store.schema.name, slab, validate=False
            )

    # -- guard-breaking hooks (called by the hooked objects) --------------

    def on_mutation(self) -> None:
        """Something guard-relevant is about to change: stand down."""
        self.dearm()

    def on_subscribe(self, bus, tag: str) -> None:
        """A new subscriber on a spine bus: de-arm before it attaches."""
        self.dearm()
