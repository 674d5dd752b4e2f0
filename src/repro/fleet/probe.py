"""Proactive synthetic probe scans (the CHS pattern, in sim time).

A :class:`ProbeScanner` arms against a campaign
:class:`~repro.experiments.world.World` as a periodic *weak* process
(see :meth:`repro.sim.Environment.every`): every ``period_s`` of
simulated time it probes each compute node by walking the full
connector → LDMS → DSOS spine **read-only** — a ghost traversal that
charges a fixed synthetic I/O burst against the spine's own cost model
(publish overhead, per-link propagation + serialization with live
degradation and congestion, forward-outbox backlog, store stall state)
without enqueueing a single event.  Armed ≡ absent therefore stays
byte-identical by construction, on both lanes — pinned by
``tests/property/test_fleet_properties.py``.

Per-node probe latency and loss accumulate into a
:class:`ProbeReport`; stragglers are flagged CHS-style by
*median-fold deviation*: a node whose mean probe latency exceeds
``straggler_fold`` × the fleet median is a straggler
(:func:`flag_stragglers`).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.signals import Signal

__all__ = [
    "PROBE_METRICS",
    "NodeProbeStats",
    "ProbeConfig",
    "ProbeReport",
    "ProbeSample",
    "ProbeScanner",
    "flag_stragglers",
]

#: Metrics the probe subsystem emits, as signal catalog rows.
PROBE_METRICS = (
    Signal("probe_latency_s", "seconds", "gauge", __name__,
           "synthetic probe spine latency for one node (ghost traversal)"),
    Signal("probe_lost_total", "probes", "counter", __name__,
           "probes lost to a dead daemon or partitioned link, per node"),
    Signal("probe_stragglers", "nodes", "gauge", __name__,
           "nodes whose mean probe latency exceeds fold x the fleet median"),
)


@dataclass(frozen=True)
class ProbeConfig:
    """Tuning for one scanner: cadence, burst size, straggler fold."""

    #: Simulated seconds between probe sweeps.
    period_s: float = 0.05
    #: Size of the synthetic I/O burst each probe charges per node.
    payload_bytes: int = 65536
    #: A node is a straggler when its mean latency > fold x median.
    straggler_fold: float = 2.0
    #: Median-fold deviation needs this many probed nodes to speak.
    min_nodes: int = 3
    #: Nominal latency charged when the store is mid slow-episode (the
    #: probe cannot know when the episode ends, only that it is on).
    store_stall_penalty_s: float = 0.1

    def __post_init__(self):
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.straggler_fold <= 1.0:
            raise ValueError("straggler_fold must be > 1.0")
        if self.min_nodes < 2:
            raise ValueError("min_nodes must be >= 2")
        if self.store_stall_penalty_s < 0:
            raise ValueError("store_stall_penalty_s must be >= 0")


@dataclass(frozen=True)
class ProbeSample:
    """One node's probe result at one sweep."""

    t: float
    node: str
    lost: bool
    #: Total spine latency (publish + links + queueing + store), or
    #: 0.0 for a lost probe.
    latency_s: float
    publish_s: float = 0.0
    link_s: float = 0.0
    queue_s: float = 0.0
    store_s: float = 0.0
    #: Why the probe was lost ("" for a delivered probe).
    reason: str = ""


def flag_stragglers(
    mean_latencies: dict[str, float],
    fold: float = 2.0,
    min_nodes: int = 3,
) -> list[str]:
    """Median-fold straggler detection over per-node mean latencies.

    Returns the sorted node names whose latency strictly exceeds
    ``fold`` × the median.  With fewer than ``min_nodes`` entries (or a
    non-positive median) there is no meaningful baseline and nothing is
    flagged.
    """
    if len(mean_latencies) < min_nodes:
        return []
    median = statistics.median(mean_latencies.values())
    if median <= 0:
        return []
    return sorted(
        node for node, lat in mean_latencies.items() if lat > fold * median
    )


class ProbeScanner:
    """Periodic read-only probe sweeps against one world's spine."""

    def __init__(self, world, config: ProbeConfig | None = None):
        self.world = world
        self.config = config or ProbeConfig()
        #: Every sample, in sweep order (sweeps iterate nodes sorted).
        self.samples: list[ProbeSample] = []
        self.sweeps = 0
        self._armed = False

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Start the periodic sweep process (weak ticks only)."""
        if self._armed:
            raise RuntimeError("probe scanner already armed")
        self._armed = True
        self.world.env.every(self.config.period_s, self.sweep, weak=True)

    # -- probing -------------------------------------------------------

    def sweep(self) -> list[ProbeSample]:
        """Probe every compute node once; appends and returns samples."""
        now = self.world.env.now
        self.sweeps += 1
        swept = [
            self._probe(now, name)
            for name in sorted(self.world.fabric.compute_daemons)
        ]
        self.samples.extend(swept)
        return swept

    def _probe(self, now: float, node_name: str) -> ProbeSample:
        """Ghost-traverse the spine for one node's synthetic burst.

        Reads the same state the real path charges — daemon liveness,
        link up/degrade state, congestion factor, outbox depths, store
        episode state — and sums the cost a burst of ``payload_bytes``
        would pay *right now*.  Mutates nothing, draws no randomness.
        """
        world = self.world
        fabric = world.fabric
        net = world.cluster.network
        nbytes = self.config.payload_bytes

        daemon = fabric.compute_daemons[node_name]
        if daemon.failed:
            return ProbeSample(
                t=now, node=node_name, lost=True, latency_s=0.0,
                reason=f"sampler ldmsd on {node_name} down",
            )

        # Resolve the L1 hop the forwarders would use: the head-node
        # aggregator, or the hot standby when L1 is dead and one exists.
        l1 = fabric.l1
        if l1.failed:
            if fabric.l1_standby is not None and not fabric.l1_standby.failed:
                l1 = fabric.l1_standby
            else:
                return ProbeSample(
                    t=now, node=node_name, lost=True, latency_s=0.0,
                    reason="L1 aggregator down, no standby",
                )
        if fabric.l2.failed:
            return ProbeSample(
                t=now, node=node_name, lost=True, latency_s=0.0,
                reason="L2 aggregator down",
            )

        # Connector publish: daemon API overhead + loopback serialization.
        publish_s = (
            daemon.publish_overhead_s + nbytes / daemon.loopback_bandwidth_bps
        )

        # Network spine: node -> L1's node -> L2's node, store-and-forward
        # per link with live congestion and degradation, exactly the
        # factors Network.transfer charges.
        congestion = net.congestion_factor()
        link_s = 0.0
        queue_s = 0.0
        for src, dst, hop_daemon in (
            (node_name, l1.node.name, daemon),
            (l1.node.name, fabric.l2.node.name, l1),
        ):
            if src != dst:
                for link in net.links_on_path(src, dst):
                    if not link.up:
                        return ProbeSample(
                            t=now, node=node_name, lost=True, latency_s=0.0,
                            reason=f"link {src} -- {dst} partitioned",
                        )
                    link_s += (
                        link.latency_s + link.transmit_time(nbytes)
                    ) * congestion
            # Outbox backlog at the hop's sender: every queued message
            # serializes ahead of the probe on the hop's first link.
            depth = sum(
                fwd["queue_depth"]
                for fwd in hop_daemon.stats_snapshot()["forwards"]
            )
            if depth and src != dst:
                first = net.links_on_path(src, dst)[0]
                queue_s += depth * first.transmit_time(nbytes) * congestion

        # Terminal store: a slow-store episode defers ingest; charge the
        # nominal stall penalty while one is active.
        store_s = (
            self.config.store_stall_penalty_s if world.store.slow else 0.0
        )

        return ProbeSample(
            t=now, node=node_name, lost=False,
            latency_s=publish_s + link_s + queue_s + store_s,
            publish_s=publish_s, link_s=link_s, queue_s=queue_s,
            store_s=store_s,
        )

    # -- reporting -----------------------------------------------------

    def report(self) -> "ProbeReport":
        return ProbeReport.from_samples(
            self.samples,
            fold=self.config.straggler_fold,
            min_nodes=self.config.min_nodes,
            sweeps=self.sweeps,
        )


@dataclass(frozen=True)
class NodeProbeStats:
    """Aggregated probe results for one node."""

    node: str
    probes: int
    lost: int
    mean_latency_s: float
    worst_latency_s: float
    #: Distinct loss reasons seen, sorted ("" never included).
    reasons: tuple

    @property
    def loss_ratio(self) -> float:
        return self.lost / self.probes if self.probes else 0.0


class ProbeReport:
    """Per-node aggregates + straggler verdicts over one scan."""

    def __init__(self, nodes: list[NodeProbeStats], stragglers: list[str],
                 median_latency_s: float, fold: float, sweeps: int):
        self.nodes = list(nodes)
        self.stragglers = list(stragglers)
        self.median_latency_s = median_latency_s
        self.fold = fold
        self.sweeps = sweeps

    @classmethod
    def from_samples(cls, samples, *, fold: float, min_nodes: int,
                     sweeps: int) -> "ProbeReport":
        by_node: dict[str, list[ProbeSample]] = {}
        for s in samples:
            by_node.setdefault(s.node, []).append(s)
        nodes = []
        means: dict[str, float] = {}
        for name in sorted(by_node):
            node_samples = by_node[name]
            ok = [s.latency_s for s in node_samples if not s.lost]
            lost = sum(1 for s in node_samples if s.lost)
            mean = sum(ok) / len(ok) if ok else 0.0
            if ok:
                means[name] = mean
            nodes.append(NodeProbeStats(
                node=name,
                probes=len(node_samples),
                lost=lost,
                mean_latency_s=mean,
                worst_latency_s=max(ok, default=0.0),
                reasons=tuple(sorted(
                    {s.reason for s in node_samples if s.reason}
                )),
            ))
        median = statistics.median(means.values()) if means else 0.0
        stragglers = flag_stragglers(means, fold=fold, min_nodes=min_nodes)
        return cls(nodes, stragglers, median, fold, sweeps)

    @property
    def lost_nodes(self) -> list[str]:
        """Nodes that lost at least one probe, sorted."""
        return [n.node for n in self.nodes if n.lost]

    def to_dict(self) -> dict:
        return {
            "sweeps": self.sweeps,
            "median_latency_s": self.median_latency_s,
            "straggler_fold": self.fold,
            "stragglers": list(self.stragglers),
            "nodes": [
                {
                    "node": n.node,
                    "probes": n.probes,
                    "lost": n.lost,
                    "mean_latency_s": n.mean_latency_s,
                    "worst_latency_s": n.worst_latency_s,
                    "reasons": list(n.reasons),
                    "straggler": n.node in self.stragglers,
                }
                for n in self.nodes
            ],
        }

    def to_rows(self) -> list[dict]:
        """Console-table rows (strings formatted for display)."""
        return [
            {
                "node": n.node,
                "probes": n.probes,
                "lost": n.lost,
                "mean_ms": f"{n.mean_latency_s * 1e3:.3f}",
                "worst_ms": f"{n.worst_latency_s * 1e3:.3f}",
                "verdict": (
                    "LOST" if n.lost else
                    "STRAGGLER" if n.node in self.stragglers else "ok"
                ),
                "detail": "; ".join(n.reasons),
            }
            for n in self.nodes
        ]
