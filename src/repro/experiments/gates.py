"""Gate bodies of the campaign subcommands: run, report, verify.

Each function runs one seeded campaign and returns a
:class:`~repro.check.Check`: the JSON payload, the text report and the
verdict lines.  ``repro <command>``, ``repro <command> --check`` and
``repro check`` all call the same function; :mod:`repro.check` owns
the output placement and the exit codes.  ``lane`` is one of
:data:`~repro.check.LANES` (``None``: the default fast lane).
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.check import Check, UsageError, lane_flags, verdict

__all__ = [
    "bench",
    "chaos",
    "diagnose",
    "explain",
    "fleet",
    "forensics",
    "mpiio_campaign",
    "profile",
    "store",
    "telemetry",
    "trace",
]


def _faults_json(applied, epoch: float) -> list[dict]:
    """The injector's applied-fault log as JSON rows (epoch-relative t)."""
    return [{"t": f.t - epoch, "kind": f.kind, "detail": f.detail}
            for f in applied]


def _faults_text(applied, epoch: float) -> str:
    """The ``== applied faults ==`` block of the text reports."""
    return "\n".join(["== applied faults =="] + [
        f"  t={f.t - epoch:9.3f}s {f.kind:<16} {f.detail}" for f in applied
    ])


def mpiio_campaign(seed: int, fast_lane: bool = True,
                   *, ranks_per_node: int = 4, iterations: int = 8,
                   connector=None, gap_s: float = 0.0, setup=None,
                   **world_kw):
    """One MPI-IO-TEST campaign (2 nodes, 1 MiB independent blocks, NFS)
    on a quiet 4-node world; returns ``(world, result)``.

    The connector defaults to a spilling one on the same lane;
    ``setup`` sees the world before the job starts.  ``gap_s=0``
    starts the job at t=0, so timed fault windows land inside the I/O
    burst instead of before it.
    """
    from repro.apps import MpiIoTest
    from repro.core import ConnectorConfig
    from repro.experiments import World, WorldConfig, run_job

    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, fast_lane=fast_lane,
        **world_kw))
    if setup is not None:
        setup(world)
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=ranks_per_node, iterations=iterations,
        block_size=2**20, collective=False, sync_per_iteration=False,
    )
    if connector is None:
        connector = ConnectorConfig(spill=True, fast_lane=fast_lane)
    result = run_job(world, app, "nfs", connector_config=connector,
                     inter_job_gap_s=gap_s)
    return world, result


def telemetry(seed: int = 42, *, queue_depth: int = 65536,
              inject_failure: bool = False, fail_after: int = 50,
              ranks_per_node: int = 4) -> Check:
    """A small campaign with pipeline telemetry on: per-stage latency
    histograms, drop sites and the loss reconciliation."""
    from repro.core import ConnectorConfig
    from repro.experiments.world import STREAM_TAG

    def trip_wire(world):
        # Crash the L1 aggregator mid-run so the report has a
        # daemon-failure drop site to attribute.
        seen = itertools.count(1)
        world.fabric.l1.streams.subscribe(STREAM_TAG, lambda message: (
            next(seen) == fail_after and world.fabric.l1.fail()))

    _, result = mpiio_campaign(
        seed, iterations=4, ranks_per_node=ranks_per_node,
        connector=ConnectorConfig(), gap_s=120.0, telemetry=True,
        forward_queue_depth=queue_depth,
        setup=trip_wire if inject_failure else None,
    )
    health = result.health
    ok, lines = verdict("loss reconciliation exact", (
        not health.verify(), "loss reconciliation violated "
        "(published != stored + Σ drops + in_flight_spill)"))
    return Check("telemetry", ok, lines, health.to_dict(), health.render_text())


def chaos(seed: int = 42, lane: str | None = None, *, seeds: int = 1,
          fail_after: int = 50, ranks_per_node: int = 4) -> Check:
    """Seeded chaos campaign against the self-healing pipeline.

    Crashes the L1 aggregator mid-run (it restarts after half a
    second), partitions one compute node's uplink and stalls the DSOS
    store, with every recovery path armed: spill/replay connector,
    retry/backoff forwarders, a hot-standby L1, journaled idempotent
    ingest.  ``seeds`` sweeps ``seed .. seed+seeds-1`` in one process;
    the verdict fails if *any* seed's ledger does not close exactly.
    """
    from repro.diagnosis.forensics import chaos_plan
    from repro.ldms.resilience import RetryPolicy

    if seeds < 1:
        raise UsageError("repro chaos: --seeds must be >= 1")
    fast = lane_flags(lane)
    payloads, text, broken = [], [], []
    for s in range(seed, seed + seeds):
        world, result = mpiio_campaign(
            s, fast, ranks_per_node=ranks_per_node, telemetry=True,
            faults=chaos_plan(fail_after, partition=True), retry=RetryPolicy(),
            standby_l1=True,
        )
        journal = world.store.journal
        duplicates = journal.duplicates_skipped if journal else 0
        epoch = world.config.epoch
        applied = world.fault_injector.applied
        if not result.health.verify():
            broken.append(s)
        payloads.append({
            "seed": s,
            "fast_lane": fast,
            "applied_faults": _faults_json(applied, epoch),
            "duplicates_skipped": duplicates,
            "health": result.health.to_dict(),
        })
        if seeds > 1:
            text.append(f"== seed {s} ==")
        text += [_faults_text(applied, epoch),
                 f"duplicates skipped by ingest journal: {duplicates}",
                 "", result.health.render_text()]
        if seeds > 1:
            text.append("")
    ok, lines = verdict(f"ledger exact across {seeds} seed(s)", (
        broken, "unaccounted events under fault injection "
        f"(seed(s) {', '.join(str(s) for s in broken)})"))
    # One seed keeps the original flat payload; a sweep nests them.
    payload = payloads[0] if seeds == 1 else {"runs": payloads}
    return Check("chaos", ok, lines, payload, "\n".join(text))


def store(seed: int = 42, lane: str | None = None, *, mode: str = "drill",
          repair: bool = True, ranks_per_node: int = 4) -> Check:
    """Replicated-store resilience: topology, crash drill, census check.

    Builds a sharded, quorum-replicated DSOS cluster (2 shards × 2
    replicas, write quorum 2) and drives the chaos campaign through it.
    ``mode="topology"`` reports the shard layout of a clean run;
    ``"drill"`` crashes one replica per shard mid-run (one with a torn
    WAL tail), lets WAL replay and anti-entropy repair bring them back,
    and reports the fault log, replica census and recovery ledger.
    ``repair=False`` disables anti-entropy: the drill then leaves
    under-replicated objects behind (the negative control).  The
    verdict requires the loss ledger exact, the census complete (zero
    lost, zero under-replicated objects) and every replica alive.
    """
    from repro.faults import FaultPlan, StoreCrash
    from repro.ldms.resilience import RetryPolicy

    if mode == "topology" and not repair:
        raise UsageError("repro store: --no-repair applies to --drill only")
    fast = lane_flags(lane)
    plan = None
    if mode == "drill":
        # One replica per shard goes down mid-burst; the first loses a
        # torn WAL tail too, so recovery must truncate and repair must
        # re-pull.  down_for exceeds the diagnosis hold so the outage
        # is also visible to the alerting stack when armed.
        plan = FaultPlan((
            StoreCrash(0, at=0.15, down_for=0.8, tear_tail=True),
            StoreCrash(3, at=0.25, down_for=0.25),
        ))
    world, result = mpiio_campaign(
        seed, fast, ranks_per_node=ranks_per_node, telemetry=True,
        faults=plan, retry=RetryPolicy(), standby_l1=True,
        dsos_shards=2, dsos_replication=2, dsos_write_quorum=2,
        dsos_repair=repair,
    )
    cluster = world.dsos.cluster
    census = cluster.census()
    epoch = world.config.epoch
    applied = world.fault_injector.applied if world.fault_injector else ()
    exact = result.health.verify()
    store_recoveries = {
        site: n for site, n in sorted(result.health.recovery_sites().items())
        if site[2] in ("wal_replayed", "repair_pulled", "quorum_degraded")
    }
    payload = {
        "seed": seed,
        "mode": mode,
        "fast_lane": fast,
        "repair": repair,
        "applied_faults": _faults_json(applied, epoch),
        "layout": cluster.shard_layout(),
        "census": {**dataclasses.asdict(census),
                   "complete": census.complete},
        "store": cluster.stats_snapshot(),
        "store_recoveries": [
            {"stage": s, "node": n, "outcome": o, "count": c}
            for (s, n, o), c in store_recoveries.items()
        ],
        "ledger_exact": exact,
    }

    text = [f"== store topology ({cluster.shards} shard(s) x "
            f"{cluster.replication} replica(s), W={cluster.write_quorum}) =="]
    for row in cluster.shard_layout():
        daemons = ", ".join(
            f"{d}{'' if alive else ' (down)'} [{objs}]"
            for d, alive, objs in zip(row["daemons"], row["alive"],
                                      row["objects"])
        )
        text.append(f"  shard {row['shard']}: {daemons}")
    if mode == "drill":
        text += ["", _faults_text(applied, epoch),
                 "\n== recovery ledger (store) =="]
        text += [f"  {stage}/{node}: {outcome} x{count}"
                 for (stage, node, outcome), count in store_recoveries.items()]
        if not store_recoveries:
            text.append("  (none)")
        snap = payload["store"]
        text.append(f"\nwrites={snap['writes']} "
                    f"quorum_degraded={snap['quorum_degraded_writes']} "
                    f"rejected={snap['rejected_writes']}")
    text.append(f"census: {census.objects} object(s), {census.lost} lost, "
                f"{census.under_replicated} under-replicated, "
                f"{census.replicas_down} replica(s) down, "
                f"degraded shards {list(census.degraded_shards) or 'none'}")
    text.append(f"ledger: {'exact' if exact else 'VIOLATED'}")

    ok, lines = verdict(
        f"census complete — every object holds quorum copies "
        f"({census.objects} objects, ledger exact)",
        (not exact, "loss ledger does not close under the store drill"),
        (census.lost, f"{census.lost} object(s) lost (no live copy anywhere)"),
        (census.under_replicated, f"{census.under_replicated} object(s) "
         f"under-replicated after recovery"
         + ("" if repair else " (repair disabled)")),
        (census.replicas_down, f"{census.replicas_down} replica(s) still down"),
    )
    return Check("store", ok, lines, payload, "\n".join(text))


def diagnose(seed: int = 42, lane: str | None = None, *,
             fail_after: int = 50, ranks_per_node: int = 4) -> Check:
    """Live runtime diagnosis, scored against injected ground truth.

    Runs the diagnosis chaos plan (L1 crash, link degrade, store stall)
    with the streaming diagnosis engine armed, correlates the incident
    log against the injector's applied-fault record, then repeats the
    campaign *clean* as a false-positive control.  The verdict fails if
    any injected fault class goes undetected or the clean run raises
    any alert.
    """
    from repro.diagnosis import score_incidents
    from repro.diagnosis.forensics import CHAOS_DIAGNOSIS, chaos_plan
    from repro.ldms.resilience import RetryPolicy

    def campaign(faults):
        return mpiio_campaign(
            seed, lane_flags(lane), ranks_per_node=ranks_per_node,
            telemetry=True, faults=faults, retry=RetryPolicy(),
            standby_l1=True, diagnosis=CHAOS_DIAGNOSIS)

    world, result = campaign(chaos_plan(fail_after))
    epoch = world.config.epoch
    incidents = world.diagnosis.incidents
    applied = world.fault_injector.applied
    score = score_incidents(incidents, applied)
    clean_alerts = len(campaign(None)[0].diagnosis.incidents)
    exact = result.health.verify()

    payload = {
        "seed": seed,
        "fast_lane": lane_flags(lane),
        "applied_faults": _faults_json(applied, epoch),
        "incidents": [a.to_dict(epoch) for a in incidents],
        "score": score.to_dict(epoch),
        "clean_run_alerts": clean_alerts,
        "ledger_exact": exact,
    }
    text = "\n".join([
        _faults_text(applied, epoch), "",
        incidents.render_text(epoch), "",
        score.render_text(epoch),
        f"\nclean-run control: {clean_alerts} alert(s) "
        f"({'OK' if clean_alerts == 0 else 'FALSE POSITIVES'})",
    ])
    ok, lines = verdict(
        "every fault class detected; clean run silent",
        (not score.ok(), "undetected fault classes: "
         + ", ".join(sorted(score.undetected_classes()))),
        (clean_alerts, f"clean run raised {clean_alerts} alert(s)"),
        (not exact, "unaccounted events under fault injection"),
    )
    return Check("diagnose", ok, lines, payload, text)


def explain(seed: int = 42, lane: str | None = None, *,
            job: int | None = None, check: bool = False) -> Check:
    """Explainable bottleneck classification, scored against ground truth.

    Runs the four-class explain chaos campaign, explains its job (or
    ``job``, which must have stored events in the campaign world) and
    scores the verdict classes against the injector's applied-fault
    record; a clean rerun is the healthy-verdict control.  ``check``
    runs :func:`~repro.diagnosis.explain.check_explain` instead: on
    ``lane``, or on both check lanes when no lane is named.
    """
    from repro.diagnosis.explain import (
        check_explain,
        explain_campaign,
        explain_job,
        score_verdicts,
    )

    if check:
        if job is not None:
            raise UsageError("repro explain: --check explains the campaign's "
                             "own job; drop --job")
        return check_explain(seed, lane)
    fast = lane_flags(lane)
    campaign = explain_campaign(seed, fast=fast)
    epoch = campaign.epoch
    report = campaign.report
    if job is not None and job != report.job_id:
        if not list(campaign.world.query_job(job)):
            raise UsageError(f"repro explain: no stored events for job {job} "
                             f"(this campaign's job: {report.job_id})")
        report = explain_job(campaign.world, job)
    score = score_verdicts(report.verdicts, campaign.applied)
    clean = explain_campaign(seed, fast=fast, faults=None)

    payload = {
        "seed": seed,
        "fast_lane": fast,
        "applied_faults": _faults_json(campaign.applied, epoch),
        "report": report.to_dict(epoch),
        "score": score.to_dict(),
        "clean_primary": clean.report.primary.cls,
        "clean_healthy": clean.report.healthy,
    }
    text = "\n".join([
        _faults_text(campaign.applied, epoch), "",
        report.render_text(epoch), "",
        score.render_text(),
        f"\nclean-run control: primary verdict {clean.report.primary.cls!r} "
        f"({'OK' if clean.report.healthy else 'NOT HEALTHY'})",
    ])
    return Check("explain", True, [], payload, text)


def profile(seed: int = 42, lane: str | None = None, *,
            ranks_per_node: int = 4) -> Check:
    """Sim-time profiler: where simulated seconds go in the pipeline.

    Attributes every stored message's end-to-end latency across the
    pipeline components (connector, bus, forwarders, store), with the
    residual explicit so the components reconcile exactly against the
    end-to-end totals; the verdict is that reconciliation.
    """
    from repro.core import ConnectorConfig
    from repro.sim import PipelineProfile

    world, _ = mpiio_campaign(
        seed, lane_flags(lane), iterations=4, ranks_per_node=ranks_per_node,
        connector=ConnectorConfig(), gap_s=120.0, telemetry=True)
    prof = PipelineProfile.from_collector(world.telemetry)
    ok, lines = verdict(
        "profiled component seconds reconcile with end-to-end totals",
        (not prof.reconciles(), "profiled component seconds do not "
         "reconcile with end-to-end totals"))
    return Check("profile", ok, lines, prof.to_dict(), prof.render_text())


def trace(seed: int = 42, lane: str | None = None, *,
          trace_id: str | None = None, slowest: int = 5, drops: bool = False,
          head_rate: float = 1.0, tail_latency: float | None = None,
          fail_after: int = 50, ranks_per_node: int = 4) -> Check:
    """Trace drill-down over the seeded chaos campaign.

    Runs the chaos plan with every recovery path armed and span-tree
    retention governed by ``head_rate`` / ``tail_latency``, then
    renders the selected traces (``trace_id``, else the retained drops
    with ``drops``, else the ``slowest`` N stored ones) as critical-path
    waterfalls plus the campaign rollup.  The verdict requires every
    retained stored trace's critical path to sum *exactly* to its
    end-to-end latency and the rollup to reconcile with the sim-time
    profile.
    """
    from repro.diagnosis.forensics import chaos_plan
    from repro.ldms.resilience import RetryPolicy
    from repro.sim import PipelineProfile
    from repro.telemetry.spans import TelemetryConfig, critical_path
    from repro.webservices.tracing import render_waterfall

    policy = TelemetryConfig(head_sample_rate=head_rate,
                             tail_latency_s=tail_latency)
    world, _ = mpiio_campaign(
        seed, lane_flags(lane), ranks_per_node=ranks_per_node,
        telemetry=policy, faults=chaos_plan(fail_after, partition=True),
        retry=RetryPolicy(), standby_l1=True)
    registry = world.trace_registry()
    rollup = registry.rollup()
    prof = PipelineProfile.from_registry(registry)

    if trace_id is not None:
        tree = registry.get(trace_id)
        if tree is None:
            raise UsageError(f"trace {trace_id!r} not retained "
                             f"({len(registry)} of {registry.offered} kept; "
                             f"raise --head-rate to retain more)", stdout=True)
        selected = [tree]
    elif drops:
        selected = registry.drops()
    else:
        selected = registry.slowest(slowest)

    reg = registry.to_dict()
    payload = {
        "seed": seed,
        "fast_lane": lane_flags(lane),
        "registry": reg,
        "rollup": rollup.to_dict(),
        "rollup_reconciles_with_profile": rollup.reconciles_with(prof),
        "traces": [
            {**tree.to_dict(), "critical_path": critical_path(tree).to_dict()}
            for tree in selected
        ],
    }
    text = [f"retained {reg['retained']} of {reg['offered']} traces "
            f"(head {reg['head_kept']}, tail {reg['tail_kept']}; "
            f"head_rate={reg['head_sample_rate']})", ""]
    for tree in selected:
        text += [render_waterfall(tree), ""]
    if not selected:
        text += ["(no matching traces retained)", ""]
    text.append(rollup.render_text())

    inexact = [
        tree.trace_id for tree in registry.trees.values()
        if tree.status == "stored" and not critical_path(tree).exact
    ]
    ok, lines = verdict(
        f"{rollup.messages} critical paths exact; rollup reconciles with "
        f"profile",
        (inexact, f"critical path != end-to-end latency for {len(inexact)} "
         f"trace(s): {', '.join(inexact[:5])}"),
        (not rollup.reconciles_with(prof), "critical-path rollup does not "
         "reconcile with the sim-time profile"),
        (not prof.reconciles(), "sim-time profile does not reconcile with "
         "its own end-to-end totals"),
    )
    return Check("trace", ok, lines, payload, "\n".join(text))


def fleet(lane: str | None = None, *, mode: str = "scan") -> Check:
    """Fleet health console: probe scans, scorecards, signal catalog.

    ``mode="scan"`` scans the demo fleet (two clean clusters plus one
    with an injected L1 crash and slow-store episode) and renders the
    console; the verdict requires every scorecard to reconcile exactly
    and the chaos cluster's faults to show up in the matching
    components.  ``"export"`` is the scan as an OpenMetrics text
    exposition, whose verdict requires every exported family to be
    catalogued; ``"catalog"`` is the signal catalog page, whose verdict
    requires every signal's rule link to name a standard rule.
    """
    from repro.diagnosis.signals import default_catalog

    catalog = default_catalog()

    if mode == "catalog":
        from repro.diagnosis.engine import DiagnosisConfig
        from repro.diagnosis.rules import default_rules
        from repro.webservices.console import FleetConsole
        from repro.webservices.grafana import render_ascii

        if lane is not None:
            raise UsageError("repro fleet: --catalog runs no campaign, so it "
                             "takes no lane flag")
        # No scan needed for the catalog page: an empty report.
        text = "\n".join(render_ascii(panel, width=100) for panel in
                         FleetConsole((), catalog).catalog_panels())
        known = {rule.name for rule in default_rules(DiagnosisConfig())}
        dangling = [s.name for s in catalog if s.rule and s.rule not in known]
        ok, lines = verdict(
            f"{len(catalog)} signals; every rule link names a standard rule",
            (dangling, "signals linked to no standard rule: "
             + ", ".join(dangling)))
        return Check("fleet", ok, lines, catalog.to_dict(), text)

    from repro.fleet import scan_fleet

    report = scan_fleet(fast_lane=lane_flags(lane))

    if mode == "export":
        from repro.telemetry import render_openmetrics

        text = render_openmetrics(report, catalog)
        ok, lines = verdict(
            "every exported family catalogued",
            ("(uncatalogued)" in text, "export contains uncatalogued "
             "families"))
        return Check("fleet", ok, lines, None, text, document=True)

    from repro.webservices.console import FleetConsole

    bad = [c.name for c in report if not c.score.reconciles()]
    checks = [(bad, "scorecard does not reconcile (Σ deductions != 100 - "
               "score) for: " + ", ".join(bad))]
    # The chaos cluster's injected faults must register in the
    # matching scorecard components.
    for c in report:
        if c.spec.faults is not None:
            checks += [
                (c.score.component("probes").deduction == 0, f"{c.name}: "
                 "injected daemon crash left the probes component untouched"),
                (c.score.component("store").deduction == 0, f"{c.name}: "
                 "injected slow store left the store component untouched"),
                (c.score.ready, f"{c.name}: chaos cluster still reports ready"),
            ]
    ok, lines = verdict(f"{len(report)} scorecards reconcile exactly; "
                         f"chaos faults deducted via matching components",
                         *checks)
    return Check("fleet", ok, lines, report.to_dict(),
                 FleetConsole(report, catalog).render_text())


def forensics(seed: int = 42, lane: str | None = None, *,
              mode: str = "capture", show: str | None = None,
              diff: list[str] | None = None, fail_after: int = 50,
              check: bool = False) -> Check:
    """Black-box flight recorder: capture, timelines, bundle diffs.

    ``mode="capture"`` runs the chaos campaign with the flight recorder
    armed and reports the frozen forensic bundles, ring ledgers and
    fault-class evidence matches; ``check`` runs
    :func:`~repro.diagnosis.forensics.check_forensics` instead (on
    ``lane``, or on both check lanes when no lane is named).
    ``"show"`` reconstructs bundle ``show``'s merged cross-layer
    timeline; ``"diff"`` compares the two bundles ``diff`` names (the
    clean control run freezes a whole-run snapshot ``clean-0``).
    """
    from repro.diagnosis.forensics import (
        capture_campaign,
        check_forensics,
        diff_bundles,
        diff_panel,
        match_bundles,
        timeline_panel,
    )
    from repro.webservices.grafana import render_ascii

    if check:
        if mode != "capture":
            raise UsageError(f"repro forensics: --check verifies --capture, "
                             f"not --{mode}")
        return check_forensics(seed, lane, fail_after=fail_after)
    fast = lane_flags(lane)
    cap = capture_campaign(seed, fast=fast, fail_after=fail_after)

    if mode == "show":
        bundle = cap.find(show)
        if bundle is None:
            frozen = ", ".join(b.bundle_id for b in cap.bundles) or "(none)"
            raise UsageError(f"repro forensics: no bundle {show!r} "
                             f"(frozen this run: {frozen})")
        evidence = bundle.evidence
        text = "\n".join([
            render_ascii(timeline_panel(bundle), width=110),
            "evidence links:",
            "  rules:     " + (", ".join(evidence["rules"]) or "-"),
            "  signals:   " + (", ".join(evidence["signals"]) or "-"),
            "  incidents: " + (", ".join(
                str(i) for i in evidence["incidents"]) or "-"),
            f"  traces:    {evidence['trace_id_count']} distinct "
            f"id(s), {len(evidence['trace_ids'])} listed",
        ])
        return Check("forensics", True, [], bundle.to_dict(), text)

    if mode == "diff":
        clean = capture_campaign(seed, fast=fast,
                                 faults=None, snapshot_id="clean-0")
        found = [cap.find(i) if cap.find(i) is not None else clean.find(i)
                 for i in diff]
        if None in found:
            missing = [i for i, b in zip(diff, found) if b is None]
            known = [b.bundle_id for b in (*cap.bundles, *clean.bundles)]
            raise UsageError(f"repro forensics: unknown bundle(s) "
                             f"{', '.join(missing)} (known: {', '.join(known)})")
        result = diff_bundles(*found)
        first = result.first
        text = "\n".join([
            render_ascii(diff_panel(result), width=110),
            "no divergence inside the window overlap" if first is None else
            f"first divergence: stream {first.stream!r} at t={first.t:.3f}s",
        ])
        return Check("forensics", True, [], result.to_dict(), text)

    recorder = cap.recorder
    epoch = cap.epoch
    matches = match_bundles(cap.applied, cap.bundles, epoch)
    payload = {
        "seed": seed,
        "fast_lane": fast,
        "applied_faults": _faults_json(cap.applied, epoch),
        "bundles": [b.to_dict() for b in cap.bundles],
        "recorder": recorder.stats(),
        "reconciles": recorder.reconciles(),
        "matches": {
            cls: match.to_dict() for cls, match in sorted(matches.items())
        },
        "archive_bytes": len(recorder.log.to_bytes()),
    }
    text = [_faults_text(cap.applied, epoch), "\n== frozen bundles =="]
    if not cap.bundles:
        text.append("  (none)")
    for bundle in cap.bundles:
        evidence = bundle.evidence
        text.append(f"  {bundle.bundle_id:<6} "
                    f"{bundle.trigger_kind}({bundle.trigger_detail}) "
                    f"t={bundle.t_trigger:7.3f}s "
                    f"window [{bundle.window[0]:.3f}, {bundle.window[1]:.3f}] "
                    f"{bundle.n_records():>4} records, "
                    f"{len(evidence['rules'])} rule(s), "
                    f"{len(evidence['signals'])} signal(s), "
                    f"{evidence['trace_id_count']} trace(s)")
    text += ["\n== rings (captured == retained + evicted) ==",
             f"  {'stream':<10} {'captured':>9} {'evicted':>8} "
             f"{'retained':>9}  ok"]
    for name, ring in recorder.rings.items():
        text.append(f"  {name:<10} {ring.captured:>9} {ring.evicted:>8} "
                    f"{ring.retained:>9}  "
                    f"{'yes' if ring.reconciles() else 'NO'}")
    text.append("\n== fault-class evidence matches ==")
    for cls, match in sorted(matches.items()):
        listing = ", ".join(
            f"{bid} [{', '.join(signals)}]"
            for bid, signals in sorted(match.bundles.items())
        ) or "UNMATCHED"
        text.append(f"  {cls:<16} {listing}")
    text.append(f"\nrecorder: {recorder.bundles_frozen} bundle(s) frozen, "
                f"{recorder.bundle_bytes} archive byte(s), "
                f"{recorder.triggers_dropped} trigger(s) dropped")
    return Check("forensics", True, [], payload, "\n".join(text))


def bench(seed: int = 42, *, quick: bool = False, out: str | None = None,
          check: bool = False) -> Check:
    """Tracked pipeline benchmark: slow, fast and observed lanes, one
    process.

    ``check`` compares the measured lane ratios (fast vs slow, observed
    vs fast) against the committed result at ``out`` (default
    ``benchmarks/BENCH_pipeline.json``): the ``quick`` section for a
    quick campaign, the top level for a full one, so like is compared
    with like.  It fails on a >25 % ratio regression (the ratios, not
    the walls, so the check is
    machine-independent) and on any lane whose median peak RSS
    regressed >25 % (each round runs in a fresh child, so every lane's
    peak is its own).
    """
    import json
    from pathlib import Path

    from repro.experiments.bench import (
        DEFAULT_RESULT_PATH,
        LANES,
        pipeline_benchmark,
    )

    result = pipeline_benchmark(quick=quick, seed=seed)

    def text():
        out = [f"campaign: hmmer families={result['campaign']['n_families']} "
               f"rpn=8 nodes=2 seed={seed} (quick={quick})"]
        for lane in LANES:
            r = result[lane]
            out.append(f"  {lane:<8} wall={r['wall_s']:>7.2f}s "
                       f"events/s={r['events_per_sec']:>8.1f} "
                       f"engine_events={r['engine_events']} "
                       f"peak_rss_kib={r['peak_rss_kib']}")
        spine = result["fast"].get("spine")
        if spine:
            out.append(f"  spine: {spine['fused']} fused rows, "
                       f"{spine['fall_through']} fall-through rows, "
                       f"{spine['dearms']} de-arms")
        out.append(f"  speedup (events/s, fast vs slow): "
                   f"{result['speedup_events_per_sec']:.2f}x")
        out.append(f"  observed vs inert fast lane (events/s): "
                   f"{result['observed_vs_fast_events_per_sec']:.2f}x")
        if result["speedup_vs_fast_baseline"]:
            out.append(f"  fast vs recorded pre-spine fast-lane baseline: "
                       f"{result['speedup_vs_fast_baseline']:.2f}x")
        if result["speedup_vs_seed_baseline"]:
            out.append(f"  fast vs pre-optimization baseline: "
                       f"{result['speedup_vs_seed_baseline']:.2f}x")
        return "\n".join(out)

    if not check:
        return Check("bench", True, [], result, text)

    path = Path(out) if out else DEFAULT_RESULT_PATH
    committed = json.loads(path.read_text()) if path.exists() else {}
    if quick:
        committed = committed.get("quick", {})
    checks = [(not committed, f"no committed {'quick ' if quick else ''}"
               f"result in {path}")]
    for key in ("speedup_events_per_sec", "observed_vs_fast_events_per_sec"):
        if key in committed:
            checks.append((result[key] < committed[key] * 0.75,
                           f"{key} {result[key]:.2f}x regressed below 75% "
                           f"of committed {committed[key]:.2f}x"))
    checks += [
        (result[lane]["peak_rss_kib"] > committed[lane]["peak_rss_kib"] * 1.25,
         f"{lane} lane peak RSS {result[lane]['peak_rss_kib']} KiB regressed "
         f">25% over committed {committed[lane]['peak_rss_kib']} KiB")
        for lane in LANES if committed
    ]
    ok, lines = verdict("lane ratios and peak RSS within 25% of committed",
                         *checks)
    return Check("bench", ok, lines, result, text)
