"""First-class pipeline stages of the FAST execution spine.

End-to-end matching decomposes into six explicit stages, each timed
and annotated through the shared :class:`~repro.runtime.context.RunContext`:

``plan``
    Validate the query, choose the spanning tree ``t_q`` and the
    matching order, and compile the static :class:`MatchPlan`.
``build_cst``
    Algorithm 1 over the data graph. Memoized per ``(data, query)``
    in the context's :class:`~repro.runtime.context.StageCache`.
``partition``
    Algorithm 2 down to the device's ``delta_S`` / ``delta_D`` limits.
    The pure (non-intercepting) form is memoized per
    ``(data, query, order, delta_S, delta_D, policies)``; the
    FAST-SHARE form is fused with scheduling (the intercept consults
    the scheduler mid-stream) and bypasses the cache.
``schedule``
    Algorithm 3: route each partition to the CPU or the FPGA under the
    workload threshold ``delta``.
``execute``
    FAST kernel over the FPGA partitions (over the modeled PCIe link)
    plus the basic backtracking matcher over the CPU partitions.
``merge``
    Combine counts/result sets; end-to-end modeled time follows the
    paper's overlap rule (the CPU share hides behind PCIe + kernel).

Modeled times are charged identically whether or not a cached value
was reused: the cache saves wall-clock time only, so every reported
modeled number is independent of cache state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import (
    PartitionError,
    TransientDeviceError,
)
from repro.costs.cpu import OpCounters
from repro.cst.builder import build_cst
from repro.cst.partition import (
    PartitionLimits,
    PartitionStats,
    partition_cst,
    partition_to_list,
)
from repro.cst.structure import CST, ENTRY_BYTES
from repro.cst.workload import estimate_workload
from repro.fpga.engine import FastEngine
from repro.fpga.kernel import MatchPlan, build_plan
from repro.fpga.report import KernelReport
from repro.graph.graph import Graph
from repro.host.cpu_matcher import CpuMatchCounters, cst_embeddings
from repro.host.pcie import PcieLink
from repro.host.scheduler import (
    Fleet,
    Placement,
    WorkloadScheduler,
    place_partitions,
)
from repro.query.ordering import path_based_order
from repro.query.query_graph import QueryGraph, as_query
from repro.query.spanning_tree import SpanningTree, build_bfs_tree, choose_root
from repro.runtime.context import RunContext
from repro.runtime.executor import (
    PartitionOutcome,
    Task,
    overlap_schedule,
    run_tasks,
)
from repro.runtime.faults import (
    DEVICE_DEAD,
    FAULT_ERRORS,
    FaultEvent,
    SupervisorCore,
)
from repro.runtime.journal import (
    counters_from_dict,
    counters_to_dict,
    event_from_dict,
    outcome_from_record,
    outcome_to_record,
    run_fingerprint,
)
from repro.runtime.tracing import (
    MODELED,
    WALL,
    device_lane_prefix,
    trace_device_lanes,
)


@dataclass(frozen=True)
class StagePlan:
    """Output of the ``plan`` stage: everything static about one run."""

    query: QueryGraph
    tree: SpanningTree
    order: tuple[int, ...]
    match_plan: MatchPlan


@dataclass
class ScheduledWork:
    """Output of the ``partition`` + ``schedule`` stages."""

    fpga_parts: list[CST]
    cpu_parts: list[CST]
    stats: PartitionStats | None
    scheduler: WorkloadScheduler
    #: The devices the schedule stage placed on: a multi-FPGA pool, or
    #: the context's own device as the fleet of one.
    fleet: Fleet | None = None
    #: Per-device queues of FPGA partition indices (schedule stage).
    placement: Placement | None = None
    #: Whether ``fleet`` is a multi-FPGA pool (even of one device): a
    #: pool names devices on its fault events, pins its placement in
    #: the journal fingerprint, leaves idle devices idle and reports
    #: per-device figures; the single device does none of these.
    pooled: bool = False

    @property
    def num_partitions(self) -> int:
        if self.stats is not None:
            return self.stats.num_partitions
        return len(self.fpga_parts) + len(self.cpu_parts)


@dataclass
class DeviceLoad:
    """One device's share of the execute stage, merged in queue order.

    ``workload`` is the device's accumulated placement cost: the raw
    Algorithm 2 workload estimate for a homogeneous pool (the paper's
    rule), clock/latency-normalised modeled cost for a heterogeneous
    fleet. ``part`` is the catalog part name when the device came from
    a fleet spec. ``kernel`` is ``None`` for an idle device;
    ``pcie_seconds`` counts wasted attempts and the result fetch;
    ``schedule`` is the device's
    :func:`~repro.runtime.executor.overlap_schedule`, ending at
    ``timeline``; ``seconds`` is its FPGA-side modeled time, recovery
    included, whose maximum over devices is the makespan.
    """

    index: int
    part: str | None = None
    workload: float = 0.0
    num_csts: int = 0
    kernel: KernelReport | None = None
    pcie_seconds: float = 0.0
    fetch_seconds: float = 0.0
    fault_overhead_seconds: float = 0.0
    host_overhead_seconds: float = 0.0
    schedule: list = field(default_factory=list)
    timeline: float = 0.0
    seconds: float = 0.0


@dataclass
class ExecuteOutcome:
    """Output of the ``execute`` stage.

    ``fault_overhead_seconds`` is the modeled cost of recovery (wasted
    transfers/kernel work plus backoff) on the FPGA side of the
    overlap rule; ``fallback_seconds`` is the host time of partitions
    re-routed to the CPU matcher after exhausting retries. Both are
    exactly zero when no fault plan is active.
    """

    kernel: KernelReport
    cpu_embeddings: int = 0
    cpu_results: list[tuple[int, ...]] = field(default_factory=list)
    pcie_seconds: float = 0.0
    cpu_share_seconds: float = 0.0
    fault_overhead_seconds: float = 0.0
    fallback_seconds: float = 0.0
    #: FPGA-side modeled seconds after the overlap timeline: the
    #: makespan over ``devices`` (on a single device this equals
    #: ``pcie + kernel + fault_overhead`` at ``buffers = 1``).
    fpga_seconds: float = 0.0
    #: How many partitions were replayed from a resume journal instead
    #: of executed (0 for fresh runs).
    resumed_partitions: int = 0
    #: One entry per fleet device, in device-index order.
    devices: list[DeviceLoad] = field(default_factory=list)


@dataclass
class MergedRun:
    """Output of the ``merge`` stage: the run's bottom line."""

    embeddings: int
    total_seconds: float
    results: list[tuple[int, ...]] | None = None


# ----------------------------------------------------------------------


def _own_device(ctx: RunContext) -> Fleet:
    """The context's single device as a fleet of one."""
    return Fleet((ctx.fpga,), (ctx.device_part,))


def plan_stage(
    ctx: RunContext,
    query: Graph | QueryGraph,
    data: Graph,
    order: tuple[int, ...] | None = None,
) -> StagePlan:
    """Choose tree + order and compile the match plan."""
    with ctx.stage("plan") as st:
        q = as_query(query)
        tree = build_bfs_tree(q, choose_root(q, data))
        if order is None:
            order = path_based_order(tree, data)
        order = tuple(order)
        match_plan = build_plan(q, order)
        st.note(
            order=order,
            root=tree.root,
            num_query_vertices=q.num_vertices,
        )
    return StagePlan(query=q, tree=tree, order=order, match_plan=match_plan)


def build_cst_stage(ctx: RunContext, plan: StagePlan, data: Graph) -> CST:
    """Algorithm 1, memoized per ``(data, query)``.

    The spanning tree is a pure function of ``(query, data)`` (via
    :func:`choose_root`), so it does not appear in the cache key.
    """
    with ctx.stage("build_cst") as st:
        cst, cached = ctx.cache.get_or_build(
            "cst",
            (data, plan.query.graph),
            lambda: build_cst(plan.query, data, tree=plan.tree),
        )
        candidates = cst.total_candidates()
        adjacency = cst.total_adjacency_entries()
        st.modeled_seconds += ctx.host_seconds(candidates + adjacency, data)
        st.note(
            cached=cached,
            cst_bytes=cst.size_bytes(),
            candidates=candidates,
            adjacency_entries=adjacency,
        )
    return cst


def passthrough_partition_stage(
    ctx: RunContext, cst: CST
) -> ScheduledWork:
    """FAST-DRAM's degenerate partition stage: the whole CST is one
    FPGA-resident piece (card DRAM has no ``delta_S`` limit)."""
    with ctx.stage("partition") as st:
        scheduler = WorkloadScheduler(delta=0.0)
        scheduler.assign(cst)
        st.note(num_partitions=1, num_splits=0, cached=False)
    return ScheduledWork(
        fpga_parts=[cst], cpu_parts=[], stats=None, scheduler=scheduler
    )


def partition_stage(
    ctx: RunContext,
    data: Graph,
    cst: CST,
    plan: StagePlan,
    limits: PartitionLimits,
    k_policy: int | str = "greedy",
    split_policy: str = "order",
    delta: float = 0.0,
    absorb_oversized: bool = False,
) -> ScheduledWork:
    """Algorithm 2 (+ Algorithm 3 routing of each emitted partition).

    With ``absorb_oversized`` (FAST-SHARE), the scheduler may claim a
    whole oversized CST for the CPU before it is split; that couples
    partitioning to live scheduler state, so the fused path bypasses
    the partition cache. The pure path partitions once (memoized per
    ``(graph, query, order, delta_S, delta_D, policies)``) and replays
    scheduling over the cached list, which is equivalent
    because execution never feeds back into Algorithm 3's decisions.
    """
    scheduler = WorkloadScheduler(delta=delta)
    fpga_parts: list[CST] = []
    cpu_parts: list[CST] = []
    with ctx.stage("partition") as st:
        if absorb_oversized and delta > 0:
            def sink(part: CST) -> None:
                target = scheduler.assign(part)
                (cpu_parts if target == "cpu" else fpga_parts).append(part)

            def intercept(oversized: CST) -> bool:
                workload = estimate_workload(oversized)
                if scheduler.would_accept_cpu(workload):
                    scheduler.assign(oversized, workload)
                    cpu_parts.append(oversized)
                    return True
                return False

            stats = partition_cst(
                cst, plan.order, limits, sink,
                k_policy=k_policy, intercept=intercept,
                split_policy=split_policy,
            )
            cached = False
        else:
            (parts, stats), cached = ctx.cache.get_or_build(
                "partition",
                (data, plan.query.graph, plan.order, limits.max_bytes,
                 limits.max_degree, str(k_policy), split_policy),
                lambda: partition_to_list(
                    cst, plan.order, limits,
                    k_policy=k_policy, split_policy=split_policy,
                ),
            )
            for part in parts:
                target = scheduler.assign(part)
                (cpu_parts if target == "cpu" else fpga_parts).append(part)
        st.modeled_seconds += ctx.host_seconds(
            stats.total_bytes // ENTRY_BYTES, data
        )
        st.note(
            num_partitions=stats.num_partitions,
            num_splits=stats.num_splits,
            cached=cached,
        )
    return ScheduledWork(
        fpga_parts=fpga_parts, cpu_parts=cpu_parts,
        stats=stats, scheduler=scheduler,
    )


def schedule_stage(
    ctx: RunContext, work: ScheduledWork, fleet: Fleet | None = None
) -> ScheduledWork:
    """Record Algorithm 3's CPU/FPGA split and place the FPGA share.

    ``fleet`` is a multi-FPGA pool; ``None`` is the context's own
    device, the fleet of one. One exclusion rule holds for every fleet:
    a device the fault plan marks dead or whose breaker is open takes
    no work (no survivor raises :class:`FatalDeviceError`). Placement
    reuses Algorithm 3's workload estimates.
    """
    with ctx.stage("schedule") as st:
        st.note(
            cpu_csts=len(work.cpu_parts),
            fpga_csts=len(work.fpga_parts),
            cpu_workload_fraction=work.scheduler.cpu_fraction,
            delta=work.scheduler.delta,
        )
        work.fleet = devices = fleet or _own_device(ctx)
        work.pooled = fleet is not None
        n_dev = len(devices.configs)
        ledger = ctx.health_ledger
        penalties = (ledger.penalties(n_dev) if ledger is not None
                     else (0.0,) * n_dev)
        fplan = ctx.fault_plan
        excluded = {d: DEVICE_DEAD for d in range(n_dev)
                    if fplan is not None and fplan.device_dead(d)}
        if ctx.breaker is not None:
            for d in sorted(ctx.breaker.open_devices(n_dev)):
                excluded.setdefault(d, "breaker_open")
        work.placement = place_partitions(
            [w for target, w in work.scheduler.decisions if target == "fpga"],
            ([p.size_bytes() for p in work.fpga_parts]
             if devices.bid is not None else None),
            devices.configs, penalties, excluded, devices.bid,
        )
        if work.pooled:
            st.note(num_devices=n_dev,
                    csts_per_device=work.placement.planned)
            if any(part is not None for part in devices.parts):
                st.note(fleet=devices.parts)
            if ledger is not None:
                st.note(device_penalties=penalties)
        elif ledger is not None:
            # A single device feels the ledger through the delta_S the
            # runner pre-shrank before partitioning.
            st.note(device_penalty=ledger.penalty(0),
                    delta_s_scale=ledger.delta_s_scale(0))
    return work


def _attempt_partition(
    core: SupervisorCore,
    engine: FastEngine,
    link: PcieLink,
    part: CST,
    scope: tuple,
    match_plan: MatchPlan,
    collect_results: bool,
) -> tuple[KernelReport | None, float, float, float, list[FaultEvent],
           str | None]:
    """One partition under the retry policy.

    Each attempt replays the full launch sequence (device check, PCIe
    transfer, kernel) against the fault plan; transient errors back
    off and retry, with the backoff charged to both wall and modeled
    time. Returns ``(report, pcie_seconds, overhead_seconds,
    backoff_seconds, events, last_fault_kind)`` where ``report`` is
    ``None`` once the retry budget is exhausted (the caller walks the
    degradation ladder). Events are returned, not recorded, so the
    call is free of shared mutable state and safe in the execute
    stage's worker processes, since ``core`` is the picklable
    supervision bundle; the caller records them in partition order.
    """
    policy = core.retry_policy
    fplan = core.fault_plan
    fires = {
        kind: fplan.fires(kind, *scope) if fplan is not None else 0
        for kind in FAULT_ERRORS
    }
    events: list[FaultEvent] = []
    pcie = 0.0
    overhead = 0.0
    backoff_total = 0.0
    attempt = 0
    while True:
        try:
            if attempt < fires["device_unavailable"]:
                raise FAULT_ERRORS["device_unavailable"](
                    f"device unavailable at {scope}"
                )
            cost = link.send_to_card(part.size_bytes())
            pcie += cost
            if attempt < fires["pcie_error"]:
                raise FAULT_ERRORS["pcie_error"](
                    f"DMA transfer failed at {scope}"
                )
            report = engine.run(
                part, collect_results=collect_results, plan=match_plan
            )
            if attempt < fires["kernel_timeout"]:
                overhead += report.seconds
                raise FAULT_ERRORS["kernel_timeout"](
                    f"kernel watchdog expired at {scope}"
                )
            if attempt < fires["bram_soft_error"]:
                overhead += report.seconds
                raise FAULT_ERRORS["bram_soft_error"](
                    f"BRAM soft error at {scope}"
                )
            return report, pcie, overhead, backoff_total, events, None
        except TransientDeviceError as exc:
            if attempt >= policy.max_retries:
                return (None, pcie, overhead, backoff_total, events,
                        exc.kind)
            backoff = policy.backoff_seconds(
                core.backoff_seed, attempt, *scope,
            )
            events.append(FaultEvent(
                kind=exc.kind, scope=scope, attempt=attempt,
                action="retry", backoff_seconds=backoff,
                device=core.device,
            ))
            # Backoff is charged, not slept: it delays the modeled
            # FPGA-side critical path and is booked as stage wall time.
            overhead += backoff
            backoff_total += backoff
            attempt += 1


def _tightened_subpartitions(
    part: CST,
    plan: StagePlan,
    limits: PartitionLimits,
) -> tuple[list[CST], PartitionStats] | None:
    """Re-split a failed partition under a halved ``delta_S``.

    Smaller pieces shorten kernel residency, so a partition that keeps
    hitting watchdog-style faults gets another chance as several
    quicker launches. Returns ``None`` when the partition cannot be
    re-split (already minimal, or the tightened limits are infeasible).

    Algorithm 2 is deterministic, so this runs uncached and free of
    context state — which is what lets the whole ladder execute inside
    a worker process. Ladder re-splits are rare (faults only), so the
    lost memoization costs wall time on no happy path.
    """
    tightened = PartitionLimits(
        max_bytes=max(limits.max_bytes // 2, ENTRY_BYTES),
        max_degree=limits.max_degree,
    )
    try:
        parts, stats = partition_to_list(part, plan.order, tightened)
    except PartitionError:
        return None
    if len(parts) <= 1:
        return None
    return parts, stats


def _run_cpu_partition(
    part: CST, order: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], CpuMatchCounters]:
    """Host matcher over one CPU-share (or fallback) partition.

    Counters are private to the task and merged by the caller in
    partition order; integer sums are order-independent, so the
    modeled CPU-share seconds are identical to the old serial loop.
    """
    counters = CpuMatchCounters()
    found = cst_embeddings(part, order, counters=counters)
    return found, counters


def _supervise_partition(
    core: SupervisorCore,
    plan: StagePlan,
    limits: PartitionLimits | None,
    collect_results: bool,
    ladder_replay: dict,
    part: CST,
    idx: int,
    journal_append: Callable[[dict], Any] | None = None,
) -> PartitionOutcome:
    """One FPGA partition on its device, as a pool task.

    Without a fault plan this is one clean launch (transfer + kernel);
    with one it walks the degradation ladder. Every input is picklable
    (``core`` is the device's extracted
    :class:`~repro.runtime.faults.SupervisorCore`), so supervised
    partitions run inline or in the worker pool alike. Fault
    decisions and backoff are pure in the seed and scope, so a worker
    process reproduces the parent's schedule bit-identically.

    An explicit worklist replaces the old recursive ``supervise``
    closure, so arbitrarily deep re-partition ladders cannot hit
    Python's recursion limit. Sub-partitions are pushed in reverse so
    the LIFO pop order equals the old depth-first traversal, which
    keeps fault-event order — and therefore the health record —
    bit-identical to serial execution. Everything the ladder produces
    is accumulated privately in a :class:`PartitionOutcome` — including
    CPU-fallback matching, which runs inside the task so the outcome
    is a self-contained, journalable unit; the stage merges outcomes
    in partition-index order.

    With a run journal active, each rung decision (retries exhausted →
    re-partition or CPU fallback) becomes a write-ahead ``ladder``
    record: through ``journal_append`` the moment it is decided when
    the task shares the parent's memory, or accumulated on
    ``out.ladder_records`` and journaled by the parent just before the
    partition record when the task runs in a worker process (the
    journal's fd does not cross that boundary). Either way the record
    precedes its partition record in the file, so a resumed run finds
    the rungs of any partition that never completed and *continues*
    the ladder: already-exhausted retry attempts are replayed from the
    journal (same charged backoff and wasted work, same fault events)
    instead of being re-attempted. ``ladder_replay`` carries those
    records in (the parent reads the journal; workers must not).
    """
    policy = core.retry_policy
    engine = FastEngine(core.fpga, core.engine_variant,
                        trace_modules=core.trace_modules)
    link = PcieLink(core.fpga)
    out = PartitionOutcome()
    stack: list[tuple[CST, tuple, bool]] = [(part, ("partition", idx), True)]
    while stack:
        cur, scope, may_repartition = stack.pop()
        replayed = ladder_replay.get(scope)
        if replayed is not None:
            # The journal already saw this scope exhaust its retries:
            # continue the ladder from the recorded rung instead of
            # re-running the attempts.
            report = None
            pcie = replayed["pcie_seconds"]
            overhead = replayed["overhead_seconds"]
            backoff = replayed["backoff_wall_seconds"]
            events = [event_from_dict(e) for e in replayed["events"]]
            last_kind = replayed["kind"]
        else:
            report, pcie, overhead, backoff, events, last_kind = (
                _attempt_partition(
                    core, engine, link, cur, scope,
                    plan.match_plan, collect_results,
                )
            )
        out.pcie_seconds += pcie
        out.overhead_seconds += overhead
        out.backoff_wall_seconds += backoff
        out.events.extend(events)
        if report is not None:
            out.reports.append(report)
            # One timeline segment per successful launch: the transfer
            # (including wasted attempts) and the card-side residency
            # (kernel plus wasted kernel work and backoff).
            out.segments.append((pcie, report.seconds + overhead))
            continue
        split = None
        if may_repartition and limits is not None:
            split = _tightened_subpartitions(cur, plan, limits)
        if replayed is None:
            # Write-ahead: the rung decision is durable (or queued for
            # the parent's result-merge append) before the
            # re-partition/fallback work starts.
            record = {
                "type": "ladder",
                "index": idx,
                "scope": list(scope),
                "kind": last_kind,
                "action": (
                    "repartition" if split is not None else "cpu_fallback"
                ),
                "pcie_seconds": pcie,
                "overhead_seconds": overhead,
                "backoff_wall_seconds": backoff,
                "events": [e.to_dict() for e in events],
            }
            if journal_append is not None:
                journal_append(record)
            else:
                out.ladder_records.append(record)
        if split is not None:
            subparts, stats = split
            out.events.append(FaultEvent(
                kind=last_kind, scope=scope,
                attempt=policy.max_retries, action="repartition",
                device=core.device,
            ))
            host_cost = core.host_seconds(stats.total_bytes // ENTRY_BYTES)
            # Re-partitioning runs on the host, not the card: it is
            # part of the flat fault overhead but stays out of the
            # overlapped card timeline (tracked separately).
            out.overhead_seconds += host_cost
            out.host_overhead_seconds += host_cost
            out.segments.append((pcie, overhead))
            for j, sub in reversed(list(enumerate(subparts))):
                stack.append((sub, (*scope, j), False))
            continue
        out.events.append(FaultEvent(
            kind=last_kind, scope=scope,
            attempt=policy.max_retries, action="cpu_fallback",
            device=core.device,
        ))
        out.segments.append((pcie, overhead))
        out.fallbacks.append(_run_cpu_partition(cur, plan.order))
    return out


def _build_tasks(
    ctx: RunContext,
    plan: StagePlan,
    work: ScheduledWork,
    devices: Fleet,
    data: Graph,
    engine_variant: str,
    collect_results: bool,
    limits: PartitionLimits | None,
    dev_of: list[int],
    pending: tuple[list[int], list[int]],
    journal_append: Callable[[dict], Any] | None,
) -> list[Task]:
    """One task per pending partition, FPGA tasks first; each FPGA task
    is supervised on the config of the device it was placed on."""
    journal = ctx.journal
    replay = (
        journal.ladder_records()
        if journal is not None and journal.resume else {}
    )
    cores = [
        SupervisorCore(
            fpga=cfg,
            engine_variant=engine_variant,
            retry_policy=ctx.retry_policy,
            fault_plan=ctx.fault_plan,
            seed=ctx.seed,
            trace_modules=ctx.tracer.enabled,
            cpu_cost=ctx.cpu_cost,
            avg_degree=data.average_degree(),
            num_vertices=data.num_vertices,
            # Only a pool names devices on its events; the fleet of
            # one leaves device 0 implicit.
            device=d if work.pooled else None,
        )
        for d, cfg in enumerate(devices.configs)
    ]
    pending_fpga, pending_cpu = pending
    tasks: list[Task] = [
        (_supervise_partition,
         (cores[dev_of[i]], plan, limits, collect_results, replay,
          work.fpga_parts[i], i, journal_append))
        for i in pending_fpga
    ]
    tasks.extend(
        (_run_cpu_partition, (work.cpu_parts[j], plan.order))
        for j in pending_cpu
    )
    return tasks


def _dispatch(
    ctx: RunContext,
    st: Any,
    tasks: list[Task],
    on_done: Callable[[int, Any], None],
    pool: Any,
    pool_stats0: dict[str, int],
) -> None:
    """Run ``tasks`` inline (``pool is None``) or on the warm pool, then
    book the pool's counter deltas since ``pool_stats0`` and a
    wall-clock ``pool`` lane of its decisions."""
    if pool is not None:
        # Ask workers to time their tasks only when this run is
        # tracing; the reply protocol is unchanged otherwise.
        pool.set_trace(ctx.tracer.enabled)
    run_tasks(tasks, on_done, pool, ctx)
    if pool is None:
        return
    # Per-stage deltas of the warm pool's cumulative counters (the
    # pool outlives this stage), plus a wall-clock `pool` trace lane
    # of every supervision decision. All of this is strictly
    # wall-domain: modeled seconds and counts are merged later and
    # cannot see it.
    after = pool.stats.to_dict()
    st.note(
        pool_warm=True,
        **{
            f"pool_{key}": after[key] - pool_stats0.get(key, 0)
            for key in (
                "spawned", "respawns", "redispatches", "hedges",
                "quarantines", "shm_fallbacks", "stall_kills",
                "recycled", "chunks",
            )
        },
    )
    tracer = ctx.tracer
    events = pool.drain_events()
    worker_spans = pool.drain_worker_spans()
    if tracer.enabled and (events or worker_spans):
        epoch = time.perf_counter() - tracer.now_wall()
        for ts, kind, detail in events:
            tracer.instant(
                "pool", kind, max(0.0, ts - epoch),
                clock=WALL, **detail,
            )
            if ctx.log is not None:
                ctx.log.info(
                    f"pool_{kind}",
                    request_id=tracer.request_id,
                    **detail,
                )
        # Worker-side spans (task execution, injected stalls, cold shm
        # attaches) land on one wall lane per worker slot —
        # perf_counter is CLOCK_MONOTONIC and system-wide, so the same
        # epoch rebases them. Slot -1 is parent-inline quarantine work.
        for slot, name, start, seconds, args in worker_spans:
            lane = (
                "pool/parent" if slot < 0
                else f"pool/worker{slot}"
            )
            tracer.span(
                lane, name, max(0.0, start - epoch),
                seconds, clock=WALL, **args,
            )


def _merge(
    ctx: RunContext,
    plan: StagePlan,
    work: ScheduledWork,
    devices: Fleet,
    outcomes: dict[int, PartitionOutcome],
    cpu_done: dict[int, tuple[list, CpuMatchCounters]],
    data: Graph,
    engine_variant: str,
    collect_results: bool,
    threads: int,
    efficiency: float,
) -> ExecuteOutcome:
    """Index-ordered merge of every outcome into the stage's result.

    Fault events, CPU-share results and fallbacks merge in partition
    order; each device walks its queue in launch order. A device's
    FPGA-side time is the flat ``pcie + kernel + fault_overhead`` at
    ``buffers = 1``, else ``timeline + host_overhead + fetch`` (host
    re-partitioning and the fetch cannot overlap kernels); the fleet's
    is the makespan. An idle device of a pool costs nothing; the single
    device always fetches its results.
    """
    def host_seconds(c: CpuMatchCounters) -> float:
        """The basic matcher's modeled seconds on ``threads`` cores."""
        return ctx.cpu_cost.seconds(
            OpCounters(recursive_calls=c.recursive_calls,
                       extensions=c.extensions_generated,
                       edge_checks=c.edge_checks, embeddings=c.embeddings),
            data.average_degree(), data.num_vertices,
        ) / max(1.0, threads * efficiency)

    buffers = ctx.executor.buffers
    result_bytes = plan.query.num_vertices * ENTRY_BYTES
    placement = work.placement
    runs = [
        DeviceLoad(index=d, part=part, workload=placement.loads[d],
                   num_csts=len(placement.queues[d]))
        for d, part in enumerate(devices.parts)
    ]
    for run, queue in zip(runs, placement.queues):
        if not queue and work.pooled:
            continue
        cfg = devices.configs[run.index]
        run.kernel = KernelReport(
            variant=engine_variant, clock_mhz=cfg.clock_mhz
        )
        if collect_results:
            run.kernel.results = []
        segments: list[tuple[float, float]] = []
        for i in queue:
            out = outcomes[i]
            for report in out.reports:
                run.kernel.merge(report)
            run.pcie_seconds += out.pcie_seconds
            run.fault_overhead_seconds += out.overhead_seconds
            run.host_overhead_seconds += out.host_overhead_seconds
            segments.extend(out.segments)
        run.fetch_seconds = PcieLink(cfg).fetch_from_card(
            run.kernel.embeddings * result_bytes
        )
        run.pcie_seconds += run.fetch_seconds
        run.schedule = overlap_schedule(segments, buffers)
        run.timeline = run.schedule[-1][3] if run.schedule else 0.0
        if buffers <= 1:
            # The exact pre-pipeline arithmetic: a flat serial sum.
            run.seconds = (run.pcie_seconds + run.kernel.seconds
                           + run.fault_overhead_seconds)
        else:
            # Double-buffered card timeline; host-side re-partition
            # cost and the result fetch cannot overlap kernels.
            run.seconds = (run.timeline + run.host_overhead_seconds
                           + run.fetch_seconds)
    kernel = runs[0].kernel
    if work.pooled:  # fleet-wide counts and cycles (clocks may differ)
        kernel = KernelReport(variant=engine_variant,
                              clock_mhz=devices.configs[0].clock_mhz)
        if collect_results:
            kernel.results = []
        for run in runs:
            if run.kernel is not None:
                kernel.merge(run.kernel)

    # Fallback partitions run on the host *after* their FPGA attempts
    # failed, so their time cannot hide in the overlap window; it is
    # charged on top of the stage total. The matching itself happened
    # inside each supervisor task (which is what makes an outcome
    # journalable as one record); here the counters merge in
    # partition-index, then ladder, order.
    cpu, fallback = CpuMatchCounters(), CpuMatchCounters()
    cpu_embeddings = 0
    cpu_results: list[tuple[int, ...]] = []
    found_lists = [cpu_done[j] for j in range(len(work.cpu_parts))]
    fallbacks = []
    for i in range(len(work.fpga_parts)):
        for event in outcomes[i].events:
            ctx.health.record(event)
        fallbacks.extend(outcomes[i].fallbacks)
    for counters_sum, pairs in ((cpu, found_lists), (fallback, fallbacks)):
        for found, counters in pairs:
            counters_sum.merge(counters)
            cpu_embeddings += len(found)
            if collect_results:
                cpu_results.extend(found)
    return ExecuteOutcome(
        kernel=kernel,
        cpu_embeddings=cpu_embeddings,
        cpu_results=cpu_results,
        pcie_seconds=sum(run.pcie_seconds for run in runs),
        cpu_share_seconds=host_seconds(cpu),
        fault_overhead_seconds=sum(r.fault_overhead_seconds for r in runs),
        fallback_seconds=host_seconds(fallback),
        fpga_seconds=max(run.seconds for run in runs),
        devices=runs,
    )


def _emit_modeled_lanes(
    ctx: RunContext,
    work: ScheduledWork,
    executed: ExecuteOutcome,
    outcomes: dict[int, PartitionOutcome],
    clocks: list[float],
) -> None:
    """Every modeled trace lane of the stage.

    All modeled lanes are emitted here, after the index-ordered merge,
    never from worker threads — the modeled half of a trace is
    deterministic at any ``workers`` (wall lanes are real time and are
    not).
    """
    tracer = ctx.tracer
    if executed.cpu_share_seconds:
        tracer.span("host", "cpu share", 0.0,
                    executed.cpu_share_seconds, clock=MODELED)
    if executed.fallback_seconds:
        tracer.span("host", "cpu fallback",
                    max(executed.cpu_share_seconds, executed.fpga_seconds),
                    executed.fallback_seconds, clock=MODELED)
    for run in executed.devices:
        if run.kernel is None:
            continue
        trace_device_lanes(tracer, run.index, run.schedule,
                           run.kernel.module_spans, clocks[run.index],
                           part=run.part)
        if run.fetch_seconds:
            tracer.span(f"{device_lane_prefix(run.index, run.part)}/pcie",
                        "fetch results", run.timeline, run.fetch_seconds,
                        clock=MODELED)
        if run.host_overhead_seconds:
            tracer.span("host", "repartition", run.timeline,
                        run.host_overhead_seconds, clock=MODELED)
        seg = 0  # each partition's faults mark its first launch
        for i in work.placement.queues[run.index]:
            at = (run.schedule[seg][0] if seg < len(run.schedule)
                  else run.timeline)
            for event in outcomes[i].events:
                tracer.instant("faults", f"{event.kind}:{event.action}",
                               at, clock=MODELED, partition=i,
                               attempt=event.attempt)
            seg += len(outcomes[i].segments)
    for status, kind in (("dead", DEVICE_DEAD), ("open", "breaker_open")):
        for d, device_status in enumerate(work.placement.status):
            if device_status == status:
                tracer.instant("faults", f"{kind}:failover", 0.0,
                               clock=MODELED, device=d)
    if executed.resumed_partitions:
        tracer.count("journal_replays", executed.resumed_partitions)


def execute_stage(
    ctx: RunContext,
    plan: StagePlan,
    work: ScheduledWork,
    data: Graph,
    engine_variant: str,
    collect_results: bool = False,
    cpu_share_threads: int = 8,
    cpu_thread_efficiency: float = 0.45,
    limits: PartitionLimits | None = None,
) -> ExecuteOutcome:
    """Kernel over FPGA partitions + basic matcher over CPU partitions.

    Each FPGA partition runs on the device the schedule stage placed it
    on; a single device is the fleet of one. The stage's modeled time
    follows the Section V-C overlap rule:
    ``max(cpu_share, fpga_side) + fallback``, the FPGA side being the
    makespan over devices. With ``buffers = 1`` (the default) a
    device's time is the flat serial sum
    ``pcie + kernel + fault_overhead``; with ``buffers >= 2`` it is the
    double-buffered pipeline of :func:`overlap_schedule`, where the
    transfer of partition *i* overlaps the kernels of the previous
    ``buffers - 1`` launches (host-side re-partition cost and the
    result fetch stay serial). Independent partitions — FPGA and
    CPU-share alike — run inline or on the context's warm worker pool
    (:func:`~repro.runtime.executor.run_tasks`); results merge in
    partition-index order, so
    counts, results, modeled seconds, and the health record do not
    depend on ``workers``.

    With a fault plan active on the context, every FPGA partition runs
    under a supervisor implementing the degradation ladder (see
    docs/robustness.md):

    1. transient faults retry under ``ctx.retry_policy`` (backoff
       charged to wall and modeled time);
    2. a partition that exhausts retries is re-partitioned under a
       tightened ``delta_S`` (when ``limits`` is given and the piece is
       splittable) and each sub-partition retried;
    3. anything still failing is re-routed to the CPU matcher, which
       is exact on any CST partition (Theorem 1), so embedding counts
       are identical under every recoverable fault schedule.

    Recovery costs are charged as ``fault_overhead_seconds`` on the
    FPGA side of the overlap and ``fallback_seconds`` after it; both
    are exactly zero — and the arithmetic unchanged — without faults.

    With ``ctx.journal`` set, the stage is crash-safe: the journal
    header pins the run fingerprint and every completed partition is
    appended as one durable record the moment it finishes. In resume
    mode, journaled partitions are replayed (bit-identical counts,
    modeled seconds, and fault events) and only the remaining worklist
    is dispatched; a fingerprint mismatch raises
    :class:`~repro.common.errors.JournalMismatchError` before any work
    runs.
    """
    devices = work.fleet
    placement = work.placement
    journal = ctx.journal
    with ctx.stage("execute") as st:
        for d, status in enumerate(placement.status):
            ctx.health.mark_device(d, status)
        for event in placement.events:
            ctx.health.record(event)
        n_fpga = len(work.fpga_parts)
        n_cpu = len(work.cpu_parts)

        # -- journal open / replay -------------------------------------
        outcomes: dict[int, PartitionOutcome] = {}
        cpu_done: dict[int, tuple[list, CpuMatchCounters]] = {}
        if journal is not None:
            extra: tuple = ()
            if work.pooled:
                # A pool pins its placement, deterministic given the
                # ledger state, which a crash cannot have changed (the
                # ledger persists only at finish_run).
                extra = ("multi", placement.queues, placement.status,
                         tuple(zip(devices.parts,
                                   map(repr, devices.configs))))
            total_bytes = sum(
                p.size_bytes() for p in (*work.fpga_parts, *work.cpu_parts)
            )
            fingerprint = run_fingerprint(
                ctx, plan, data, engine_variant,
                (n_fpga, n_cpu, total_bytes),
                ctx.executor.buffers, collect_results, extra=extra,
            )
            journal.ensure_header(
                fingerprint,
                backend=ctx.current_metrics.backend,
                fpga_partitions=n_fpga,
                cpu_partitions=n_cpu,
            )
            if journal.resume:
                for i, rec in journal.partition_records().items():
                    if 0 <= i < n_fpga:
                        outcomes[i] = outcome_from_record(rec)
                for j, rec in journal.cpu_records().items():
                    if not 0 <= j < n_cpu:
                        continue
                    stored = rec.get("results")
                    found = (
                        [tuple(r) for r in stored]
                        if stored is not None
                        else [()] * rec["embeddings"]
                    )
                    cpu_done[j] = (found, counters_from_dict(rec["counters"]))
        resumed = len(outcomes) + len(cpu_done)

        # -- deadline cancellation points ------------------------------
        # The budget is checked against the modeled cost of the
        # *contiguous prefix* of completed FPGA partitions, on top of
        # the modeled time of the earlier stages. Each prefix partition
        # adds its flat pcie + kernel + fault overhead to the device it
        # is queued on, and the check charges the busiest device, as
        # the stage charges the makespan: at ``buffers = 1`` a prefix
        # never costs more than the finished run (on a single device
        # it is the flat serial sum). Prefix costs are fixed by the
        # worklist, not by completion order, so whether and at which
        # prefix a run is cancelled is identical at any worker count.
        # Every checked outcome is already journaled, so a cancelled
        # run's journal resumes bit-identically.
        token = ctx.cancellation
        dev_of = placement.device_of()
        device_cost = [ctx.current_metrics.modeled_seconds] * len(
            devices.configs
        )
        prefix = [0]

        def check_deadline() -> None:
            if token is None:
                return
            where = "execute partition prefix"
            token.check(max(device_cost), f"{where} {prefix[0]}")
            while prefix[0] in outcomes:
                out = outcomes[prefix[0]]
                device_cost[dev_of[prefix[0]]] += (
                    out.pcie_seconds
                    + sum(r.seconds for r in out.reports)
                    + out.overhead_seconds
                )
                prefix[0] += 1
                token.check(max(device_cost), f"{where} {prefix[0]}")

        check_deadline()  # a replayed prefix may already exceed it

        # FPGA and CPU-share partitions are all independent, so one
        # pool dispatch covers both; only work the journal has not
        # already completed is dispatched. Completion callbacks run on
        # the calling thread and persist each outcome as it lands.
        pending_fpga = [i for i in range(n_fpga) if i not in outcomes]
        pending_cpu = [j for j in range(n_cpu) if j not in cpu_done]

        # Warm supervised worker pool: forked once on the context and
        # reused across execute stages (and serve batches), with
        # worker death / stalls / shm loss recovered instead of
        # crashing the run. The pool ships each task's CST over its
        # shared-memory arena. Its counters are snapshotted before
        # ensure_pool, so a first stage counts the fork it caused.
        pool_stats0 = (
            ctx.worker_pool.stats.to_dict()
            if ctx.worker_pool is not None else {}
        )
        pool = (
            ctx.ensure_pool()
            if len(pending_fpga) + len(pending_cpu) > 1 else None
        )

        # Inline supervisors share the parent's memory and journal
        # each ladder rung write-ahead; pool supervisors cannot
        # reach the journal fd, so rung records ride back on the
        # outcome and the parent appends them in on_done — before
        # the partition record, preserving order.
        journal_append = (
            journal.append
            if journal is not None and journal.active and pool is None
            else None
        )
        tasks = _build_tasks(
            ctx, plan, work, devices, data, engine_variant,
            collect_results, limits, dev_of, (pending_fpga, pending_cpu),
            journal_append,
        )

        def on_done(pos: int, result: object) -> None:
            if pos < len(pending_fpga):
                i = pending_fpga[pos]
                out = result
                outcomes[i] = out
                if journal is not None:
                    for rec in out.ladder_records:
                        journal.append(rec)
                    journal.append(
                        outcome_to_record(i, out, collect_results)
                    )
                check_deadline()
            else:
                j = pending_cpu[pos - len(pending_fpga)]
                found, counters = result
                cpu_done[j] = (found, counters)
                if journal is not None:
                    journal.append({
                        "type": "cpu",
                        "index": j,
                        "embeddings": len(found),
                        "counters": counters_to_dict(counters),
                        "results": (
                            [list(r) for r in found]
                            if collect_results else None
                        ),
                    })

        _dispatch(ctx, st, tasks, on_done, pool, pool_stats0)
        executed = _merge(
            ctx, plan, work, devices, outcomes, cpu_done, data,
            engine_variant, collect_results,
            cpu_share_threads, cpu_thread_efficiency,
        )
        executed.resumed_partitions = resumed
        # Backoff is charged, not slept: it is booked as stage wall
        # time on top of the real elapsed time (zero without faults).
        st.wall_seconds += sum(
            outcomes[i].backoff_wall_seconds for i in range(n_fpga)
        )
        if ctx.tracer.enabled:
            _emit_modeled_lanes(ctx, work, executed, outcomes,
                                [c.clock_mhz for c in devices.configs])

        kernel = executed.kernel
        st.modeled_seconds += (
            max(executed.cpu_share_seconds, executed.fpga_seconds)
            + executed.fallback_seconds
        )
        st.note(
            kernel_seconds=sum(run.kernel.seconds for run in executed.devices
                               if run.kernel is not None),
            pcie_seconds=executed.pcie_seconds,
            cpu_share_seconds=executed.cpu_share_seconds,
            fpga_seconds=executed.fpga_seconds,
            cycles=kernel.total_cycles,
            slr_crossing_cycles=kernel.slr_crossing_cycles,
            rounds=kernel.rounds,
            N=kernel.total_partials,
            M=kernel.total_edge_tasks,
            buffer_peak=max(kernel.buffer_peaks.values(), default=0),
            num_csts=kernel.num_csts,
            fault_overhead_seconds=executed.fault_overhead_seconds,
            fallback_seconds=executed.fallback_seconds,
            workers=ctx.executor.workers,
            buffers=ctx.executor.buffers,
            pool="inline" if pool is None else "process",
            cst_plane="local" if pool is None else pool.cst_plane,
        )
        if not work.pooled:
            st.note(overlap_timeline=executed.devices[0].timeline)
        else:
            st.note(
                overlap_timeline={str(run.index): run.timeline
                                  for run in executed.devices
                                  if run.kernel is not None},
                makespan_seconds=executed.fpga_seconds,
                device_seconds=tuple(run.seconds for run in executed.devices),
                dead_devices=tuple(d for d, s in enumerate(placement.status)
                                   if s == "dead"),
                breaker_open_devices=tuple(
                    d for d, s in enumerate(placement.status) if s == "open"
                ),
            )
        if journal is not None:
            st.note(
                journaled=True,
                journal_path=str(journal.path),
                resumed_partitions=resumed,
            )
    return executed


def merge_stage(
    ctx: RunContext,
    executed: ExecuteOutcome,
    collect_results: bool = False,
) -> MergedRun:
    """Combine FPGA and CPU outcomes into the run's bottom line.

    Total modeled seconds is the sum of the pipeline's per-stage
    modeled times (the execute stage already applied the CPU/FPGA
    overlap rule internally).
    """
    with ctx.stage("merge") as st:
        embeddings = executed.kernel.embeddings + executed.cpu_embeddings
        results = None
        if collect_results:
            results = list(executed.kernel.results or [])
            results.extend(executed.cpu_results)
        total_seconds = ctx.current_metrics.modeled_seconds
        st.note(embeddings=embeddings, total_seconds=total_seconds)
        if executed.resumed_partitions:
            st.note(resumed_partitions=executed.resumed_partitions)
    return MergedRun(
        embeddings=embeddings,
        total_seconds=total_seconds,
        results=results,
    )
