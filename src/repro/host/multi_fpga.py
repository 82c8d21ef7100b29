"""Multi-FPGA extension (Section VII-E).

The paper notes that because every CST partition is an independent,
complete search space, FAST extends naturally to multiple FPGAs: "the
CPU can assign the CST structure to the FPGA with the minimum total
workload and collect final results after all the FPGAs complete their
tasks". No new machinery is needed: the runner threads the same stages
as :class:`~repro.host.runtime.FastRunner` and hands its device pool
to the schedule stage as a :class:`~repro.host.scheduler.Fleet`.
:func:`~repro.host.scheduler.place_partitions` assigns each partition
to the device with the least accumulated estimated workload (greedy
min-load, the online analogue of LPT); the execute stage runs it there
under the same fault ladder, deadline checks and per-partition journal
records as a single device. End-to-end time is host preparation plus
the slowest device (the makespan).

Beyond the paper's "N identical FPGAs", the runner accepts a
heterogeneous ``fleet`` of catalog parts
(:func:`repro.fpga.catalog.parse_fleet`, e.g. ``"u200,u280x2"``). A
fleet changes three things, none of them counts: Algorithm 2 runs
against the *tightest* device's ``delta_S`` / ``delta_D`` so every
partition fits every card; placement costs are normalised by each
part's clock and memory latency, so faster cards absorb more work; and
a partition whose CST would span SLRs on a candidate card has the
modeled crossing penalty added to that card's bid, steering it toward
single-SLR placements (docs/devices.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DeviceError
from repro.costs.cpu import CpuCostModel
from repro.cst.partition import PartitionLimits
from repro.fpga.catalog import DeviceSpec, parse_fleet
from repro.fpga.config import FpgaConfig
from repro.graph.graph import Graph
from repro.host.runtime import _ledger_scaled_limits
from repro.host.scheduler import Fleet
from repro.query.query_graph import QueryGraph
from repro.runtime.context import RunContext, RunMetrics
from repro.runtime.stages import (
    DeviceLoad,
    build_cst_stage,
    execute_stage,
    merge_stage,
    partition_stage,
    plan_stage,
    schedule_stage,
)

#: Pool size of the multi-FPGA backend when no fleet names its devices
#: (the registry backend and the serving layer both read it).
DEFAULT_NUM_DEVICES = 2


def fleet_size(fleet: tuple[DeviceSpec, ...] | None) -> int:
    """Devices of the multi-FPGA pool: the fleet's, else the default."""
    return len(fleet) if fleet is not None else DEFAULT_NUM_DEVICES


@dataclass
class MultiFpgaResult:
    """Outcome of a multi-device run."""

    embeddings: int
    total_seconds: float
    build_seconds: float
    partition_seconds: float
    makespan_seconds: float
    devices: list[DeviceLoad]
    num_partitions: int
    metrics: RunMetrics | None = None

    @property
    def degraded(self) -> bool:
        """Whether any device died and its queue was redistributed."""
        return self.metrics is not None and self.metrics.health.degraded

    @property
    def load_imbalance(self) -> float:
        """Max device time over mean device time (1.0 = perfect)."""
        times = [d.seconds for d in self.devices if d.num_csts]
        if not times:
            return 1.0
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    def speedup_over(self, single: "MultiFpgaResult") -> float:
        """End-to-end speedup relative to another (e.g. 1-device) run."""
        if self.total_seconds == 0:
            return 1.0
        return single.total_seconds / self.total_seconds


@dataclass
class MultiFpgaRunner:
    """FAST across a pool of simulated FPGAs.

    Without a ``fleet`` the pool is ``num_devices`` identical copies of
    ``config`` (the paper's Section VII-E setting). A ``fleet`` — a
    tuple of :class:`~repro.fpga.catalog.DeviceSpec` or a spec string
    like ``"u200,u280x2"`` — makes the pool heterogeneous: one config
    per device, capacity-aware placement, SLR-aware bids, and
    part-labeled trace lanes. ``num_devices`` then follows the fleet.
    """

    num_devices: int = DEFAULT_NUM_DEVICES
    config: FpgaConfig = field(default_factory=FpgaConfig)
    variant: str = "sep"
    k_policy: int | str = "greedy"
    cpu_cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    #: Shared execution context (see :class:`FastRunner.context`).
    context: RunContext | None = None
    #: Heterogeneous device fleet; ``None`` = ``num_devices`` x
    #: ``config``.
    fleet: tuple[DeviceSpec, ...] | str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.fleet, str):
            self.fleet = parse_fleet(self.fleet)
        elif self.fleet is not None:
            self.fleet = tuple(self.fleet)
        if self.fleet is not None:
            if not self.fleet:
                raise DeviceError("fleet spec resolves to zero devices")
            self.num_devices = len(self.fleet)
        if self.num_devices < 1:
            raise DeviceError("need at least one device")

    def _context(self) -> RunContext:
        if self.context is not None:
            return self.context
        return RunContext(fpga=self.config, cpu_cost=self.cpu_cost_model)

    def _pool(self, ctx: RunContext) -> Fleet:
        """The devices in index order: the fleet, else N x ``ctx.fpga``."""
        if self.fleet is None:
            n = self.num_devices
            return Fleet((ctx.fpga,) * n, (None,) * n)
        return Fleet(
            tuple(spec.config for spec in self.fleet),
            tuple(spec.part for spec in self.fleet),
            bid=self._bid_cost,
        )

    def _bid_cost(
        self, cfg: FpgaConfig, workload: float, part_bytes: int
    ) -> float:
        """Modeled cost of one partition on one candidate device.

        Homogeneous pools keep the raw workload estimate — exactly the
        paper's min-workload rule. A fleet normalises the estimate into
        modeled microseconds on the candidate: kernel cycles at the
        part's clock, plus the streaming CST load at its memory
        bandwidth/latency, plus the SLR crossing penalty whenever this
        partition's CST would span SLRs there — which is what makes
        placement prefer devices where the partition fits one SLR.
        """
        if self.fleet is None:
            return workload
        cycles = (
            workload
            + part_bytes / cfg.load_bytes_per_cycle
            + cfg.dram_latency
        )
        if cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0:
            remote = cfg.slr_remote_fraction(part_bytes)
            cycles += cfg.slr_crossing_penalty_cycles * remote * workload
        return cycles / cfg.clock_mhz

    def run(
        self,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
    ) -> MultiFpgaResult:
        """Match ``query`` using min-workload assignment of partitions."""
        ctx = self._context()
        ctx.begin_run("multi-fpga")

        plan = plan_stage(ctx, query, data, order)
        cst = build_cst_stage(ctx, plan, data)

        pool = self._pool(ctx)
        # Any partition may land on any card (including through
        # failover), so Algorithm 2 runs against the tightest
        # delta_S / delta_D across the pool.
        limits = PartitionLimits(
            max_bytes=min(
                c.cst_budget_bytes(plan.query) for c in pool.configs
            ),
            max_degree=min(c.max_ports for c in pool.configs),
        )
        ledger = ctx.health_ledger
        if ledger is not None:
            # Pre-shrink delta_S when any device's history shows
            # residency faults: every partition may land on the
            # degraded card, so the whole worklist gets shorter
            # kernel residency (counts are delta_S-independent).
            worst = min(range(self.num_devices), key=ledger.delta_s_scale)
            limits = _ledger_scaled_limits(ctx, limits, worst)
        work = partition_stage(
            ctx, data, cst, plan, limits,
            k_policy=self.k_policy, split_policy=ctx.split_policy,
        )
        schedule_stage(ctx, work, pool)
        executed = execute_stage(
            ctx, plan, work, data, self.variant, limits=limits
        )
        merged = merge_stage(ctx, executed)
        metrics = ctx.finish_run()

        return MultiFpgaResult(
            embeddings=merged.embeddings,
            total_seconds=merged.total_seconds,
            build_seconds=metrics.stages["build_cst"].modeled_seconds,
            partition_seconds=metrics.stages["partition"].modeled_seconds,
            makespan_seconds=executed.fpga_seconds,
            devices=executed.devices,
            num_partitions=work.num_partitions,
            metrics=metrics,
        )
