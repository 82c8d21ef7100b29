"""Host-side workload scheduler (Algorithm 3) and device placement.

After a CST (or partition) is ready, the scheduler decides whether the
CPU or the FPGA processes it. The rule is Algorithm 3's: assign to the
CPU only while the CPU's cumulative share of the total estimated
workload stays below the threshold ``delta``; everything else goes to
the FPGA, which is offloaded immediately.

:func:`place_partitions` then spreads the FPGA share over a
:class:`Fleet` (Section VII-E); a single device is the fleet of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.common.errors import FatalDeviceError, SchedulerError
from repro.cst.structure import CST
from repro.cst.workload import estimate_workload
from repro.fpga.config import FpgaConfig
from repro.runtime.faults import DEVICE_DEAD, FaultEvent


@dataclass
class WorkloadScheduler:
    """Tracks W_C / W_F and applies the delta threshold."""

    delta: float = 0.1
    w_cpu: float = 0.0
    w_fpga: float = 0.0
    cpu_csts: int = 0
    fpga_csts: int = 0
    decisions: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise SchedulerError(
                f"delta must be in [0, 1), got {self.delta}"
            )

    @property
    def total_workload(self) -> float:
        return self.w_cpu + self.w_fpga

    @property
    def cpu_fraction(self) -> float:
        """Achieved CPU share of the total estimated workload."""
        total = self.total_workload
        return self.w_cpu / total if total > 0 else 0.0

    def would_accept_cpu(self, workload: float) -> bool:
        """Algorithm 3 line 2: does this CST fit the CPU budget?"""
        total = self.w_cpu + self.w_fpga + workload
        if total <= 0:
            return False
        return (self.w_cpu + workload) / total < self.delta

    def assign(self, cst: CST, workload: float | None = None) -> str:
        """Route one CST; returns ``"cpu"`` or ``"fpga"``.

        ``workload`` may be supplied when the caller already computed
        the estimate (avoids a second DP pass).
        """
        if workload is None:
            workload = estimate_workload(cst)
        if self.delta > 0 and self.would_accept_cpu(workload):
            self.w_cpu += workload
            self.cpu_csts += 1
            self.decisions.append(("cpu", workload))
            return "cpu"
        self.w_fpga += workload
        self.fpga_csts += 1
        self.decisions.append(("fpga", workload))
        return "fpga"


@dataclass(frozen=True)
class Fleet:
    """The FPGAs of one run in device-index order, with catalog part
    names (``None`` if anonymous) and, for a heterogeneous fleet, the
    per-device ``bid(config, workload, part_bytes)`` of one partition
    (``None`` keeps the paper's raw min-workload rule)."""

    configs: tuple[FpgaConfig, ...]
    parts: tuple[str | None, ...]
    bid: Callable[[FpgaConfig, float, int], float] | None = None


@dataclass(frozen=True)
class Placement:
    """Output of :func:`place_partitions`, one entry per device:
    ``queues`` of FPGA partition indices in launch order, accumulated
    ``loads``, queue lengths ``planned`` before failover, and ``status``
    ``"ok"``, ``"dead"`` or ``"open"`` (breaker); ``events`` holds one
    failover per moved partition."""

    queues: tuple[tuple[int, ...], ...]
    loads: tuple[float, ...]
    planned: tuple[int, ...]
    status: tuple[str, ...]
    events: tuple[FaultEvent, ...]

    def device_of(self) -> list[int]:
        """The device each FPGA partition index is queued on."""
        dev_of = [0] * sum(len(q) for q in self.queues)
        for d, queue in enumerate(self.queues):
            for i in queue:
                dev_of[i] = d
        return dev_of


def place_partitions(
    workloads: Sequence[float],
    sizes: Sequence[int] | None,
    configs: Sequence[FpgaConfig],
    penalties: Sequence[float],
    excluded: Mapping[int, str],
    bid: Callable[[FpgaConfig, float, int], float] | None = None,
) -> Placement:
    """Section VII-E placement of FPGA partitions on a device fleet.

    Each partition goes to the device with the least accumulated load,
    inflated by its health-ledger penalty (a flaky device fills last;
    the penalty also breaks ties at zero load). A ``bid`` adds the
    candidate's own cost of the partition to its key and its load
    (``sizes`` are read only by the bid). ``excluded`` maps each dead
    or breaker-open device to its failover event kind: placement first
    uses the whole fleet, then re-places each excluded device's queue
    on the survivors in device order — a partition runs anywhere
    (Definition 2).
    """
    n_dev = len(configs)
    survivors = [d for d in range(n_dev) if d not in excluded]
    if not survivors:
        raise FatalDeviceError(
            f"all {n_dev} devices are dead or breaker-open; no survivor "
            f"to run on"
        )
    loads = [0.0] * n_dev
    queues: list[list[int]] = [[] for _ in range(n_dev)]

    def assign(pool: Sequence[int], p: int) -> int:
        workload = workloads[p]
        size = sizes[p] if sizes is not None else 0
        if len(pool) == 1:
            target = pool[0]
        elif bid is None:
            target = min(pool, key=lambda d: (
                loads[d] * (1.0 + penalties[d]), penalties[d], d))
        else:
            target = min(pool, key=lambda d: (
                loads[d] * (1.0 + penalties[d])
                + bid(configs[d], workload, size), penalties[d], d))
        loads[target] += (workload if bid is None
                          else bid(configs[target], workload, size))
        queues[target].append(p)
        return target

    for p in range(len(workloads)):
        assign(range(n_dev), p)
    planned = tuple(len(q) for q in queues)
    events = []
    for d in sorted(excluded):
        events.extend(
            FaultEvent(kind=excluded[d], scope=("device", d), attempt=0,
                       action="failover", device=assign(survivors, p))
            for p in queues[d]
        )
        queues[d] = []
        loads[d] = 0.0
    return Placement(
        queues=tuple(tuple(q) for q in queues),
        loads=tuple(loads),
        planned=planned,
        status=tuple(
            "ok" if d not in excluded
            else "dead" if excluded[d] == DEVICE_DEAD else "open"
            for d in range(n_dev)
        ),
        events=tuple(events),
    )
