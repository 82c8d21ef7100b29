"""Overlapped, double-buffered partition execution.

The execute stage used to walk FPGA partitions serially and charge
``pcie + kernel`` as a flat sum. Section V-C of the paper instead
overlaps the pieces: while partition *i* computes on the card, the
host already streams partition *i + 1* over PCIe into a second on-card
buffer. This module provides both halves of that design:

:func:`overlap_timeline`
    The *modeled* double-buffered pipeline. Each partition is a
    ``(write_seconds, kernel_seconds)`` segment; with ``buffers``
    on-card staging buffers the timeline obeys

    .. code-block:: text

        T_i = max(T_{i-1}, C_{i-buffers}) + w_i     (transfer done)
        C_i = max(T_i,     C_{i-1})       + k_i     (kernel done)

    i.e. transfers serialize on the PCIe link, kernels serialize on
    the device, and transfer *i* additionally waits until the buffer
    it targets is free (the kernel of partition ``i - buffers`` has
    drained it). At ``buffers = 1`` this collapses to
    ``sum(w_i + k_i)`` — exactly the flat serial sum of the original
    overlap rule — and it is monotonically non-increasing in
    ``buffers`` (more staging never hurts).

:func:`run_tasks`
    Real wall-clock concurrency: independent partition tasks (FPGA
    kernel simulation and CPU-share host matching alike) run inline
    at ``workers = 1`` and on the warm supervised
    :class:`~repro.runtime.pool.WorkerPool` otherwise; results come
    back in submission order, so merging is deterministic regardless
    of scheduling. Tasks are module-level functions with picklable
    arguments; the pool ships their CSTs over shared memory.

Modeled seconds never depend on ``workers`` — the worker pool changes
only wall-clock time. ``buffers`` changes only modeled seconds. The
two knobs are deliberately orthogonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import DeviceError
from repro.runtime.pool import Task, WorkerPool

__all__ = [
    "ExecutorConfig",
    "PartitionOutcome",
    "Task",
    "overlap_schedule",
    "overlap_timeline",
    "run_tasks",
]


@dataclass(frozen=True)
class ExecutorConfig:
    """Concurrency and overlap knobs of the execute stage.

    ``workers`` sizes the warm worker pool that runs independent
    partition tasks concurrently (1 = inline serial execution, the
    default). ``buffers`` is the number of on-card partition staging
    buffers in the modeled timeline (1 = no transfer/compute overlap,
    the original flat ``pcie + kernel`` sum).
    """

    workers: int = 1
    buffers: int = 1
    #: Tasks a warm worker serves before it is recycled (0 = never).
    pool_ttl: int = 0
    #: Wall-clock silence budget (seconds) before an in-flight warm-
    #: pool dispatch is hedged; a worker silent past twice this is
    #: killed and respawned. 0 disables the watchdog.
    watchdog_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DeviceError("executor workers must be >= 1")
        if self.buffers < 1:
            raise DeviceError("executor buffers must be >= 1")
        if self.pool_ttl < 0:
            raise DeviceError("executor pool_ttl must be >= 0")
        if self.watchdog_s < 0.0:
            raise DeviceError("executor watchdog_s must be >= 0")


def overlap_schedule(
    segments: Sequence[tuple[float, float]], buffers: int = 2
) -> list[tuple[float, float, float, float]]:
    """Per-launch schedule of the double-buffered partition pipeline.

    Returns one ``(transfer_start, transfer_end, kernel_start,
    kernel_end)`` tuple per segment, in launch order, computed with the
    exact recurrence :func:`overlap_timeline` describes — the timeline
    is simply the last tuple's ``kernel_end``. The tracer draws these
    tuples as the ``pcie`` and ``kernel`` lanes of the modeled clock,
    so the trace and the reported modeled seconds cannot disagree.
    """
    if buffers < 1:
        raise DeviceError("buffers must be >= 1")
    transfer_done = 0.0
    kernel_done: list[float] = []
    schedule: list[tuple[float, float, float, float]] = []
    for i, (write_s, kernel_s) in enumerate(segments):
        gate = kernel_done[i - buffers] if i >= buffers else 0.0
        t_start = max(transfer_done, gate)
        transfer_done = t_start + write_s
        prev = kernel_done[i - 1] if i else 0.0
        k_start = max(transfer_done, prev)
        kernel_done.append(k_start + kernel_s)
        schedule.append((t_start, transfer_done, k_start, kernel_done[-1]))
    return schedule


def overlap_timeline(
    segments: Sequence[tuple[float, float]], buffers: int = 2
) -> float:
    """Completion time of the double-buffered partition pipeline.

    ``segments`` holds one ``(write_seconds, kernel_seconds)`` pair per
    FPGA launch, in launch order. Transfers serialize on the single
    PCIe link, kernels serialize on the single device, and a transfer
    may only start once one of the ``buffers`` staging buffers is free,
    i.e. the kernel ``buffers`` launches back has completed. With
    ``buffers = 1`` the transfer of launch *i* therefore waits for
    kernel *i - 1*, which reproduces the serial flat sum
    ``sum(w + k)`` of the original overlap rule exactly.
    """
    schedule = overlap_schedule(segments, buffers)
    return schedule[-1][3] if schedule else 0.0


@dataclass
class PartitionOutcome:
    """Everything one supervised FPGA partition produced.

    Collected privately per task so the worker pool shares no mutable
    state; the execute stage merges outcomes in partition-index order,
    which keeps counts, results, modeled seconds, and the health
    record bit-identical between serial and concurrent execution.
    """

    #: Kernel reports of every successful launch, in launch order
    #: (one for a clean partition, several after a re-partition).
    reports: list = field(default_factory=list)
    #: ``(write_seconds, kernel_seconds)`` per launch for the modeled
    #: overlap timeline. Failed launches appear with their wasted
    #: transfer/kernel time so recovery cost stays on the FPGA side.
    segments: list[tuple[float, float]] = field(default_factory=list)
    #: Total modeled PCIe seconds (successful and wasted attempts).
    pcie_seconds: float = 0.0
    #: Modeled recovery overhead: wasted kernel work plus backoff.
    overhead_seconds: float = 0.0
    #: Host-side re-partitioning cost (charged serially, not in the
    #: overlapped timeline — it runs on the host, not the card).
    host_overhead_seconds: float = 0.0
    #: Wall-clock backoff to charge to the stage (mirrors overhead).
    backoff_wall_seconds: float = 0.0
    #: Fault events in deterministic depth-first order.
    events: list = field(default_factory=list)
    #: CPU-fallback results of partitions that exhausted the ladder:
    #: ``(found_embeddings, counters)`` per fallback, in ladder order.
    #: Running the fallback inside the supervisor keeps each
    #: :class:`PartitionOutcome` self-contained, which is what lets
    #: the run journal persist a partition as one complete record.
    fallbacks: list = field(default_factory=list)
    #: Write-ahead ladder rung records accumulated by a supervisor
    #: running in a *worker process* (which cannot reach the journal
    #: file); the parent appends them — before the partition record,
    #: preserving replay order — on the result-merge path. Empty when
    #: the supervisor journals directly (inline execution).
    ladder_records: list = field(default_factory=list)


def run_tasks(
    tasks: Sequence[Task],
    on_result: Callable[[int, Any], None] | None = None,
    pool: WorkerPool | None = None,
    ctx: Any | None = None,
) -> list[Any]:
    """Run ``tasks`` inline (``pool is None``) or on ``pool``; results
    come back in task order.

    ``on_result(index, result)`` fires in the calling process as each
    task completes — in task order inline, in completion order on the
    pool — which is what the run journal hooks to persist outcomes the
    moment they exist. A pool that could not create its shared-memory
    arena sent every CST pickled (``pool.cst_plane == "pickle"``); that
    downgrade is warned once per call and logged as a
    ``shm_downgrade`` event under the run's ``request_id`` when
    ``ctx`` (a :class:`~repro.runtime.context.RunContext`) carries a
    logger.
    """
    if pool is None:
        results = []
        for i, (fn, args) in enumerate(tasks):
            result = fn(*args)
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results
    results = pool.run(tasks, on_result)
    if pool.cst_plane == "pickle":
        warnings.warn(
            "shared-memory CST plane unavailable; worker-pool tasks "
            "fall back to pickled CSTs",
            RuntimeWarning,
            stacklevel=3,
        )
        if ctx is not None and ctx.log is not None:
            ctx.log.warning(
                "shm_downgrade",
                request_id=ctx.tracer.request_id,
                plane="pickle",
            )
    return results
