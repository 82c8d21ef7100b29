"""Round-at-a-time FAST engine: the differential oracle for the kernel.

This is the engine loop as first written: Algorithm 4 executed one
``N_o`` round at a time over explicit depth buffers, with the
deepest-first policy of Section VI-B choosing the next buffer to pop.
:class:`repro.fpga.engine.FastEngine` expands chunks of several rounds
per numpy call and replays this schedule from prefix sums; the tests
assert the two produce field-for-field identical
:class:`~repro.fpga.report.KernelReport` values.

It reuses the production engine's per-round cycle model
(``_round_cycles``, ``_stage_cycles``, ``_module_offsets``), so the
comparison isolates the schedule and the functional matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import BufferOverflowError, DeviceError
from repro.cst.structure import CST
from repro.fpga.engine import FastEngine
from repro.fpga.kernel import MatchPlan, _gather_ranges, build_plan
from repro.fpga.report import KernelReport


class DepthBuffer:
    """All partial results of one depth, stored as matrices.

    ``pos``/``ids`` have one row per partial; ``front`` is the pop
    cursor and ``front_offset`` the number of extension candidates
    already consumed from the front entry's adjacency row (a partial
    whose candidate row exceeds the round budget is resumed later, as
    Section VI-B prescribes).
    """

    __slots__ = ("depth", "capacity", "pos", "ids", "front", "front_offset",
                 "peak")

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = depth
        self.capacity = capacity
        self.pos = np.empty((0, depth), dtype=np.int64)
        self.ids = np.empty((0, depth), dtype=np.int64)
        self.front = 0
        self.front_offset = 0
        self.peak = 0

    def __len__(self) -> int:
        return len(self.pos) - self.front

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def fill(self, pos: np.ndarray, ids: np.ndarray) -> None:
        """Load a fresh batch; the buffer must currently be empty.

        The deepest-first expansion policy guarantees a buffer is only
        written when drained, which is what bounds each depth at
        ``N_o`` entries; violations raise :class:`BufferOverflowError`.
        """
        if not self.is_empty:
            raise BufferOverflowError(
                f"depth-{self.depth} buffer written while non-empty"
            )
        if len(pos) > self.capacity:
            raise BufferOverflowError(
                f"depth-{self.depth} buffer received {len(pos)} partials "
                f"but holds only {self.capacity}"
            )
        self.pos = pos
        self.ids = ids
        self.front = 0
        self.front_offset = 0
        self.peak = max(self.peak, len(pos))


@dataclass
class RoundBatch:
    """Output of one Generator round at one step."""

    step: int
    pos: np.ndarray          # (n_new, step + 1) candidate positions
    ids: np.ndarray          # (n_new, step + 1) data-vertex ids
    n_consumed: int          # buffer entries fully consumed
    n_new: int               # |P_o| of this round
    n_tasks: int             # |T_n| of this round


def generate(
    cst: CST,
    plan: MatchPlan,
    buffer: DepthBuffer,
    step: int,
    budget: int,
) -> RoundBatch:
    """Algorithm 5: expand up to ``budget`` partials from ``buffer``.

    Pops entries from the buffer front; an entry whose extension row
    does not fully fit the budget keeps its cursor for the next round.
    """
    if budget < 1:
        raise DeviceError("generator budget must be >= 1")
    u = plan.order[step]
    anchor = plan.anchor_vertex[step]
    adj = cst.adjacency[(anchor, u)]

    avail = len(buffer)
    anchor_col = plan.anchor_col[step]
    all_lens = adj.row_lens_array()

    # Scan buffer entries in windows of roughly one budget's worth
    # instead of gathering the whole remaining suffix every round (the
    # suffix can be orders of magnitude larger than one round's
    # consumption). The scan keeps extending while the running total is
    # still <= budget, so trailing zero-length rows that fit under the
    # budget are consumed this round — exactly the rows a full-suffix
    # ``searchsorted(cum, budget, side="right")`` would take.
    chunk = max(64, min(avail, budget))
    starts_parts: list[np.ndarray] = []
    lens_parts: list[np.ndarray] = []
    scanned = 0
    total = 0
    while scanned < avail and total <= budget:
        end = min(avail, scanned + chunk)
        apos = buffer.pos[
            buffer.front + scanned: buffer.front + end, anchor_col
        ]
        rs = adj.indptr[apos]
        rl = all_lens[apos]
        if scanned == 0 and buffer.front_offset:
            rs[0] += buffer.front_offset
            rl[0] -= buffer.front_offset
        starts_parts.append(rs)
        lens_parts.append(rl)
        total += int(rl.sum())
        scanned = end

    if starts_parts:
        row_start = np.concatenate(starts_parts)
        row_len = np.concatenate(lens_parts)
    else:
        row_start = np.empty(0, dtype=np.int64)
        row_len = np.empty(0, dtype=np.int64)

    cum = np.cumsum(row_len)
    take_full = int(np.searchsorted(cum, budget, side="right"))
    consumed_new = int(cum[take_full - 1]) if take_full else 0
    partial_take = 0
    if take_full < avail:
        # The scan only stops early once the running total exceeds the
        # budget, so the first not-fully-consumed row is always inside
        # the scanned window.
        partial_take = budget - consumed_new

    starts = row_start[:take_full]
    lens = row_len[:take_full]
    if partial_take > 0:
        starts = np.append(starts, row_start[take_full])
        lens = np.append(lens, np.int64(partial_take))

    idx = _gather_ranges(starts, lens)
    new_pos = adj.targets[idx]
    parent_sel = buffer.front + np.repeat(
        np.arange(len(lens), dtype=np.int64), lens
    )
    pos = np.concatenate(
        [buffer.pos[parent_sel], new_pos[:, None]], axis=1
    )
    new_ids = cst.candidates[u][new_pos]
    ids = np.concatenate(
        [buffer.ids[parent_sel], new_ids[:, None]], axis=1
    )

    # Advance the pop cursor.
    if partial_take > 0:
        if take_full == 0:
            buffer.front_offset += partial_take
        else:
            buffer.front += take_full
            buffer.front_offset = partial_take
    else:
        buffer.front += take_full
        buffer.front_offset = 0

    n_new = len(new_pos)
    return RoundBatch(
        step=step,
        pos=pos,
        ids=ids,
        n_consumed=take_full,
        n_new=n_new,
        n_tasks=n_new * plan.tasks_per_partial(step),
    )


def expand_root(
    cst: CST, plan: MatchPlan, cursor: int, budget: int
) -> tuple[RoundBatch, int]:
    """Algorithm 4 lines 2-3: stream root candidates into partials.

    Returns the batch and the advanced cursor. Streaming (rather than
    buffering all root candidates) keeps the depth-1 buffer within its
    ``N_o`` bound even when ``|C(root)|`` is large.
    """
    root = plan.order[0]
    cands = cst.candidates[root]
    take = min(budget, len(cands) - cursor)
    new_pos = np.arange(cursor, cursor + take, dtype=np.int64)
    pos = new_pos[:, None]
    ids = cands[new_pos][:, None]
    batch = RoundBatch(
        step=0, pos=pos, ids=ids, n_consumed=0, n_new=take, n_tasks=0
    )
    return batch, cursor + take


def visited_validate(batch: RoundBatch) -> np.ndarray:
    """Algorithm 6: one bit per new partial - new vertex not yet used.

    The columnwise comparison is the simulated form of the array-
    partitioned parallel compare against every element of the partial.
    """
    if batch.step == 0 or batch.n_new == 0:
        return np.ones(batch.n_new, dtype=bool)
    new_ids = batch.ids[:, -1]
    return ~(batch.ids[:, :-1] == new_ids[:, None]).any(axis=1)


def edge_validate(cst: CST, plan: MatchPlan, batch: RoundBatch) -> np.ndarray:
    """Algorithm 7: one bit per new partial - all non-anchor matched
    neighbours are CST-adjacent to the new candidate.

    Every check is a batched O(1) probe into the (BRAM array-
    partitioned) adjacency of the corresponding query edge; a partial
    fails if any of its tasks fails.
    """
    if batch.n_new == 0:
        return np.ones(0, dtype=bool)
    u = plan.order[batch.step]
    ok = np.ones(batch.n_new, dtype=bool)
    new_pos = batch.pos[:, -1]
    for w, col in plan.checks[batch.step]:
        adj = cst.adjacency[(u, w)]
        ok &= adj.contains_batch(new_pos, batch.pos[:, col])
    return ok


def synchronize(
    batch: RoundBatch, bv: np.ndarray, bn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 8: keep partials whose both bits are set.

    Returns the surviving ``(pos, ids)`` matrices; the engine routes
    them to the next depth buffer or to the result store.
    """
    keep = bv & bn
    return batch.pos[keep], batch.ids[keep]


def run_rounds(
    engine: FastEngine,
    cst: CST,
    order: tuple[int, ...] | None = None,
    collect_results: bool = False,
    plan: MatchPlan | None = None,
) -> KernelReport:
    """``engine.run``, one ``N_o`` round per iteration.

    Takes the same arguments as :meth:`FastEngine.run` and must return
    an identical report: the deepest non-empty depth buffer is popped
    each round (the root streams in when all are empty), and every
    round is charged with the engine's own cycle model.
    """
    cfg = engine.config
    if plan is None:
        if order is None:
            order = tuple(cst.tree.bfs_order)
        plan = build_plan(cst.query, order)
    report = KernelReport(variant=engine.variant, clock_mhz=cfg.clock_mhz)
    report.num_csts = 1
    if collect_results:
        report.results = []
    trace = engine.trace_modules
    cursor = 0.0
    if trace:
        report.module_spans = []
    if cst.is_empty():
        return report

    if engine.variant != "dram":
        report.load_cycles += cfg.load_cycles(cst.size_bytes())
        if trace and report.load_cycles:
            report.module_spans.append(
                ("load", 0.0, float(report.load_cycles))
            )
            cursor = float(report.load_cycles)

    n_steps = plan.num_steps
    buffers = [
        DepthBuffer(depth, cfg.batch_size) for depth in range(n_steps)
    ]  # buffers[d] holds partials with d matched vertices (d >= 1)
    root_cursor = 0
    root_total = cst.candidate_count(plan.order[0])
    rank_order = plan.order

    while True:
        # Deepest-first: find the deepest non-empty buffer.
        step = -1
        for d in range(n_steps - 1, 0, -1):
            if not buffers[d].is_empty:
                step = d
                break
        if step == -1:
            if root_cursor >= root_total:
                break
            batch, root_cursor = expand_root(
                cst, plan, root_cursor, cfg.batch_size
            )
        else:
            batch = generate(cst, plan, buffers[step], step,
                             cfg.batch_size)

        bv = visited_validate(batch)
        bn = edge_validate(cst, plan, batch)
        pos, ids = synchronize(batch, bv, bn)

        flush_before = report.flush_cycles
        depth = batch.step + 1
        if depth == n_steps:
            report.embeddings += len(pos)
            if collect_results:
                report.results.extend(
                    _to_query_indexed(ids, rank_order)
                )
            report.flush_cycles += cfg.flush_cycles(
                len(pos) * depth * 4
            )
        elif len(pos):
            buffers[depth].fill(pos, ids)

        report.rounds += 1
        report.total_partials += batch.n_new
        report.total_edge_tasks += batch.n_tasks
        report.total_pops += batch.n_consumed
        checks = plan.tasks_per_partial(batch.step)
        if trace:
            stages = engine._stage_cycles(
                batch.n_consumed, batch.n_new, batch.n_tasks, checks
            )
            round_cycles = engine._CYCLE_MODELS[engine.variant](
                engine, stages, batch.n_consumed, batch.n_new,
                batch.n_tasks,
            )
            for lane, rel_start, rel_end in engine._module_offsets(
                stages, batch.n_consumed, batch.n_new, batch.n_tasks
            ):
                if rel_end > rel_start:
                    report.module_spans.append(
                        (lane, cursor + rel_start, cursor + rel_end)
                    )
            cursor += round_cycles
            flush_delta = report.flush_cycles - flush_before
            if flush_delta:
                report.module_spans.append(
                    ("flush", cursor, cursor + flush_delta)
                )
                cursor += flush_delta
        else:
            round_cycles = engine._round_cycles(
                batch.n_consumed, batch.n_new, batch.n_tasks, checks
            )
        report.compute_cycles += round_cycles

    report.buffer_peaks = {
        d: buffers[d].peak for d in range(1, n_steps)
    }
    if cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0:
        # A CST spilling past its primary SLR pays the crossing
        # penalty on the remote share of every kernel operation
        # (partials and edge tasks both probe the CST). Zero
        # whenever the partition fits one region, so the scheduler
        # can avoid it entirely by placing small partitions well.
        remote = cfg.slr_remote_fraction(cst.size_bytes())
        if remote > 0.0:
            crossing = cfg.slr_crossing_penalty_cycles * remote * (
                report.total_partials + report.total_edge_tasks
            )
            report.slr_crossing_cycles = crossing
            if trace and crossing:
                report.module_spans.append(
                    ("slr_crossing", cursor, cursor + crossing)
                )
    return report


def _to_query_indexed(
    ids: np.ndarray, order: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Reorder result rows from order-position to query-vertex index."""
    inverse = np.argsort(np.asarray(order))
    return list(map(tuple, ids[:, inverse].tolist()))
