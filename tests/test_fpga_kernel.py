"""Tests for the kernel modules (Algorithms 5-8) and depth buffers.

The round-level classes (depth buffers, one-round ``generate``) live in
the test-only oracle :mod:`tests.round_engine`; the chunk-batched
modules of :mod:`repro.fpga.kernel` are checked against them here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import BufferOverflowError, DeviceError, QueryError
from repro.cst.builder import build_cst
from repro.fpga import kernel
from repro.fpga.kernel import _gather_ranges, build_plan, round_schedule
from repro.ldbc.queries import get_query
from repro.query.ordering import path_based_order
from tests.round_engine import (
    DepthBuffer,
    RoundBatch,
    edge_validate,
    expand_root,
    generate,
    synchronize,
    visited_validate,
)


@pytest.fixture(scope="module")
def setup(micro_graph):
    q = get_query("q2")
    cst = build_cst(q.graph, micro_graph)
    order = path_based_order(cst.tree, micro_graph)
    plan = build_plan(cst.query, order)
    return cst, order, plan


class TestGatherRanges:
    def test_basic(self):
        out = _gather_ranges(np.array([5, 10]), np.array([2, 3]))
        assert list(out) == [5, 6, 10, 11, 12]

    def test_empty_segments(self):
        out = _gather_ranges(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert list(out) == [7, 8]

    def test_all_empty(self):
        out = _gather_ranges(np.array([1, 2]), np.array([0, 0]))
        assert len(out) == 0


class TestPlan:
    def test_anchor_is_earliest_matched_neighbor(self, setup):
        cst, order, plan = setup
        rank = {u: i for i, u in enumerate(order)}
        q = cst.query
        for i in range(1, len(order)):
            u = order[i]
            matched = [w for w in q.neighbors(u) if rank[w] < i]
            assert plan.anchor_vertex[i] == min(matched, key=rank.get)
            assert plan.anchor_col[i] == rank[plan.anchor_vertex[i]]

    def test_checks_are_other_matched_neighbors(self, setup):
        cst, order, plan = setup
        rank = {u: i for i, u in enumerate(order)}
        q = cst.query
        total_checks = sum(
            len(plan.checks[i]) for i in range(len(order))
        )
        # Every query edge is used exactly once: as a tree anchor or a
        # check.
        assert total_checks + (len(order) - 1) == q.num_edges

    def test_invalid_order_rejected(self, setup):
        cst, _order, _plan = setup
        # q2's vertices 2 and 3 are not adjacent, so an order starting
        # (2, 3, ...) is not connected.
        with pytest.raises(QueryError):
            build_plan(cst.query, (2, 3, 0, 1))


class TestDepthBuffer:
    def test_fill_and_len(self):
        buf = DepthBuffer(2, capacity=8)
        pos = np.arange(6).reshape(3, 2)
        buf.fill(pos, pos + 100)
        assert len(buf) == 3
        assert buf.peak == 3

    def test_fill_nonempty_raises(self):
        buf = DepthBuffer(1, capacity=8)
        buf.fill(np.array([[1]]), np.array([[2]]))
        with pytest.raises(BufferOverflowError, match="non-empty"):
            buf.fill(np.array([[3]]), np.array([[4]]))

    def test_capacity_enforced(self):
        buf = DepthBuffer(1, capacity=2)
        with pytest.raises(BufferOverflowError, match="holds only"):
            buf.fill(np.zeros((3, 1), dtype=np.int64),
                     np.zeros((3, 1), dtype=np.int64))


class TestGenerateSemantics:
    def test_budget_respected(self, setup):
        cst, order, plan = setup
        batch, cursor = expand_root(cst, plan, 0, budget=4)
        assert batch.n_new == min(4, cst.candidate_count(order[0]))
        assert cursor == batch.n_new

    def test_root_streaming_resumes(self, setup):
        cst, order, plan = setup
        total = cst.candidate_count(order[0])
        cursor = 0
        seen = []
        while cursor < total:
            batch, cursor = expand_root(cst, plan, cursor, budget=3)
            seen.extend(batch.ids[:, 0].tolist())
        assert seen == cst.candidates[order[0]].tolist()

    def test_generate_budget_split(self, setup):
        cst, order, plan = setup
        # Load depth-1 buffer with all root candidates.
        batch, _ = expand_root(cst, plan, 0, budget=10**9)
        buf = DepthBuffer(1, capacity=10**9)
        buf.fill(batch.pos, batch.ids)
        produced = 0
        rounds = 0
        while not buf.is_empty:
            out = generate(cst, plan, buf, 1, budget=16)
            assert out.n_new <= 16
            produced += out.n_new
            rounds += 1
            assert rounds < 10_000
        # Expanding all partials yields exactly the sum of anchor rows.
        adj = cst.adjacency[(plan.anchor_vertex[1], order[1])]
        expected = int(np.diff(adj.indptr).sum())
        assert produced == expected

    def test_generate_invalid_budget(self, setup):
        cst, order, plan = setup
        buf = DepthBuffer(1, capacity=4)
        with pytest.raises(DeviceError):
            generate(cst, plan, buf, 1, budget=0)

    def test_task_count_matches_checks(self, setup):
        cst, order, plan = setup
        batch, _ = expand_root(cst, plan, 0, budget=8)
        buf = DepthBuffer(1, capacity=8)
        buf.fill(batch.pos, batch.ids)
        out = generate(cst, plan, buf, 1, budget=64)
        assert out.n_tasks == out.n_new * plan.tasks_per_partial(1)


class TestValidators:
    def test_visited_rejects_duplicates(self, setup):
        cst, order, plan = setup
        ids = np.array([[3, 7, 3], [3, 7, 9]])
        pos = np.zeros_like(ids)
        batch = RoundBatch(step=2, pos=pos, ids=ids, n_consumed=0,
                           n_new=2, n_tasks=0)
        bv = visited_validate(batch)
        assert list(bv) == [False, True]

    def test_visited_trivial_at_root(self, setup):
        cst, order, plan = setup
        batch, _ = expand_root(cst, plan, 0, budget=4)
        assert visited_validate(batch).all()

    def test_edge_validate_matches_data_graph(self, setup, micro_graph):
        cst, order, plan = setup
        # Drive the pipeline one full level and verify each bn bit by
        # probing the data graph directly.
        batch, _ = expand_root(cst, plan, 0, budget=10**9)
        buf = DepthBuffer(1, capacity=10**9)
        buf.fill(batch.pos, batch.ids)
        step = 1
        while plan.tasks_per_partial(step) == 0:
            out = generate(cst, plan, buf, step, budget=10**9)
            keep_pos, keep_ids = synchronize(
                out, visited_validate(out), edge_validate(cst, plan, out)
            )
            step += 1
            buf = DepthBuffer(step, capacity=10**9)
            buf.fill(keep_pos, keep_ids)
        out = generate(cst, plan, buf, step, budget=10**9)
        bn = edge_validate(cst, plan, out)
        u = plan.order[out.step]
        for row in range(out.n_new):
            expected = all(
                micro_graph.has_edge(
                    int(out.ids[row, -1]), int(out.ids[row, col])
                )
                for _w, col in plan.checks[out.step]
            )
            assert bool(bn[row]) == expected

    def test_synchronize_filters_both_bits(self):
        pos = np.arange(8).reshape(4, 2)
        batch = RoundBatch(step=1, pos=pos, ids=pos + 50, n_consumed=0,
                           n_new=4, n_tasks=0)
        bv = np.array([True, True, False, False])
        bn = np.array([True, False, True, False])
        keep_pos, keep_ids = synchronize(batch, bv, bn)
        assert len(keep_pos) == 1
        assert list(keep_pos[0]) == [0, 1]


class TestRoundSchedule:
    def test_rounds_cut_windows_every_budget_extensions(self):
        # One window, rows of 3, 0, 5, 0 extensions, N_o = 4: two
        # rounds; the first drains rows 0-1 (the empty row ends at
        # extension 3 <= 4), the last drains the rest.
        prefix = np.array([0, 3, 3, 8, 8])
        ext_end, n_new, n_pop, offsets = round_schedule(
            prefix, np.array([0, 4]), 4
        )
        assert ext_end.tolist() == [4, 8]
        assert n_new.tolist() == [4, 4]
        assert n_pop.tolist() == [2, 2]
        assert offsets.tolist() == [0, 2]

    def test_empty_window_has_no_round_and_empty_rows_one(self):
        prefix = np.array([0, 0, 0, 2])
        ext_end, n_new, n_pop, offsets = round_schedule(
            prefix, np.array([0, 0, 2, 3]), 4
        )
        # Window 0 is empty, window 1 has two rows without extensions
        # (one round popping both), window 2 one row of two.
        assert offsets.tolist() == [0, 0, 1, 2]
        assert n_new.tolist() == [0, 2]
        assert n_pop.tolist() == [2, 1]

    def test_matches_round_at_a_time_buffer(self, setup):
        cst, order, plan = setup
        batch, _ = expand_root(cst, plan, 0, budget=10**9)
        lens = cst.adjacency[
            (plan.anchor_vertex[1], order[1])
        ].row_lens_array()[batch.pos[:, 0]]
        prefix = np.concatenate(([0], np.cumsum(lens)))
        for budget in (1, 3, 16):
            buf = DepthBuffer(1, capacity=10**9)
            buf.fill(batch.pos, batch.ids)
            rounds = []
            while not buf.is_empty:
                out = generate(cst, plan, buf, 1, budget)
                rounds.append((out.n_new, out.n_consumed))
            _end, n_new, n_pop, offsets = round_schedule(
                prefix, np.array([0, len(lens)]), budget
            )
            assert list(zip(n_new.tolist(), n_pop.tolist())) == rounds
            assert offsets.tolist() == [0, len(rounds)]

    def test_invalid_budget(self):
        with pytest.raises(DeviceError):
            round_schedule(np.array([0]), np.array([0]), 0)


class TestWindowKernel:
    def test_slices_equal_round_batches(self, setup):
        """Generator slices cut inside rows reproduce each round."""
        cst, order, plan = setup
        batch, _ = expand_root(cst, plan, 0, budget=10**9)
        lens = cst.adjacency[
            (plan.anchor_vertex[1], order[1])
        ].row_lens_array()[batch.pos[:, 0]]
        prefix = np.concatenate(([0], np.cumsum(lens)))
        buf = DepthBuffer(1, capacity=10**9)
        buf.fill(batch.pos, batch.ids)
        lo = 0
        while not buf.is_empty:
            out = generate(cst, plan, buf, 1, budget=5)
            parent, new_pos, new_ids = kernel.generate(
                cst, plan, 1, batch.pos[:, 0], prefix, lo, lo + out.n_new
            )
            assert np.array_equal(batch.pos[parent, 0], out.pos[:, 0])
            assert np.array_equal(new_pos, out.pos[:, 1])
            assert np.array_equal(new_ids, out.ids[:, 1])
            lo += out.n_new
        assert lo == prefix[-1]

    def test_validators_and_synchronizer_match_rounds(self, setup):
        """Level by level, the chunk-batched modules keep exactly the
        partials the round-form modules keep, in the same order."""
        cst, order, plan = setup
        batch, _ = expand_root(cst, plan, 0, budget=10**9)
        pos = [batch.pos[:, 0]]
        want_pos, want_ids = batch.pos, batch.ids
        for step in range(1, plan.num_steps):
            lens = cst.adjacency[
                (plan.anchor_vertex[step], order[step])
            ].row_lens_array()[pos[plan.anchor_col[step]]]
            prefix = np.concatenate(([0], np.cumsum(lens)))
            parent, new_pos, new_ids = kernel.generate(
                cst, plan, step, pos[plan.anchor_col[step]], prefix, 0,
                int(prefix[-1]),
            )
            visited = kernel.visited_validate(cst, plan, pos, parent,
                                              new_ids)
            kept = kernel.edge_validate(cst, plan, step, pos, parent,
                                        new_pos, np.flatnonzero(visited))
            pos = kernel.synchronize(pos, parent, new_pos, kept)

            buf = DepthBuffer(step, capacity=10**9)
            buf.fill(want_pos, want_ids)
            out = generate(cst, plan, buf, step, budget=10**9)
            bv = visited_validate(out)
            assert np.array_equal(visited, bv)
            want_pos, want_ids = synchronize(
                out, bv, edge_validate(cst, plan, out)
            )
            assert np.array_equal(np.column_stack(pos), want_pos)
        assert len(pos[0]) > 0
