"""Tests for the FAST engine: exactness, buffer bounds, timing shape."""

from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import (
    count_reference_embeddings,
    reference_embeddings,
)
from repro.common.errors import DeviceError
from repro.cst.builder import build_cst
from repro.cst.partition import partition_to_list
from repro.fpga import engine as engine_module
from repro.fpga.catalog import get_device
from repro.fpga.config import FpgaConfig
from repro.fpga.cycles import l_basic, l_sep, l_task
from repro.fpga.engine import VARIANTS, FastEngine
from repro.graph.generators import random_connected_query, random_labeled_graph
from repro.graph.graph import Graph
from repro.ldbc.queries import all_queries, get_query
from repro.query.ordering import path_based_order, random_connected_order
from tests.round_engine import run_rounds


class TestExactness:
    def test_all_variants_exact_counts(self, micro_graph):
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            order = path_based_order(cst.tree, micro_graph)
            ref = count_reference_embeddings(q.graph, micro_graph)
            for variant in VARIANTS:
                rep = FastEngine(variant=variant).run(cst, order)
                assert rep.embeddings == ref, (q.name, variant)

    def test_collect_results_exact_set(self, micro_graph):
        q = get_query("q1")
        cst = build_cst(q.graph, micro_graph)
        rep = FastEngine().run(cst, collect_results=True)
        assert sorted(rep.results) == sorted(
            reference_embeddings(q.graph, micro_graph)
        )

    def test_arbitrary_connected_orders_exact(self, micro_graph):
        q = get_query("q2")
        cst = build_cst(q.graph, micro_graph)
        ref = count_reference_embeddings(q.graph, micro_graph)
        for seed in range(6):
            order = random_connected_order(q.graph, seed=seed)
            rep = FastEngine().run(cst, order)
            assert rep.embeddings == ref, order

    def test_run_many_merges(self, micro_graph):
        q = get_query("q5")
        cst = build_cst(q.graph, micro_graph)
        order = path_based_order(cst.tree, micro_graph)
        cfg = FpgaConfig()
        from repro.cst.partition import PartitionLimits
        limits = PartitionLimits(
            max_bytes=max(512, cst.size_bytes() // 5),
            max_degree=max(4, cst.max_candidate_degree() // 2),
        )
        parts, _ = partition_to_list(cst, order, limits)
        assert len(parts) > 1
        rep = FastEngine(cfg).run_many(parts, order)
        assert rep.embeddings == count_reference_embeddings(
            q.graph, micro_graph
        )
        assert rep.num_csts == len(parts)

    def test_empty_cst(self):
        from repro.graph.graph import Graph
        data = random_labeled_graph(20, 40, 2, seed=0)
        q = Graph.from_edges(2, [(0, 1)], [8, 8])
        cst = build_cst(q, data)
        rep = FastEngine().run(cst)
        assert rep.embeddings == 0
        assert rep.total_cycles == 0

    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(0, 2000),
        query_seed=st.integers(0, 2000),
        batch=st.sampled_from([4, 16, 64, 512]),
    )
    def test_exactness_property_random(self, data_seed, query_seed, batch):
        """Engine counts match brute force for any batch size N_o."""
        data = random_labeled_graph(35, 140, 3, seed=data_seed)
        query = random_connected_query(5, 7, 3, seed=query_seed)
        cst = build_cst(query, data)
        cfg = FpgaConfig(batch_size=batch)
        rep = FastEngine(cfg).run(cst)
        assert rep.embeddings == count_reference_embeddings(query, data)


class TestBufferInvariant:
    def test_peaks_bounded_by_batch_size(self, micro_graph):
        cfg = FpgaConfig(batch_size=32)
        for name in ("q1", "q6", "q8"):
            q = get_query(name)
            cst = build_cst(q.graph, micro_graph)
            rep = FastEngine(cfg).run(cst)
            assert rep.buffer_peaks, name
            assert max(rep.buffer_peaks.values()) <= cfg.batch_size, name

    def test_total_buffer_matches_paper_bound(self, micro_graph):
        # (|V(q)| - 1) buffers of N_o entries suffice.
        cfg = FpgaConfig(batch_size=16)
        q = get_query("q7")
        cst = build_cst(q.graph, micro_graph)
        rep = FastEngine(cfg).run(cst)
        assert len(rep.buffer_peaks) == q.graph.num_vertices - 1


class TestTiming:
    def test_variant_ordering(self, micro_graph):
        for name in ("q1", "q6"):
            cst = build_cst(get_query(name).graph, micro_graph)
            cycles = {
                v: FastEngine(variant=v).run(cst).total_cycles
                for v in VARIANTS
            }
            assert cycles["dram"] > cycles["basic"]
            assert cycles["basic"] > cycles["task"]
            assert cycles["task"] > cycles["sep"]

    def test_dram_speedup_near_latency_ratio(self, micro_graph):
        """Fig. 7's headline: BASIC beats DRAM by roughly the 1-vs-8
        read-latency gap (the paper measures ~5x)."""
        ratios = []
        for q in all_queries():
            cst = build_cst(q.graph, micro_graph)
            dram = FastEngine(variant="dram").run(cst).total_cycles
            basic = FastEngine(variant="basic").run(cst).total_cycles
            if basic:
                ratios.append(dram / basic)
        avg = sum(ratios) / len(ratios)
        assert 3.0 <= avg <= 7.0

    def test_measured_close_to_analytical(self, micro_graph):
        """Engine-measured cycles stay near the Eq. 2-4 envelopes."""
        cfg = FpgaConfig()
        for name in ("q1", "q6", "q8"):
            cst = build_cst(get_query(name).graph, micro_graph)
            for variant, eq in (("basic", l_basic), ("task", l_task),
                                ("sep", l_sep)):
                rep = FastEngine(cfg, variant).run(cst)
                predicted = eq(cfg, rep.total_partials,
                               rep.total_edge_tasks)
                assert rep.compute_cycles == pytest.approx(
                    predicted, rel=0.6
                ), (name, variant)

    def test_smaller_batch_costs_more_cycles(self, micro_graph):
        cst = build_cst(get_query("q2").graph, micro_graph)
        small = FastEngine(FpgaConfig(batch_size=8)).run(cst)
        large = FastEngine(FpgaConfig(batch_size=512)).run(cst)
        assert small.compute_cycles > large.compute_cycles
        assert small.embeddings == large.embeddings

    def test_seconds_conversion(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        rep = FastEngine().run(cst)
        assert rep.seconds == pytest.approx(
            rep.total_cycles / (rep.clock_mhz * 1e6)
        )


class TestEngineApi:
    def test_unknown_variant_rejected(self):
        with pytest.raises(DeviceError, match="variant"):
            FastEngine(variant="warp")

    def test_report_merge_rejects_mixed_variants(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        a = FastEngine(variant="sep").run(cst)
        b = FastEngine(variant="task").run(cst)
        with pytest.raises(ValueError, match="variant"):
            a.merge(b)

    def test_report_summary_keys(self, micro_graph):
        cst = build_cst(get_query("q0").graph, micro_graph)
        info = FastEngine().run(cst).summary()
        assert {"variant", "cycles", "seconds", "N", "M",
                "embeddings"} <= set(info)

    def test_workload_counts_accumulate(self, micro_graph):
        cst = build_cst(get_query("q1").graph, micro_graph)
        rep = FastEngine().run(cst)
        assert rep.total_partials > 0
        assert rep.total_edge_tasks > 0
        assert rep.rounds > 0


def _u280_small_slrs(batch: int) -> FpgaConfig:
    """The u280 part (3 SLRs, crossing penalty) with its SLRs scaled
    down so that test-sized CSTs spill across them."""
    cfg = get_device("u280").config
    assert cfg.slr_count > 1 and cfg.slr_crossing_penalty_cycles > 0
    return dataclasses.replace(
        cfg, batch_size=batch, bram_bytes=cfg.slr_count * 1024,
        slr_bram_bytes=(1024,) * cfg.slr_count,
    )


def _same_report(engine, cst, order, collect, chunk_rounds):
    with mock.patch.object(engine_module, "CHUNK_ROUNDS", chunk_rounds):
        got = engine.run(cst, order, collect_results=collect)
    want = run_rounds(engine, cst, order, collect_results=collect)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


class TestRoundOracle:
    """The chunk-batched engine against the round-at-a-time oracle
    (tests/round_engine.py): every report field, results order and
    module span must be identical."""

    @settings(max_examples=60, deadline=None)
    @given(
        data_seed=st.integers(0, 5000),
        query_seed=st.integers(0, 5000),
        order_seed=st.integers(0, 5000),
        query_size=st.sampled_from([(2, 1), (3, 3), (4, 4), (5, 6)]),
        variant=st.sampled_from(VARIANTS),
        batch=st.sampled_from([1, 2, 3, 7, 64, 512]),
        collect=st.booleans(),
        trace=st.booleans(),
        chunk_rounds=st.sampled_from([engine_module.CHUNK_ROUNDS, 1]),
        multi_slr=st.booleans(),
    )
    def test_random_reports_identical(
        self, data_seed, query_seed, order_seed, query_size, variant,
        batch, collect, trace, chunk_rounds, multi_slr,
    ):
        data = random_labeled_graph(30, 120, 2, seed=data_seed)
        query = random_connected_query(*query_size, 2, seed=query_seed)
        order = random_connected_order(query, seed=order_seed)
        cst = build_cst(query, data)
        cfg = (_u280_small_slrs(batch) if multi_slr
               else FpgaConfig(batch_size=batch))
        engine = FastEngine(cfg, variant, trace_modules=trace)
        _same_report(engine, cst, order, collect, chunk_rounds)

    @pytest.mark.parametrize("chunk_rounds", [engine_module.CHUNK_ROUNDS, 1])
    def test_benchmark_queries_identical(self, micro_graph, chunk_rounds):
        crossed = 0
        for i, q in enumerate(all_queries()):
            cst = build_cst(q.graph, micro_graph)
            order = path_based_order(cst.tree, micro_graph)
            variant = VARIANTS[i % len(VARIANTS)]
            for cfg in (FpgaConfig(batch_size=64), _u280_small_slrs(512)):
                engine = FastEngine(cfg, variant, trace_modules=True)
                rep = _same_report(engine, cst, order, True, chunk_rounds)
                crossed += rep.slr_crossing_cycles > 0
        assert crossed >= len(all_queries())


class TestTransientMemory:
    def test_chunk_cap_bounds_transient_memory(self):
        """One root batch whose subtree holds over 10^6 partials runs
        in a few MiB: chunks are capped, never a whole subtree."""
        data = random_labeled_graph(64, 1000, 1, seed=3)
        square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                  [0, 0, 0, 0])
        cst = build_cst(square, data)
        engine = FastEngine(FpgaConfig(batch_size=512))
        order = tuple(cst.tree.bfs_order)
        assert cst.candidate_count(order[0]) <= 512  # one root batch
        tracemalloc.start()
        try:
            rep = engine.run(cst, order)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.total_partials > 1_000_000
        assert rep.embeddings > 0
        assert peak < 8 * 2**20, peak
