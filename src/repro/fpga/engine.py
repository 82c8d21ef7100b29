"""The FAST matching engine - Algorithm 4 with the paper's variants.

The engine drives the four kernel modules over one CST under the
deepest-first expansion policy of Section VI-B, which bounds every
depth buffer at ``N_o`` entries. Matching is *functional* - the
embeddings found are exact - while a per-variant timing model charges
cycles for each ``N_o`` round from the round's shape.

The two are computed separately. Functionally, each depth ``d`` holds
one live :class:`_Level`: a *feed* of partials (the survivors of one
chunk at depth ``d - 1``) that it expands in chunks of whole rounds,
at most :data:`CHUNK_ROUNDS` x ``N_o`` extensions per numpy pass.
Chunks are built lazily while a depth-first walk replays the round
schedule, so at most one chunk per depth is live and transient memory
stays bounded. The walk charges every round - its pops, ``|P_o|``,
``|T_n|`` and survivors, all read off prefix sums - to the unchanged
per-round cycle model in the exact order the round-at-a-time loop
would run it: every depth is a FIFO, so level order equals DFS order.
Rounds, cycles, buffer peaks, result order and module lanes are
therefore identical to executing one round per call.

Variants:

``dram``
    Fig. 5(a) with the CST resident in off-chip DRAM: serial modules,
    and every CST access pays the BRAM/DRAM latency gap (FAST-DRAM).
``basic``
    Serial modules, CST in BRAM after a streamed initial load
    (FAST-BASIC, Equation 2).
``task``
    Task parallelism: validators and synchronizer overlap the
    generator through FIFOs (FAST-TASK, Equation 3).
``sep``
    Separated t_v/t_n generators: all modules overlap (FAST-SEP,
    Equation 4).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DeviceError
from repro.cst.structure import CST
from repro.fpga.config import FpgaConfig
from repro.fpga.kernel import (
    MatchPlan,
    build_plan,
    edge_validate,
    generate,
    round_schedule,
    synchronize,
    visited_validate,
)
from repro.fpga.pipeline import chained, overlapped, pipelined_cycles
from repro.fpga.report import KernelReport

#: Recognised engine variants, in the paper's optimisation order.
VARIANTS = ("dram", "basic", "task", "sep")

#: A chunk expands at most ``CHUNK_ROUNDS x N_o`` extensions in one
#: numpy pass (always at least one whole round). The cap bounds
#: transient memory; eight rounds already amortise the per-call
#: overhead (sixteen ran no faster on DG-MINI but held ~1 MiB more).
CHUNK_ROUNDS = 8


class _Level:
    """Functional state of one depth ``d >= 1`` of the search.

    :meth:`feed` installs the partials with ``d`` matched vertices that
    the live chunk one level up produced, split into its buffer
    windows, and replays their round schedule from prefix sums.
    :meth:`expand` runs the Generator and both validators over the
    chunk of rounds starting at a given one and routes the survivors
    to the next level's feed, or to the result store at the last depth.
    """

    __slots__ = ("step", "plan", "cst", "budget", "row_lens", "child",
                 "results", "pos", "prefix", "ext_end", "n_new",
                 "n_pop", "rounds", "chunk_lo", "chunk_hi", "survivors")

    def __init__(self, cst: CST, plan: MatchPlan, step: int, budget: int,
                 child: "_Level | None", results: list | None) -> None:
        self.step = step
        self.plan = plan
        self.cst = cst
        self.budget = budget
        self.row_lens = cst.adjacency[
            (plan.anchor_vertex[step], plan.order[step])
        ].row_lens_array()
        self.child = child
        self.results = results

    def feed(self, pos: list[np.ndarray], windows: np.ndarray) -> None:
        """Install a new feed; the previous one must be fully walked.

        ``pos`` holds the partials column by column and ``windows``
        their buffer-window boundaries.
        """
        self.pos = pos
        lens = self.row_lens[pos[self.plan.anchor_col[self.step]]]
        self.prefix = np.concatenate(([0], np.cumsum(lens)))
        self.ext_end, n_new, n_pop, rounds = round_schedule(
            self.prefix, windows, self.budget
        )
        # Plain lists: the walk reads one scalar of each per round.
        self.n_new = n_new.tolist()
        self.n_pop = n_pop.tolist()
        self.rounds = rounds.tolist()
        self.chunk_lo = self.chunk_hi = 0
        self.survivors: list[int] = []

    def expand(self, first: int) -> None:
        """Build the chunk of rounds starting at round ``first``.

        ``survivors[k]:survivors[k + 1]`` then indexes, in the next
        level's feed, the window round ``chunk_lo + k`` fills.
        """
        ext_end = self.ext_end
        lo = int(ext_end[first]) - self.n_new[first]
        last = max(first + 1, int(np.searchsorted(
            ext_end, lo + CHUNK_ROUNDS * self.budget, side="right"
        )))
        hi = int(ext_end[last - 1])
        cst, plan, step, pos = self.cst, self.plan, self.step, self.pos
        parent, new_pos, new_ids = generate(
            cst, plan, step, pos[plan.anchor_col[step]], self.prefix, lo, hi
        )
        kept = edge_validate(
            cst, plan, step, pos, parent, new_pos,
            np.flatnonzero(
                visited_validate(cst, plan, pos, parent, new_ids)
            ),
        )
        bounds = np.searchsorted(kept, ext_end[first:last] - lo)
        self.survivors = [0, *bounds.tolist()]
        self.chunk_lo, self.chunk_hi = first, last
        if self.child is None and self.results is None:
            return
        out = synchronize(pos, parent, new_pos, kept)
        if self.child is not None:
            self.child.feed(out, np.asarray(self.survivors))
        else:
            self.results.extend(_to_query_indexed(cst, out, plan.order))


class _Replay:
    """Round accounting for one run, charged in deepest-first order.

    :meth:`walk` visits the rounds exactly as the depth buffers would
    schedule them, building each level's chunks on first touch, and
    :meth:`charge` feeds every round's shape to the engine's
    per-round cycle model and module-lane spans.
    """

    __slots__ = ("engine", "report", "n_steps", "peaks", "trace",
                 "cursor")

    def __init__(self, engine: "FastEngine", report: KernelReport,
                 n_steps: int) -> None:
        self.engine = engine
        self.report = report
        self.n_steps = n_steps
        #: Largest window routed to each depth (the buffer peaks).
        self.peaks = [0] * n_steps
        self.trace = engine.trace_modules
        self.cursor = 0.0

    def walk(self, level: _Level, window: int) -> None:
        """Charge the rounds that drain one window of ``level``'s feed.

        After each round the window its survivors fill one level down
        is drained before the next round - deepest-first.
        """
        step, child = level.step, level.child
        checks = level.plan.tasks_per_partial(step)
        for r in range(level.rounds[window], level.rounds[window + 1]):
            if r >= level.chunk_hi:
                level.expand(r)
            k = r - level.chunk_lo
            out = level.survivors[k + 1] - level.survivors[k]
            self.charge(step, level.n_pop[r], level.n_new[r], checks, out)
            if child is not None and out:
                self.peaks[step + 1] = max(self.peaks[step + 1], out)
                self.walk(child, k)

    def charge(self, step: int, n_pop: int, n_new: int, checks: int,
               n_out: int) -> None:
        """Account one round at ``step`` whose ``n_out`` partials
        survive (results, at the last step)."""
        engine, report = self.engine, self.report
        n_tasks = n_new * checks
        flush = 0
        if step == self.n_steps - 1:
            report.embeddings += n_out
            flush = engine.config.flush_cycles(n_out * (step + 1) * 4)
            report.flush_cycles += flush
        report.rounds += 1
        report.total_partials += n_new
        report.total_edge_tasks += n_tasks
        report.total_pops += n_pop
        if not self.trace:
            report.compute_cycles += engine._round_cycles(
                n_pop, n_new, n_tasks, checks
            )
            return
        stages = engine._stage_cycles(n_pop, n_new, n_tasks, checks)
        round_cycles = engine._CYCLE_MODELS[engine.variant](
            engine, stages, n_pop, n_new, n_tasks
        )
        cursor = self.cursor
        for lane, rel_start, rel_end in engine._module_offsets(
            stages, n_pop, n_new, n_tasks
        ):
            if rel_end > rel_start:
                report.module_spans.append(
                    (lane, cursor + rel_start, cursor + rel_end)
                )
        cursor += round_cycles
        if flush:
            report.module_spans.append(("flush", cursor, cursor + flush))
            cursor += flush
        self.cursor = cursor
        report.compute_cycles += round_cycles


class FastEngine:
    """Simulates FAST over CSTs for one device configuration."""

    def __init__(self, config: FpgaConfig | None = None,
                 variant: str = "sep",
                 trace_modules: bool = False) -> None:
        if variant not in VARIANTS:
            raise DeviceError(
                f"unknown variant {variant!r}; choose from {VARIANTS}"
            )
        self.config = config or FpgaConfig()
        self.variant = variant
        # When set, every report carries per-round module occupancy
        # spans on the card's serial cycle clock (Fig. 5 lanes); off by
        # default so the hot path allocates nothing extra.
        self.trace_modules = trace_modules

    # ------------------------------------------------------------------

    def run(
        self,
        cst: CST,
        order: tuple[int, ...] | None = None,
        collect_results: bool = False,
        plan: MatchPlan | None = None,
    ) -> KernelReport:
        """Match one CST; returns the cycle-accounted report.

        ``order`` defaults to the BFS order of the CST's spanning
        tree. ``collect_results`` materialises embeddings (as tuples
        indexed by query vertex) instead of only counting them.
        """
        cfg = self.config
        if plan is None:
            if order is None:
                order = tuple(cst.tree.bfs_order)
            plan = build_plan(cst.query, order)
        report = KernelReport(variant=self.variant, clock_mhz=cfg.clock_mhz)
        report.num_csts = 1
        if collect_results:
            report.results = []
        if self.trace_modules:
            report.module_spans = []
        if cst.is_empty():
            return report

        n_steps = plan.num_steps
        budget = cfg.batch_size
        replay = _Replay(self, report, n_steps)
        # Depth 1's level; each level links the next, the deepest one
        # the result store.
        top = None
        for step in range(n_steps - 1, 0, -1):
            top = _Level(cst, plan, step, budget, top,
                         report.results if top is None else None)

        if self.variant != "dram":
            report.load_cycles += cfg.load_cycles(cst.size_bytes())
            if replay.trace and report.load_cycles:
                report.module_spans.append(
                    ("load", 0.0, float(report.load_cycles))
                )
                replay.cursor = float(report.load_cycles)

        # Algorithm 4 lines 2-3: root candidates stream in N_o at a
        # time; each root round's batch is one depth-1 window.
        cands = cst.candidates[plan.order[0]]
        span = CHUNK_ROUNDS * budget
        for lo in range(0, len(cands), span):
            hi = min(lo + span, len(cands))
            windows = np.append(np.arange(0, hi - lo, budget), hi - lo)
            if top is not None:
                top.feed([np.arange(lo, hi)], windows)
            elif collect_results:
                report.results.extend(
                    _to_query_indexed(cst, [np.arange(lo, hi)], plan.order)
                )
            for w, take in enumerate(np.diff(windows).tolist()):
                replay.charge(0, 0, take, 0, take)
                if top is not None:
                    replay.peaks[1] = max(replay.peaks[1], take)
                    replay.walk(top, w)

        report.buffer_peaks = {
            d: replay.peaks[d] for d in range(1, n_steps)
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
                if replay.trace and crossing:
                    report.module_spans.append(
                        ("slr_crossing", replay.cursor,
                         replay.cursor + crossing)
                    )
        return report

    def run_many(
        self,
        csts: list[CST],
        order: tuple[int, ...] | None = None,
        collect_results: bool = False,
    ) -> KernelReport:
        """Match a sequence of CST partitions; reports are merged.

        Mirrors step 4 of the system overview: the kernel processes
        partitions one after another as long as any remain.
        """
        cfg = self.config
        total = KernelReport(variant=self.variant, clock_mhz=cfg.clock_mhz)
        if collect_results:
            total.results = []
        plan = None
        for cst in csts:
            if plan is None:
                o = order if order is not None else tuple(cst.tree.bfs_order)
                plan = build_plan(cst.query, o)
            total.merge(self.run(cst, collect_results=collect_results,
                                 plan=plan))
        return total

    # ------------------------------------------------------------------
    # Per-round timing
    # ------------------------------------------------------------------

    def _round_cycles(
        self, n_pop: int, n_new: int, n_tasks: int, checks: int
    ) -> int:
        """Cycles of one round for the configured variant.

        Stage composition follows Fig. 5: chained for serial designs,
        overlapped for dataflow designs. The shapes asymptotically
        match Equations 2-4 (tested in the cycle-model tests). Each
        variant's composition lives in its own ``_cycles_*`` method,
        resolved through :data:`_CYCLE_MODELS`.
        """
        stages = self._stage_cycles(n_pop, n_new, n_tasks, checks)
        return self._CYCLE_MODELS[self.variant](
            self, stages, n_pop, n_new, n_tasks
        )

    def _stage_cycles(
        self, n_pop: int, n_new: int, n_tasks: int, checks: int
    ) -> dict[str, int]:
        """Per-module pipeline fills shared by every variant."""
        cfg = self.config
        return {
            "read": pipelined_cycles(n_pop, cfg.l1),
            "gen": pipelined_cycles(n_new, cfg.l2),
            "visited": pipelined_cycles(n_new, cfg.l3),
            "collect": pipelined_cycles(n_new, cfg.l4),
            # T_n generation: the outer per-neighbour loop is not
            # pipelined (Algorithm 5 line 10), each inner loop is.
            "tn_gen": checks * pipelined_cycles(n_new, cfg.l5),
            "tn_val": pipelined_cycles(n_tasks, cfg.l6),
        }

    def _cycles_basic(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Serial modules, CST in BRAM (Equation 2).
        return chained(s["read"], s["gen"], s["visited"], s["collect"],
                       s["tn_gen"], s["tn_val"])

    def _cycles_dram(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Serial shape plus the DRAM/BRAM gap on every CST access.
        cfg = self.config
        gap = cfg.dram_latency - cfg.bram_latency
        return self._cycles_basic(s, n_pop, n_new, n_tasks) + gap * (
            n_pop
            + cfg.dram_reads_per_partial * n_new
            + cfg.dram_reads_per_task * n_tasks
        )

    def _cycles_task(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Phase A: generator loop 1 streams into the visited
        # validator. Phase B: the same generator then emits t_n,
        # overlapped with edge validation and collection (Equation 3).
        phase_a = overlapped(chained(s["read"], s["gen"]), s["visited"])
        phase_b = overlapped(s["tn_gen"], s["tn_val"], s["collect"])
        return chained(phase_a, phase_b)

    def _cycles_sep(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> int:
        # Duplicated generators let every module run concurrently
        # (Equation 4).
        return overlapped(
            chained(s["read"], s["gen"]), s["visited"], s["tn_gen"],
            s["tn_val"], s["collect"],
        )

    #: Variant -> cycle-model method (keys match :data:`VARIANTS`).
    _CYCLE_MODELS = {
        "dram": _cycles_dram,
        "basic": _cycles_basic,
        "task": _cycles_task,
        "sep": _cycles_sep,
    }

    def _module_offsets(
        self, s: dict[str, int], n_pop: int, n_new: int, n_tasks: int
    ) -> list[tuple[str, float, float]]:
        """Round-relative module occupancy ``(lane, start, end)`` spans.

        The spans *are* the variant's Fig. 5 dataflow: for each lane
        they start/end exactly where the matching ``_cycles_*``
        composition places the module, so the latest ``end`` equals the
        round's charged cycles (the invariant tests depend on this).
        Serial variants chain the five modules; ``task`` overlaps them
        in two phases (Equation 3); ``sep`` starts every module at
        cycle 0 (Equation 4).
        """
        gen = chained(s["read"], s["gen"])
        if self.variant == "sep":
            return [
                ("generator_tv", 0.0, float(gen)),
                ("visited_validator", 0.0, float(s["visited"])),
                ("generator_tn", 0.0, float(s["tn_gen"])),
                ("edge_validator", 0.0, float(s["tn_val"])),
                ("synchronizer", 0.0, float(s["collect"])),
            ]
        if self.variant == "task":
            phase_a = float(overlapped(gen, s["visited"]))
            return [
                ("generator_tv", 0.0, float(gen)),
                ("visited_validator", 0.0, float(s["visited"])),
                ("generator_tn", phase_a, phase_a + s["tn_gen"]),
                ("edge_validator", phase_a, phase_a + s["tn_val"]),
                ("synchronizer", phase_a, phase_a + s["collect"]),
            ]
        # Serial chain shared by ``basic`` and ``dram``, in the exact
        # order ``_cycles_basic`` chains the modules.
        spans = []
        cursor = 0.0
        for lane, width in (
            ("generator_tv", gen),
            ("visited_validator", s["visited"]),
            ("synchronizer", s["collect"]),
            ("generator_tn", s["tn_gen"]),
            ("edge_validator", s["tn_val"]),
        ):
            spans.append((lane, cursor, cursor + width))
            cursor += width
        if self.variant == "dram":
            cfg = self.config
            gap = (cfg.dram_latency - cfg.bram_latency) * (
                n_pop
                + cfg.dram_reads_per_partial * n_new
                + cfg.dram_reads_per_task * n_tasks
            )
            spans.append(("load", cursor, cursor + gap))
        return spans


def _to_query_indexed(
    cst: CST, pos: list[np.ndarray], order: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Turn position columns in matching order into data-vertex rows
    indexed by query vertex."""
    rank = {u: i for i, u in enumerate(order)}
    rows = np.column_stack([
        cst.candidates[u][pos[rank[u]]] for u in range(len(order))
    ])
    # One bulk tolist() materialises Python ints for the whole batch;
    # per-element int() casts in a nested loop dominated result
    # collection on large embeddings counts.
    return list(map(tuple, rows.tolist()))
