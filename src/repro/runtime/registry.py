"""Backend registry: every executor under one stable name.

Each matching system in the repo registers a :class:`BackendSpec`
describing what it is (family, cost-model domain, whether it builds a
CST, which failure verdicts it can report) and how to run it against a
``(query, data)`` pair under a :class:`~repro.runtime.context.RunContext`.
Entry points (CLI, experiment harness, benchmarks) resolve backends by
name through the module-level :data:`REGISTRY` instead of hard-coding
algorithm dispatch.

Canonical names are lower-case (``fast-share``, ``cfl``, ...); the
paper's display names (``FAST``, ``CFL-Match`` era spellings like
``FAST-SEP``) are registered as aliases, so existing harness call
sites keep working verbatim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines import make_baseline
from repro.baselines.reference import count_reference_embeddings
from repro.common.errors import BackendError
from repro.graph.graph import Graph
from repro.host.multi_fpga import MultiFpgaRunner, fleet_size
from repro.host.runtime import FastRunner
from repro.query.query_graph import QueryGraph
from repro.runtime.context import RunContext

#: Verdicts any entry point must be prepared to see.
FAILURE_VERDICTS = ("OOM", "INF", "OVERFLOW")


@dataclass
class RunOutcome:
    """Uniform outcome of one backend run.

    ``seconds`` is in the backend's declared cost domain; ``metrics``
    is the structured per-stage payload (``RunMetrics.to_dict()``)
    when the backend reports stages, else a minimal dict. ``raw``
    carries the backend's native result object for callers that need
    detail beyond the uniform fields.
    """

    backend: str
    verdict: str
    seconds: float
    embeddings: int
    metrics: dict[str, Any] = field(default_factory=dict)
    detail: str = ""
    raw: object = None

    @property
    def ok(self) -> bool:
        return self.verdict == "OK"

    @property
    def degraded(self) -> bool:
        """Whether the run recovered by deviating from its plan
        (re-partition, CPU fallback, or device failover)."""
        health = self.metrics.get("health") or {}
        return bool(health.get("degraded"))

    @property
    def health(self) -> dict[str, Any]:
        """The run's health block (empty dict for health-less runs)."""
        return self.metrics.get("health") or {}


#: Backend entry point: ``(ctx, query, data, **kwargs) -> RunOutcome``.
BackendRunner = Callable[..., RunOutcome]


@dataclass(frozen=True)
class BackendSpec:
    """One registered executor and its declared capabilities."""

    name: str
    summary: str
    #: "fast" | "multi-fpga" | "cpu" | "gpu" | "reference"
    family: str
    #: Which modeled-time domain ``seconds`` lives in.
    cost_domain: str
    #: Whether the backend builds a CST-shaped index (and thus benefits
    #: from the context's CST cache).
    needs_cst: bool
    #: Failure verdicts the backend can report besides "OK".
    verdicts: tuple[str, ...]
    aliases: tuple[str, ...]
    run: BackendRunner

    def capabilities(self) -> dict[str, Any]:
        """Flat capability dict (the ``backends`` CLI renders this)."""
        return {
            "name": self.name,
            "family": self.family,
            "cost_domain": self.cost_domain,
            "needs_cst": self.needs_cst,
            "verdicts": ("OK", *self.verdicts),
            "aliases": self.aliases,
        }


class BackendRegistry:
    """Name -> :class:`BackendSpec` with alias resolution."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}
        self._aliases: dict[str, str] = {}

    def register(self, spec: BackendSpec) -> BackendSpec:
        key = spec.name.lower()
        if key in self._specs or key in self._aliases:
            raise BackendError(f"backend {spec.name!r} already registered")
        self._specs[key] = spec
        for alias in spec.aliases:
            akey = alias.lower()
            if akey == key or self._aliases.get(akey) == key:
                continue  # case-variant of the canonical name / dup
            if akey in self._specs or akey in self._aliases:
                raise BackendError(
                    f"alias {alias!r} of backend {spec.name!r} collides "
                    f"with an existing registration"
                )
            self._aliases[akey] = key
        return spec

    def names(self) -> tuple[str, ...]:
        """Canonical backend names, sorted."""
        return tuple(sorted(self._specs))

    def specs(self) -> tuple[BackendSpec, ...]:
        return tuple(self._specs[n] for n in self.names())

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._specs or key in self._aliases

    def get(self, name: str) -> BackendSpec:
        """Resolve ``name`` (canonical or alias, case-insensitive)."""
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._specs:
            raise BackendError(
                f"unknown backend {name!r}; valid names: "
                f"{', '.join(self.names())}"
            )
        return self._specs[key]

    def run(
        self,
        name: str,
        query: Graph | QueryGraph,
        data: Graph,
        ctx: RunContext | None = None,
        **kwargs: Any,
    ) -> RunOutcome:
        """Resolve and execute a backend in one call."""
        return self.get(name).run(ctx or RunContext(), query, data, **kwargs)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------


def _fast_runner(canonical: str, variant: str) -> BackendRunner:
    def run(
        ctx: RunContext,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
        collect_results: bool = False,
    ) -> RunOutcome:
        runner = FastRunner(
            config=ctx.fpga, variant=variant, delta=ctx.delta,
            cpu_cost_model=ctx.cpu_cost, context=ctx,
            split_policy=ctx.split_policy,
        )
        result = runner.run(
            query, data, order=order, collect_results=collect_results
        )
        metrics = result.metrics.to_dict() if result.metrics else {}
        return RunOutcome(
            backend=canonical,
            verdict="OK",
            seconds=result.total_seconds,
            embeddings=result.embeddings,
            metrics=metrics,
            raw=result,
        )

    return run


def _multi_fpga_runner(canonical: str) -> BackendRunner:
    def run(
        ctx: RunContext,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
        num_devices: int | None = None,
    ) -> RunOutcome:
        runner = MultiFpgaRunner(
            num_devices=num_devices or fleet_size(ctx.fleet),
            config=ctx.fpga,
            cpu_cost_model=ctx.cpu_cost, context=ctx,
            fleet=ctx.fleet,
        )
        result = runner.run(query, data, order=order)
        metrics = result.metrics.to_dict() if result.metrics else {}
        return RunOutcome(
            backend=canonical,
            verdict="OK",
            seconds=result.total_seconds,
            embeddings=result.embeddings,
            metrics=metrics,
            raw=result,
        )

    return run


def _baseline_runner(canonical: str) -> BackendRunner:
    def run(
        ctx: RunContext,
        query: Graph | QueryGraph,
        data: Graph,
        **_: Any,
    ) -> RunOutcome:
        algo = make_baseline(
            canonical, cost_model=ctx.cpu_cost, limits=ctx.limits
        )
        metrics = ctx.begin_run(canonical)
        with ctx.stage("execute") as st:
            out = algo.run(query, data)
            result = out[0] if isinstance(out, tuple) else out
            st.modeled_seconds += result.seconds
            st.note(
                verdict=result.verdict,
                index_seconds=result.index_seconds,
            )
        with ctx.stage("merge") as st:
            st.note(embeddings=result.embeddings)
        ctx.finish_run()
        return RunOutcome(
            backend=canonical,
            verdict=result.verdict,
            seconds=result.seconds,
            embeddings=result.embeddings,
            metrics=metrics.to_dict(),
            detail=result.detail,
            raw=result,
        )

    return run


def _reference_runner(canonical: str) -> BackendRunner:
    def run(
        ctx: RunContext,
        query: Graph | QueryGraph,
        data: Graph,
        order: tuple[int, ...] | None = None,
        **_: Any,
    ) -> RunOutcome:
        metrics = ctx.begin_run(canonical)
        with ctx.stage("execute") as st:
            t0 = time.perf_counter()
            embeddings = count_reference_embeddings(query, data, order)
            seconds = time.perf_counter() - t0
            # The brute-force oracle has no cost model; it reports real
            # wall time (declared via cost_domain="wall-clock").
            st.modeled_seconds += seconds
        with ctx.stage("merge") as st:
            st.note(embeddings=embeddings)
        ctx.finish_run()
        return RunOutcome(
            backend=canonical,
            verdict="OK",
            seconds=seconds,
            embeddings=embeddings,
            metrics=metrics.to_dict(),
        )

    return run


def _register_builtins(registry: BackendRegistry) -> None:
    fast = [
        ("fast-dram", "dram", "whole CST on card DRAM, no partitioning",
         ("FAST-DRAM", "dram")),
        ("fast-basic", "basic", "BRAM-resident partitions, serial modules",
         ("FAST-BASIC", "basic")),
        ("fast-task", "task", "task parallelism across kernel modules",
         ("FAST-TASK", "task")),
        ("fast-sep", "sep", "separated t_v/t_n generators, full dataflow",
         ("FAST-SEP", "sep")),
        ("fast-share", "share", "co-design: CPU absorbs a delta share",
         ("FAST", "share", "fast")),
    ]
    for canonical, variant, summary, aliases in fast:
        registry.register(BackendSpec(
            name=canonical,
            summary=summary,
            family="fast",
            cost_domain="fpga-cycles",
            needs_cst=True,
            verdicts=(),
            aliases=aliases,
            run=_fast_runner(canonical, variant),
        ))

    registry.register(BackendSpec(
        name="multi-fpga",
        summary="FAST-SEP across N devices, min-workload assignment",
        family="multi-fpga",
        cost_domain="fpga-cycles",
        needs_cst=True,
        verdicts=(),
        aliases=("MULTI-FPGA", "multi"),
        run=_multi_fpga_runner("multi-fpga"),
    ))

    cpu = [
        ("cfl", "CFL-Match: CPI index + core-forest matching", ("CFL",)),
        ("daf", "DAF: CS index, adaptive order, full refinement",
         ("DAF",)),
        ("ceci", "CECI: embedding-cluster index", ("CECI",)),
        ("daf-8", "DAF on 8 modeled threads (LPT)", ("DAF-8",)),
        ("ceci-8", "CECI on 8 modeled threads (LPT)", ("CECI-8",)),
    ]
    for canonical, summary, aliases in cpu:
        registry.register(BackendSpec(
            name=canonical,
            summary=summary,
            family="cpu",
            cost_domain="cpu-ops",
            needs_cst=True,
            verdicts=FAILURE_VERDICTS,
            aliases=aliases,
            run=_baseline_runner(canonical),
        ))

    gpu = [
        ("gpsm", "GpSM: GPU join pipeline on the V100 roofline",
         ("GpSM",)),
        ("gsi", "GSI: GPU vertex-oriented join on the V100 roofline",
         ("GSI",)),
    ]
    for canonical, summary, aliases in gpu:
        registry.register(BackendSpec(
            name=canonical,
            summary=summary,
            family="gpu",
            cost_domain="gpu-roofline",
            needs_cst=False,
            verdicts=FAILURE_VERDICTS,
            aliases=aliases,
            run=_baseline_runner(canonical),
        ))

    registry.register(BackendSpec(
        name="reference",
        summary="brute-force backtracking oracle (ground truth)",
        family="reference",
        cost_domain="wall-clock",
        needs_cst=False,
        verdicts=(),
        aliases=("REF", "brute-force"),
        run=_reference_runner("reference"),
    ))


#: The process-wide registry every entry point consumes.
REGISTRY = BackendRegistry()
_register_builtins(REGISTRY)
