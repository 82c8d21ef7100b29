"""Arithmetic of the ledger: percentiles, correctness, layer totals.

Pure functions over recorded samples and spans, kept apart from the
orchestration in ``run.py`` so the self-tests can drive them directly.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from spans import STAGE_FUNCTIONS, SpanRecorder
from workloads import OpResult

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

#: Stages this long or longer are cross-checked against RunMetrics.
CROSS_CHECK_MIN_S = 0.010
#: Allowed gap between a stage shim and the stage's own wall clock:
#: the shim also times the call itself and the stage's set-up before
#: ``ctx.stage()`` opens.
CROSS_CHECK_ABS_S = 0.002
CROSS_CHECK_REL = 0.05

#: Span name -> per-layer time metric.
SPAN_METRICS = {
    "plan": "query.plan_s",
    "build_cst": "cst.build_s",
    "partition": "cst.partition_s",
    "schedule": "host.schedule_s",
    "execute": "runtime.execute_s",
    "merge": "runtime.merge_s",
    "engine": "fpga.engine_s",
    "cpu_share": "host.cpu_share_s",
}

#: Per-pass counts that must repeat exactly from pass to pass and run
#: to run of one tree.
DETERMINISTIC = ("modeled_s", "cst.partitions", "fpga.partials",
                 "fpga.edge_tasks")


def has_tail(samples: int, percentile: int) -> bool:
    """Whether ``samples`` leave :data:`TAIL_SAMPLES` beyond the
    ``percentile``-th percentile."""
    return samples * (100 - percentile) >= TAIL_SAMPLES * 100


def require_tail(samples: int, percentile: int) -> None:
    """Raise unless :func:`has_tail`."""
    if not has_tail(samples, percentile):
        raise ValueError(
            f"p{percentile} of {samples} samples has fewer than "
            f"{TAIL_SAMPLES} samples beyond it"
        )


def hd_quantile(values: Iterable[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta(q(n+1),
    (1-q)(n+1)) weights. The samples of a workload mix queries whose
    costs differ 100-fold, so a single order statistic jumps whenever
    noise reorders two neighbours from different queries; over ten runs
    of ``dg01-cold`` this estimator halved the spread of p90 (0.13 to
    0.08, quartile distance over median) against linear interpolation.
    """
    x = np.sort(np.fromiter(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # The Beta CDF at i/n, by trapezoidal integration of its density.
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    log_pdf = ((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    pdf = np.concatenate(([0.0], np.exp(log_pdf), [0.0]))
    cdf = np.concatenate(
        ([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def median(values: Iterable[float]) -> float:
    return hd_quantile(values, 0.5)


def percentile(values: list[float], pct: int) -> float:
    """Harrell-Davis percentile, enforcing the tail rule."""
    require_tail(len(values), pct)
    return hd_quantile(values, pct / 100)


def failed_ops(results: Iterable[OpResult],
               oracle: dict[tuple[str, str], int]) -> list[OpResult]:
    """Ops whose status is not ``OK`` or whose count differs from the
    reference backend's."""
    return [
        r for r in results
        if r.status != "OK" or r.embeddings != oracle[(r.dataset, r.query)]
    ]


def pass_counts(results: list[OpResult]) -> dict[str, Any]:
    """Deterministic facts of one pass, from the ops' own results."""
    # fsum: the exact sum, independent of the seed-shuffled op order.
    out: dict[str, Any] = {
        "modeled_s": math.fsum(r.modeled_seconds for r in results)
    }
    if all(r.partitions is not None for r in results):
        out["cst.partitions"] = sum(r.partitions for r in results)
        out["fpga.partials"] = sum(r.partials for r in results)
        out["fpga.edge_tasks"] = sum(r.edge_tasks for r in results)
    return out


def layer_totals(recorder: SpanRecorder, factors: dict[str, float],
                 serve: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``factors`` maps each op's request id to its calibration factor;
    every span inside the op is scaled by it.
    """
    totals = {name: 0.0 for name in SPAN_METRICS.values()}
    totals.update({
        "runtime.execute_self_s": 0.0, "serve.overhead_s": 0.0,
        "fpga.engine_calls": 0, "fpga.partials": 0, "fpga.edge_tasks": 0,
        "host.cpu_share_calls": 0, "cst.partitions": 0,
    })
    build_calls = build_misses = partition_calls = partition_hits = 0
    requests = 0
    self_times = recorder.self_seconds()
    for index, span in enumerate(recorder.spans):
        f = factors[span.request]
        if span.name in SPAN_METRICS:
            totals[SPAN_METRICS[span.name]] += span.seconds * f
        if span.name == "execute":
            totals["runtime.execute_self_s"] += self_times[index] * f
        elif span.name == "engine":
            totals["fpga.engine_calls"] += 1
            totals["fpga.partials"] += span.facts["partials"]
            totals["fpga.edge_tasks"] += span.facts["edge_tasks"]
        elif span.name == "cpu_share":
            totals["host.cpu_share_calls"] += 1
        elif span.name == "request":
            requests += 1
            if serve:
                totals["serve.overhead_s"] += self_times[index] * f
        elif span.name == "runner":
            stages = span.facts["metrics"].stages
            build_calls += 1
            build_misses += not stages["build_cst"].extra["cached"]
            partition = stages["partition"].extra
            partition_calls += 1
            partition_hits += bool(partition["cached"])
            totals["cst.partitions"] += partition["num_partitions"]
    if serve and requests:
        totals["serve.overhead_s"] /= requests
    totals["cst.build_calls"] = build_misses
    totals["cst.cache_hit_rate"] = (
        (build_calls - build_misses) / build_calls if build_calls else 0.0
    )
    totals["cst.partition_cache_hit_rate"] = (
        partition_hits / partition_calls if partition_calls else 0.0
    )
    tasks = totals["fpga.partials"] + totals["fpga.edge_tasks"]
    totals["fpga.host_us_per_task"] = (
        totals["fpga.engine_s"] * 1e6 / tasks if tasks else 0.0
    )
    return totals


def cross_check(recorder: SpanRecorder) -> list[str]:
    """Compare each stage shim with the stage's own ``wall_seconds``.

    Returns one message per disagreeing stage of at least
    :data:`CROSS_CHECK_MIN_S`. A garbage-collector pause inside a shim
    may fall outside the stage's own timer, so the shim may exceed the
    stage by the pause time it contains on top of the tolerance.
    """
    shim: dict[tuple[int, str], float] = {}
    paused: dict[tuple[int, str], float] = {}
    for span in recorder.spans:
        if span.name in STAGE_FUNCTIONS and span.parent is not None:
            key = (span.parent, span.name)
            shim[key] = shim.get(key, 0.0) + span.seconds
            paused[key] = paused.get(key, 0.0) + recorder.gc_seconds(span)
    problems = []
    for index, span in enumerate(recorder.spans):
        if span.name != "runner":
            continue
        for name, stage in span.facts["metrics"].stages.items():
            measured = shim.get((index, name), 0.0)
            own = stage.wall_seconds
            if max(own, measured) < CROSS_CHECK_MIN_S:
                continue
            slack = CROSS_CHECK_ABS_S + CROSS_CHECK_REL * own
            pause = paused.get((index, name), 0.0)
            if not -slack <= measured - own <= slack + pause:
                problems.append(
                    f"request {span.request}: stage {name} shim "
                    f"{measured:.4f}s vs RunMetrics {own:.4f}s"
                )
    return problems
