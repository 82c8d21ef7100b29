"""The benchmark's workloads: inputs made from the seed, and their ops.

Every workload runs FAST-SHARE (the serve default) on the ``sim-small``
device with default configuration: one process, ``workers=1``.
Datasets are generated afresh in set-up (``use_cache=False``, so no
dataset file is read or written) at the generator's default seed
:data:`DATASET_SEED`; the benchmark's seed shuffles the order of the
ops. The dataset seed is held fixed because it moves the workload
itself: over five dataset seeds, ``dg01-cold``'s pass time and p90
spread 26% and 33% (quartile distance over median), more than any
regression bound the benchmark could keep.

``dg01-cold``
    DG01 with a fresh :class:`~repro.runtime.context.RunContext` per
    match -- a CLI call minus import. The only workload where
    Algorithm 1 (CST build) runs on every op.
``mini-warm``
    DG-MINI on one shared context warmed with every query during
    set-up: the kernel-bound control. CST builds are cache hits, so a
    CST-build or partition optimisation should leave it flat.
``serve-zipf``
    One :class:`~repro.serve.server.MatchServer` with DG-MINI,
    DG-SMALL and DG01 resident and an empty stage cache, driven by one
    client in a closed loop (the next request is sent only after the
    previous response). Request popularity is Zipf (weight 1/rank)
    over the 27 (dataset, query) pairs in a fixed rank order, smaller
    datasets more popular; each pair receives its apportioned share of
    the trace and the seed shuffles arrival order. First touches build
    CSTs and repeats hit the stage cache. The rank order is fixed
    rather than drawn from the seed because per-pair costs span 2 ms
    to 1 s: a seed-drawn hot set moves p50 by 40-100% from seed to
    seed, which would swamp any change the benchmark has to resolve.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

QUERIES = tuple(f"q{i}" for i in range(9))
DEVICE = "sim-small"
BACKEND = "fast-share"
#: Generator seed of every dataset (the repository's default).
DATASET_SEED = 7

#: Requests in one serve trace. A run serves whole traces, each on a
#: fresh server, so every trace sees the same cache history.
TRACE_REQUESTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cold" | "warm" | "serve"
    datasets: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload("dg01-cold", "cold", ("DG01",)),
        Workload("mini-warm", "warm", ("DG-MINI",)),
        Workload("serve-zipf", "serve", ("DG-MINI", "DG-SMALL", "DG01")),
    )
}


@dataclass
class OpResult:
    """What one op returned, for the correctness and determinism checks."""

    dataset: str
    query: str
    status: str
    embeddings: int | None
    modeled_seconds: float
    partitions: int | None = None
    partials: int | None = None
    edge_tasks: int | None = None


# ----------------------------------------------------------------------
# Inputs: pure functions of the seed


def batch_rounds(seed: int) -> Iterator[tuple[str, ...]]:
    """The rounds of a batch workload, endlessly: each round is every
    query once, in a seed-shuffled order."""
    rng = random.Random(seed)
    while True:
        order = list(QUERIES)
        rng.shuffle(order)
        yield tuple(order)


def zipf_counts(total: int, n: int) -> list[int]:
    """Apportion ``total`` requests over ranks ``1..n`` by weight
    ``1/rank`` (largest remainder; ties go to the better rank)."""
    weights = [1.0 / r for r in range(1, n + 1)]
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_trace(
    seed: int, datasets: tuple[str, ...], requests: int = TRACE_REQUESTS
) -> list[tuple[str, str]]:
    """The closed-loop request trace: ``(dataset, query)`` pairs.

    Ranks run dataset-major in the given order (``datasets[0]``'s q0 is
    rank 1); the multiset is fixed by :func:`zipf_counts` and the seed
    shuffles arrival order.
    """
    pairs = [(d, q) for d in datasets for q in QUERIES]
    trace = [
        pair
        for pair, count in zip(pairs, zipf_counts(requests, len(pairs)))
        for _ in range(count)
    ]
    random.Random(seed).shuffle(trace)
    return trace


# ----------------------------------------------------------------------
# Sessions: set-up plus the op each workload times


class Session:
    """A workload after set-up: datasets generated, context or server
    created and, for ``mini-warm``, every query run once."""

    def __init__(self, workload: Workload,
                 datasets: tuple[str, ...] | None = None) -> None:
        from repro.experiments.harness import HarnessConfig
        from repro.ldbc.datasets import load_dataset
        from repro.runtime.registry import REGISTRY

        self.workload = workload
        self.datasets = datasets or workload.datasets
        self.config = HarnessConfig(
            device=DEVICE, seed=DATASET_SEED, use_cache=False)
        self.spec = REGISTRY.get(BACKEND)
        self.results: list[OpResult] = []
        self.context = None
        self.server = None
        self._sink = io.StringIO()
        #: Every dataset, generated once in set-up.
        self.loaded: dict[str, Any] = {}
        if workload.kind == "serve":
            # The first server generates the datasets, as it would for
            # first requests; later servers re-seat the same objects.
            self.new_server()
        else:
            self.loaded = {
                name: load_dataset(name, use_cache=False, seed=DATASET_SEED)
                for name in self.datasets
            }
        #: The graphs the ops match against, for the correctness oracle.
        self.graphs = {name: d.graph for name, d in self.loaded.items()}
        if workload.kind == "warm":
            from repro.experiments.harness import make_context

            self.context = make_context(self.config)
            for query in QUERIES:
                self.match(self.datasets[0], query)

    # -- batch ---------------------------------------------------------

    def match(self, dataset: str, query: str) -> OpResult:
        """One batch op: a fresh context per match (``cold``) or the
        shared warm one."""
        from repro.experiments.harness import make_context
        from repro.ldbc.queries import get_query

        graph = self.graphs[dataset]
        qgraph = get_query(query).graph
        if self.context is not None:
            out = self.spec.run(self.context, qgraph, graph)
        else:
            ctx = make_context(self.config)
            try:
                out = self.spec.run(ctx, qgraph, graph)
            finally:
                ctx.close()
        raw = out.raw
        result = OpResult(
            dataset, query, out.verdict, out.embeddings, out.seconds,
            partitions=raw.num_partitions,
            partials=raw.kernel_report.total_partials,
            edge_tasks=raw.kernel_report.total_edge_tasks,
        )
        self.results.append(result)
        return result

    # -- serve ---------------------------------------------------------

    def new_server(self) -> None:
        """A fresh server with every dataset resident and an empty
        stage cache."""
        from repro.serve.server import MatchServer, ServeConfig

        if self.server is not None:
            self.server.close()
        self.server = MatchServer(ServeConfig(harness=self.config))
        for name in self.datasets:
            # Residency as a first request would load it; generation
            # belongs to set-up, not to the first request's latency.
            if name in self.loaded:
                self.server._datasets[name] = self.loaded[name]
            else:
                self.loaded[name] = self.server._dataset(name)
        self._requests = 0

    def request(self, dataset: str, query: str) -> OpResult:
        """Send one request and wait for its response (closed loop)."""
        self._requests += 1
        line = json.dumps({
            "id": f"r{self._requests}", "dataset": dataset, "query": query,
        })
        self.server.run([line], self._sink)
        response: dict[str, Any] = self.server.responses[-1]
        result = OpResult(
            dataset, query, response["status"], response.get("embeddings"),
            response.get("modeled_seconds") or 0.0,
        )
        self.results.append(result)
        return result

    def op(self, dataset: str, query: str) -> Callable[[], OpResult]:
        if self.workload.kind == "serve":
            return lambda: self.request(dataset, query)
        return lambda: self.match(dataset, query)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.context is not None:
            self.context.close()
            self.context = None
