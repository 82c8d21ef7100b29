"""Timing shims around the pipeline's public entry points.

A traced run installs wrappers around the calls into each layer and
records one span per call: name, start, end, parent span and request
id. Spans stay in memory; the benchmark aggregates them when the run
ends. Nothing here changes what the wrapped functions compute.

Shimmed entry points (the names the per-layer metrics use):

* ``plan`` ... ``merge`` -- the six stage functions as bound in
  :mod:`repro.host.runtime`, which is where ``FastRunner.run`` looks
  them up;
* ``engine`` -- :meth:`repro.fpga.engine.FastEngine.run` (one kernel
  launch per FPGA partition);
* ``cpu_share`` -- ``cst_embeddings`` as bound in
  :mod:`repro.runtime.stages` (the CPU share of FAST-SHARE);
* ``runner`` -- :meth:`repro.host.runtime.FastRunner.run`, whose
  :class:`~repro.runtime.context.RunMetrics` the ledger cross-check
  compares against the stage spans.

The recorder also notes every garbage-collector pause while installed:
a pause that lands inside a shim but outside the stage's own timer is
real time the two clocks legitimately disagree on.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Shim name -> name of the function in ``repro.host.runtime``.
STAGE_FUNCTIONS = {
    "plan": "plan_stage",
    "build_cst": "build_cst_stage",
    "partition": "partition_stage",
    "schedule": "schedule_stage",
    "execute": "execute_stage",
    "merge": "merge_stage",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    facts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        #: ``(start, end)`` of each garbage-collector pause.
        self.gc_pauses: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._gc_start = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.request)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        facts: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        def shim(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if facts is not None:
                    record.facts.update(facts(result))
                return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def gc_seconds(self, span: Span) -> float:
        """Collector pause time inside ``span``."""
        return sum(max(0.0, min(end, span.end) - max(start, span.start))
                   for start, end in self.gc_pauses)

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))

    def self_seconds(self) -> list[float]:
        """Each span's duration minus its direct children's."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch the shims in; restore the originals on exit."""
        import repro.host.runtime as host_runtime
        import repro.runtime.stages as stages
        from repro.fpga.engine import FastEngine
        from repro.host.runtime import FastRunner

        patches: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, shim: Callable[..., Any]) -> None:
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, shim)

        for name, func in STAGE_FUNCTIONS.items():
            patch(host_runtime, func,
                  self.wrap(name, getattr(host_runtime, func)))
        patch(FastEngine, "run", self.wrap(
            "engine", FastEngine.run,
            lambda report: {
                "partials": report.total_partials,
                "edge_tasks": report.total_edge_tasks,
            },
        ))
        patch(stages, "cst_embeddings",
              self.wrap("cpu_share", stages.cst_embeddings))
        patch(FastRunner, "run", self.wrap(
            "runner", FastRunner.run,
            lambda result: {"metrics": result.metrics},
        ))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
