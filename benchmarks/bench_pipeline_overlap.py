"""Pipeline-overlap benchmark: serial vs. overlapped vs. worker pool.

Measures the execute stage's operating points on a partition-stressed
device (so the run actually has a long stream of FPGA partitions to
pipeline):

``serial``
    ``workers=1, buffers=1`` — the original flat model and inline loop.
``overlapped``
    ``workers=1, buffers=2`` — modeled double-buffered transfer/compute
    overlap, still inline.
``process``
    ``workers=4, buffers=2`` — the warm worker pool fed by the
    zero-copy shared-memory CST plane (descriptors over named
    segments; see docs/runtime.md).
``process_pickled``
    The same pool with its shared-memory arena made unavailable, so
    every task pickles its full CST payload through the call pipe —
    the fallback the arena exists to beat.

Standalone usage (CI's perf-smoke job runs ``--check``)::

    python benchmarks/bench_pipeline_overlap.py            # print JSON
    python benchmarks/bench_pipeline_overlap.py --write    # refresh baseline
    python benchmarks/bench_pipeline_overlap.py --check    # gate vs baseline

``--check`` compares against the committed ``BENCH_overlap.json`` with
a *ratio* gate: the process speedup (pickled-process CPU / shm-process
CPU) may not regress past ``REGRESSION_FACTOR`` times below the
baseline's. ``process_wall_speedup`` (overlapped wall / process wall:
same buffers, inline vs. pool) is reported, not gated — on a 2-CPU
host the pool does not beat the inline loop, which is why
``--workers`` defaults to 1. Gating on ratios rather than absolute
wall time keeps the job meaningful across machines with different core
counts. The device is
deliberately tiny (4 KB BRAM, 4 ports) so DG-MINI/q1 shatters into
~1.3k partitions: the shm plane's per-task savings only show on a long
partition stream.

The process speedup is computed over *CPU seconds* (parent plus the
warm pool's workers, read from ``/proc`` because live workers are
never reaped), not wall clock: serialization is pure CPU work, and CPU
time is immune to the scheduler noise that dominates wall time when
four worker processes contend for few cores.

Sampling: every mode keeps one warm context; the timed runs are
interleaved round by round (alternating the mode order) and each mode
reports its median. A failing ``--check`` is re-measured once and
fails only if the rerun fails too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.common.io import atomic_write_json
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime import shm
from repro.runtime.registry import REGISTRY

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_overlap.json"

#: Allowed process-speedup regression vs. the committed baseline.
REGRESSION_FACTOR = 1.2

DATASET = "DG-MINI"
QUERY = "q1"
BACKEND = "fast-share"

#: Far below ``tight_config``: 4 KB of BRAM and a 4-port Edge
#: Validator shatter DG-MINI/q1 into ~1.3k partitions, long enough a
#: stream that per-task dispatch costs (the pickle tax) dominate.
BENCH_FPGA = FpgaConfig(bram_bytes=4 * 1024, batch_size=16, max_ports=4)

#: The operating points, in reporting order: (knobs, arena available?).
MODES: dict[str, tuple[dict, bool]] = {
    "serial": ({"workers": 1, "buffers": 1}, True),
    "overlapped": ({"workers": 1, "buffers": 2}, True),
    "process": ({"workers": 4, "buffers": 2}, True),
    "process_pickled": ({"workers": 4, "buffers": 2}, False),
}


def _no_arena(*args, **kwargs):
    raise OSError("shared-memory arena disabled by the benchmark")


def _cpu_seconds() -> float:
    """Cumulative user+system CPU of this process and reaped children."""
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_ru.ru_utime + self_ru.ru_stime
            + child_ru.ru_utime + child_ru.ru_stime)


def _worker_cpu_seconds(ctx) -> float:
    """User+system CPU of the context's live pool workers.

    Warm workers outlive every run, so ``RUSAGE_CHILDREN`` never sees
    them; their ``/proc/<pid>/stat`` does (0 where ``/proc`` is
    absent, which under-counts the pool modes).
    """
    pool = ctx.worker_pool
    if pool is None:
        return 0.0
    ticks = 0
    for pid in pool.worker_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _timed_run(ctx, arena: bool) -> tuple[float, float, object]:
    """Wall and CPU seconds of one run on ``ctx``.

    ``arena=False`` makes the pool's shared-memory arena unavailable,
    so CSTs reach the workers pickled.
    """
    dataset = load_dataset(DATASET)
    query = get_query(QUERY)
    with ExitStack() as stack:
        if not arena:
            stack.enter_context(
                mock.patch.object(shm, "CstArena", _no_arena)
            )
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("ignore", RuntimeWarning)
        t0 = time.perf_counter()
        c0 = _cpu_seconds() + _worker_cpu_seconds(ctx)
        out = REGISTRY.get(BACKEND).run(ctx, query.graph, dataset.graph)
        cpu = _cpu_seconds() + _worker_cpu_seconds(ctx) - c0
        return time.perf_counter() - t0, cpu, out


def _measure_modes(repeats: int) -> dict:
    """Median wall and CPU time of ``repeats`` warm-cache runs per
    mode, interleaved across modes."""
    contexts = {}
    samples: dict[str, list] = {name: [] for name in MODES}
    try:
        for name, (knobs, arena) in MODES.items():
            contexts[name] = make_context(
                HarnessConfig(fpga=BENCH_FPGA, **knobs)
            )
            # Warm the CST/partition cache (and fork the pool) so the
            # timed runs are dominated by the execute stage.
            _timed_run(contexts[name], arena)
        for round_ in range(repeats):
            order = list(MODES) if round_ % 2 == 0 else list(MODES)[::-1]
            for name in order:
                samples[name].append(
                    _timed_run(contexts[name], MODES[name][1])
                )
    finally:
        for ctx in contexts.values():
            ctx.close()
    modes = {}
    for name, (knobs, arena) in MODES.items():
        walls, cpus, outs = zip(*samples[name])
        out = outs[-1]
        execute = out.metrics["stages"]["execute"]
        modes[name] = {
            **knobs,
            "arena": arena,
            "wall_seconds": statistics.median(walls),
            "cpu_seconds": statistics.median(cpus),
            "modeled_seconds": out.seconds,
            "execute_modeled_seconds": execute["modeled_seconds"],
            "cst_plane": execute.get("cst_plane"),
            "fpga_partitions": execute.get("num_csts", 0),
            "embeddings": out.embeddings,
        }
    return modes


def collect(repeats: int = 5) -> dict:
    """Measure every mode and derive the headline ratios."""
    modes = _measure_modes(repeats)
    counts = {m["embeddings"] for m in modes.values()}
    if len(counts) != 1:
        raise AssertionError(
            f"embedding counts diverged across modes: {counts}"
        )
    serial, overlapped = modes["serial"], modes["overlapped"]
    return {
        "dataset": DATASET,
        "query": QUERY,
        "backend": BACKEND,
        "cpus": os.cpu_count(),
        "modes": modes,
        # Reported, not gated: does the pool beat the inline loop at
        # equal buffers on this host?
        "process_wall_speedup": (
            overlapped["wall_seconds"] / modes["process"]["wall_seconds"]
        ),
        # The shm plane's headline: same process pool, same tasks, the
        # only difference is descriptors vs. pickled array payloads.
        # CPU seconds, not wall — see the module docstring.
        "process_speedup": (
            modes["process_pickled"]["cpu_seconds"]
            / modes["process"]["cpu_seconds"]
        ),
        "overlap_modeled_ratio": (
            overlapped["modeled_seconds"] / serial["modeled_seconds"]
        ),
    }


def check(payload: dict, baseline: dict) -> list[str]:
    """Gate failures of ``payload`` against the committed baseline."""
    failures: list[str] = []
    process_floor = baseline["process_speedup"] / REGRESSION_FACTOR
    if payload["process_speedup"] < process_floor:
        failures.append(
            f"process (shm vs pickled) speedup "
            f"{payload['process_speedup']:.3f} fell below "
            f"{process_floor:.3f} (baseline "
            f"{baseline['process_speedup']:.3f} / {REGRESSION_FACTOR})"
        )
    if payload["overlap_modeled_ratio"] > 1.0 + 1e-9:
        failures.append(
            "overlapped modeled time exceeds the serial model "
            f"(ratio {payload['overlap_modeled_ratio']:.6f})"
        )
    if payload["modes"]["serial"]["embeddings"] != (
        baseline["modes"]["serial"]["embeddings"]
    ):
        failures.append(
            f"embedding count changed: "
            f"{payload['modes']['serial']['embeddings']} vs baseline "
            f"{baseline['modes']['serial']['embeddings']}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if the process speedup regressed "
                             f"past {REGRESSION_FACTOR}x below the "
                             "committed baseline")
    parser.add_argument("--write", action="store_true",
                        help="refresh the committed baseline JSON")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    payload = collect(repeats=args.repeats)
    print(json.dumps(payload, indent=2))
    if args.write:
        # Atomic: an interrupt mid-write leaves the old baseline intact
        # instead of truncated JSON.
        atomic_write_json(BASELINE_PATH, payload)
        print(f"wrote {BASELINE_PATH}", file=sys.stderr)
    if args.check:
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check(payload, baseline)
        if failures:
            print("gate failed; re-measuring once to confirm",
                  file=sys.stderr)
            payload = collect(repeats=args.repeats)
            failures = check(payload, baseline)
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"OK: process speedup {payload['process_speedup']:.3f} "
            f"(baseline {baseline['process_speedup']:.3f}), process "
            f"wall speedup {payload['process_wall_speedup']:.3f} "
            f"(reported), overlap modeled ratio "
            f"{payload['overlap_modeled_ratio']:.6f}",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_overlap_modes_agree_and_never_slower_modeled(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, collect, 1)
    modes = payload["modes"]
    counts = {m["embeddings"] for m in modes.values()}
    assert len(counts) == 1, counts
    # The double-buffered model can only hide time, never add it.
    assert payload["overlap_modeled_ratio"] <= 1.0 + 1e-9
    # Neither the worker count nor the CST plane may leak into the
    # modeled domain.
    for name in ("process", "process_pickled"):
        assert modes[name]["modeled_seconds"] == (
            modes["overlapped"]["modeled_seconds"]
        ), name
    assert modes["process"]["cst_plane"] == "shm"
    assert modes["process_pickled"]["cst_plane"] == "pickle"
    print(
        f"\nprocess speedup: {payload['process_speedup']:.3f}, "
        f"process wall speedup: {payload['process_wall_speedup']:.3f} "
        f"({payload['cpus']} cpus)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
