"""Warm worker-pool benchmark: derived chunking vs. one-task dispatch.

Measures the wall-clock win the supervised warm pool
(:mod:`repro.runtime.pool`) gets from coarser units of work:

``tail_unchunked`` vs ``tail_chunked``
    One batch on a partition-shattered device (~1.3k tiny FPGA
    partitions). Unchunked patches the pool's chunk rule to one task
    per dispatch, so every partition is its own pipe round-trip;
    chunked uses the rule the pool derives from the pending task
    count (:func:`repro.runtime.pool.derive_chunk`, about eight
    chunks per worker).
``serve_warm``
    A serve-style workload — several consecutive batches of the same
    (dataset, query) through one run context and one warm pool.
    Reported, not gated: the cold per-stage pool it used to be
    compared with is gone.

Standalone usage (CI's chaos job runs ``--check``)::

    python benchmarks/bench_pool_warm.py            # print JSON
    python benchmarks/bench_pool_warm.py --write    # refresh baseline
    python benchmarks/bench_pool_warm.py --check    # gate vs baseline

``--check`` compares against the committed ``BENCH_pool.json`` with a
*ratio* gate: the chunked-over-unchunked CPU-time speedup may not
regress past ``REGRESSION_FACTOR`` times below the baseline's, and
embedding counts / modeled seconds must be identical across every
mode (the pool is wall-clock-only machinery). Ratios are computed over
CPU seconds — parent plus reaped workers, with each mode's context
closed inside the measured region so warm workers are reaped and
counted — because dispatch overhead is CPU work, and CPU time is
immune to scheduler noise on small machines. Runs are interleaved
across modes and reported as medians; a failing ``--check`` is
re-measured once and fails only if the rerun fails too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.common.io import atomic_write_json
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.config import FpgaConfig
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime import pool as pool_module
from repro.runtime.registry import REGISTRY

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_pool.json"

#: Allowed speedup regression vs. the committed baseline.
REGRESSION_FACTOR = 1.25

DATASET = "DG-MINI"
QUERY = "q1"
BACKEND = "fast-share"

#: Serve-style workload: a moderately partitioned device and enough
#: coalesced batches that the one-time CST build amortizes away.
SERVE_FPGA = FpgaConfig(bram_bytes=128 * 1024, batch_size=64, max_ports=16)
SERVE_BATCHES = 8

#: Tail workload: 4 KB BRAM and 4 ports shatter DG-MINI/q1 into ~1.3k
#: partitions — long enough a stream that per-task dispatch overhead
#: dominates (same device as ``bench_pipeline_overlap``).
TAIL_FPGA = FpgaConfig(bram_bytes=4 * 1024, batch_size=16, max_ports=4)

#: The operating points, in reporting order: (fpga, batches, derived
#: chunking on?).
MODES: dict[str, tuple[FpgaConfig, int, bool]] = {
    "serve_warm": (SERVE_FPGA, SERVE_BATCHES, True),
    "tail_unchunked": (TAIL_FPGA, 1, False),
    "tail_chunked": (TAIL_FPGA, 1, True),
}


def _cpu_seconds() -> float:
    """Cumulative user+system CPU of this process and reaped children."""
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_ru.ru_utime + self_ru.ru_stime
            + child_ru.ru_utime + child_ru.ru_stime)


def _measure_once(fpga: FpgaConfig, batches: int, chunked: bool) -> tuple:
    """Wall and CPU seconds of one full mode run, plus its last result.

    Builds a fresh context, runs ``batches`` consecutive batches, and
    closes the context *inside* the timed region: closing reaps the
    warm pool's workers, so ``RUSAGE_CHILDREN`` charges every mode for
    all the CPU its workers burned. The CST build cost inside the
    region is identical across modes and cancels in the ratios.
    ``chunked=False`` patches the pool's chunk rule to one task per
    dispatch.
    """
    config = HarnessConfig(fpga=fpga, workers=4)
    dataset = load_dataset(DATASET)
    query = get_query(QUERY)
    spec = REGISTRY.get(BACKEND)
    t0 = time.perf_counter()
    c0 = _cpu_seconds()
    ctx = make_context(config)
    with ExitStack() as stack:
        if not chunked:
            stack.enter_context(mock.patch.object(
                pool_module, "derive_chunk", lambda pending, w: 1
            ))
        try:
            for _batch in range(batches):
                out = spec.run(ctx, query.graph, dataset.graph)
        finally:
            ctx.close()
    return time.perf_counter() - t0, _cpu_seconds() - c0, out


def collect(repeats: int = 5) -> dict:
    """Measure every mode and derive the headline ratios.

    Runs are interleaved round by round (alternating the mode order)
    and each mode reports its median wall and CPU time.
    """
    samples: dict[str, list] = {name: [] for name in MODES}
    for round_ in range(repeats):
        order = list(MODES) if round_ % 2 == 0 else list(MODES)[::-1]
        for name in order:
            samples[name].append(_measure_once(*MODES[name]))
    modes = {}
    for name, (_fpga, batches, chunked) in MODES.items():
        walls, cpus, outs = zip(*samples[name])
        out = outs[-1]
        execute = out.metrics["stages"]["execute"]
        modes[name] = {
            "batches": batches,
            "derived_chunk": chunked,
            "wall_seconds": statistics.median(walls),
            "cpu_seconds": statistics.median(cpus),
            "modeled_seconds": out.seconds,
            "cst_plane": execute.get("cst_plane"),
            "fpga_partitions": execute.get("num_csts", 0),
            "pool_warm": bool(execute.get("pool_warm", False)),
            "pool_chunks": execute.get("pool_chunks"),
            "embeddings": out.embeddings,
        }
    pair = ("tail_unchunked", "tail_chunked")
    counts = {modes[name]["embeddings"] for name in pair}
    if len(counts) != 1:
        raise AssertionError(
            f"embedding counts diverged across {pair}: {counts}"
        )
    return {
        "dataset": DATASET,
        "query": QUERY,
        "backend": BACKEND,
        "cpus": os.cpu_count(),
        "modes": modes,
        # Dispatch amortization: same warm pool, same ~1.3k
        # partitions, one pipe round-trip per derived chunk instead
        # of one per partition.
        "chunk_speedup": (
            modes["tail_unchunked"]["cpu_seconds"]
            / modes["tail_chunked"]["cpu_seconds"]
        ),
    }


def check(payload: dict, baseline: dict) -> list[str]:
    """Gate failures of ``payload`` against the committed baseline."""
    failures: list[str] = []
    floor = baseline["chunk_speedup"] / REGRESSION_FACTOR
    if payload["chunk_speedup"] < floor:
        failures.append(
            f"chunk_speedup {payload['chunk_speedup']:.3f} fell below "
            f"{floor:.3f} (baseline {baseline['chunk_speedup']:.3f} / "
            f"{REGRESSION_FACTOR})"
        )
    for name, mode in payload["modes"].items():
        base_mode = baseline["modes"][name]
        if mode["embeddings"] != base_mode["embeddings"]:
            failures.append(
                f"{name} embedding count changed: "
                f"{mode['embeddings']} vs baseline "
                f"{base_mode['embeddings']}"
            )
        if mode["modeled_seconds"] != base_mode["modeled_seconds"]:
            failures.append(
                f"{name} modeled seconds changed: "
                f"{mode['modeled_seconds']} vs baseline "
                f"{base_mode['modeled_seconds']} (the pool is "
                f"wall-clock-only machinery)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if the chunk speedup regressed past "
                             f"{REGRESSION_FACTOR}x below the "
                             "committed baseline")
    parser.add_argument("--write", action="store_true",
                        help="refresh the committed baseline JSON")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    payload = collect(repeats=args.repeats)
    print(json.dumps(payload, indent=2))
    if args.write:
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
            f"OK: chunk speedup {payload['chunk_speedup']:.3f} "
            f"(baseline {baseline['chunk_speedup']:.3f})",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_pool_modes_agree_and_stay_wall_only(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, collect, 1)
    modes = payload["modes"]
    # Chunked/unchunked may only differ in wall-clock cost — never in
    # counts or the modeled world.
    a, b = modes["tail_unchunked"], modes["tail_chunked"]
    assert a["embeddings"] == b["embeddings"]
    assert a["modeled_seconds"] == b["modeled_seconds"]
    assert modes["serve_warm"]["pool_warm"]
    # The derived chunk really did collapse the dispatch count.
    unchunked = a["pool_chunks"]
    chunked = b["pool_chunks"]
    assert chunked and unchunked and chunked < unchunked
    print(
        f"\nchunk speedup: {payload['chunk_speedup']:.3f} "
        f"({payload['cpus']} cpus)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
