#!/usr/bin/env python3
"""Layer ledger: the repository's end-to-end benchmark.

Run from the repository root::

    python3 layerbench/run.py --workload dg01-cold --seed 7 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics. Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
are a human-readable table and a JSON line of raw diagnostics. The exit
code is 0 only if every op's embedding count matched the ``reference``
backend, every serve status was ``OK`` and every deterministic count
repeated exactly.

Every timing is in calibrated seconds (see ``calib.py``). A run makes
whole passes until ``--seconds`` of wall time have passed and, in an
untraced run, the ops leave :data:`~ledger.TAIL_SAMPLES` samples beyond
the 90th percentile; a traced run ends on a whole pair of passes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ledger import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run state kept in the checkout: oracle counts and determinism records.
STATE = ROOT / ".layerbench"
LEDGER = HERE / "ledger.json"

#: Set-up is repeated in fresh interpreters; setup_s is the median.
SETUP_PROBES = 3
IMPORT_PROBES = 3
GENERATE_REPEATS = 3

READY = "layerbench-ready"


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"layerbench: no program sources at {SRC}; run from the "
                 f"root of a repository checkout")
    sys.path.insert(0, str(SRC))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Probes in fresh interpreters


#: Calibration loops a probe child runs once its work is done. The
#: first loop of a fresh process runs up to 3x slow while numpy warms
#: up, so it is discarded, and the loops after the work are medianed.
PROBE_LOOPS = 3


def setup_probe(workload: str) -> float:
    """Process start -> ready to time the first op, in a fresh
    interpreter; returns calibrated seconds, rescaled by the child's
    loops before and after set-up."""
    from calib import calibrated

    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--setup-probe"],
        stdout=subprocess.PIPE, text=True, env=_child_env(),
    ) as child:
        line = child.stdout.readline().split()
        wall = time.perf_counter() - t0
        child.stdout.close()
        if child.wait() != 0 or not line or line[0] != READY:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    loops = [float(x) for x in line[1:]]
    return calibrated(wall - sum(loops), loops[1], median(loops[2:]))


def import_probe() -> float:
    """``import repro.cli`` in a fresh interpreter, timed inside it."""
    from calib import calibrated

    code = (
        "import time; t0 = time.perf_counter()\n"
        "import repro.cli\n"
        "seconds = time.perf_counter() - t0\n"
        f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
        "from calib import loop_seconds\n"
        f"print(seconds, *(loop_seconds() for _ in range({PROBE_LOOPS})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=_child_env())
    seconds, *loops = map(float, out.stdout.split())
    loop = median(loops)
    return calibrated(seconds, loop, loop)


# ----------------------------------------------------------------------
# Measurement


@dataclass
class Pass:
    """One round of a batch workload or one trace of serve-zipf."""

    traced: bool
    samples: list[Any] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)
    recorder: Any = None


def run_pass(session, cal, items, traced: bool, index: int) -> Pass:
    """Time each ``(dataset, query)`` op of one pass; a traced pass
    records spans under request ids ``"<pass>:<op>"``."""
    from spans import SpanRecorder

    if session.workload.kind == "serve" and index > 0:
        session.new_server()
    p = Pass(traced, recorder=SpanRecorder() if traced else None)
    with p.recorder.installed() if traced else nullcontext():
        for k, (dataset, query) in enumerate(items):
            op = session.op(dataset, query)
            if traced:
                op = _in_request(p.recorder, f"{index}:{k}", op)
            result, sample = cal.time(f"{dataset}/{query}", op)
            p.samples.append(sample)
            p.results.append(result)
    return p


def _in_request(recorder, tag: str, op):
    def traced_op():
        recorder.request = tag
        with recorder.span("request"):
            return op()

    return traced_op


#: Traced runs alternate untraced and traced passes in pairs, swapping
#: which goes first, so drift in host speed hits both alike.
TRACED_PLAN = (False, True, True, False)


def measure(session, cal, seed: int, seconds: float, trace: bool) -> list[Pass]:
    """Make whole passes until ``seconds`` have passed and the run has
    what its metrics need: the p90 tail untraced, whole pairs traced."""
    from ledger import has_tail
    from workloads import batch_rounds, serve_trace

    if session.workload.kind == "serve":
        inputs = itertools.repeat(serve_trace(seed, session.datasets))
    else:
        dataset = session.datasets[0]
        inputs = ([(dataset, q) for q in round_]
                  for round_ in batch_rounds(seed))
    plan = itertools.cycle(TRACED_PLAN if trace else (False,))
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    for k, traced in enumerate(plan):
        passes.append(run_pass(session, cal, next(inputs), traced, k))
        if trace:
            done = len(passes) % 2 == 0
        else:
            done = has_tail(sum(len(p.samples) for p in passes), 90)
        if done and time.perf_counter() >= deadline:
            return passes


# ----------------------------------------------------------------------
# Metrics


def pass_seconds(cal, passes: list[Pass], kind: str) -> float:
    """Calibrated time of one pass: for batch workloads the sum over
    queries of each query's median; for serve the median trace total."""
    if kind == "serve":
        return median(
            sum(cal.value(s) for s in p.samples) for p in passes
        )
    by_query: dict[str, list[float]] = {}
    for p in passes:
        for s in p.samples:
            by_query.setdefault(s.label, []).append(cal.value(s))
    return sum(median(v) for v in by_query.values())


def raw_pass_seconds(passes: list[Pass]) -> float:
    return median(sum(s.wall for s in p.samples) for p in passes)


def program_digest() -> str:
    """SHA-256 over the program's sources and the benchmark's own code:
    the tree whose runs must agree on the deterministic facts."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:32]


def check_determinism(workload: str, per_pass: list[dict],
                      digest: str) -> list[str]:
    """Deterministic facts must repeat across passes and across runs of
    one tree.

    Runs are recorded under the tree's ``digest``, so a change to the
    program may move the facts, but every run of it must agree. The
    datasets do not depend on the seed, so the runs must agree whatever
    their seed.
    """
    problems = []
    first: dict[str, Any] = {}
    for k, facts in enumerate(per_pass):
        for key, value in facts.items():
            if key not in first:
                first[key] = value
            elif first[key] != value:
                problems.append(f"pass {k}: {key}={value!r} but an earlier "
                                f"pass had {first[key]!r}")
    record = {k: repr(v) for k, v in first.items()}
    path = STATE / "determinism" / digest / f"{workload}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        for key, value in record.items():
            if key in stored and stored[key] != value:
                problems.append(f"{key}={value} but an earlier run "
                                f"had {stored[key]}")
        record = {**stored, **record}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    _require_program()
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        from calib import loop_seconds
        from workloads import Session

        loops = [loop_seconds(), loop_seconds()]
        session = Session(workload)
        loops += [loop_seconds() for _ in range(PROBE_LOOPS)]
        print(READY, *loops, flush=True)
        session.close()
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads(LEDGER.read_text())
    report = run(workload, args.seed, args.seconds, bool(args.trace))
    return emit(report, bench, ledger, bool(args.trace))


def run(workload, seed: int, seconds: float, trace: bool,
        datasets: tuple[str, ...] | None = None) -> dict[str, Any]:
    """Set up, measure and check one workload; returns every metric
    this mode produces plus the correctness verdict."""
    from calib import Calibrator
    from ledger import (
        DETERMINISTIC,
        cross_check,
        failed_ops,
        layer_totals,
        pass_counts,
        percentile,
    )
    from oracle import reference_counts
    from workloads import QUERIES, Session

    cal = Calibrator()
    cal.loop()
    metrics: dict[str, float] = {}
    if not trace:
        # Smoke runs on substitute datasets skip the set-up probes.
        metrics["setup_s"] = median(
            setup_probe(workload.name) for _ in range(SETUP_PROBES)
        ) if datasets is None else 0.0
    else:
        from repro.ldbc.datasets import load_dataset
        from workloads import DATASET_SEED

        metrics["cli.import_s"] = median(
            import_probe() for _ in range(IMPORT_PROBES))
        generate = 0.0
        for name in datasets or workload.datasets:
            times = []
            for _ in range(GENERATE_REPEATS):
                _, sample = cal.time("generate", lambda: load_dataset(
                    name, use_cache=False, seed=DATASET_SEED))
                times.append(sample)
            generate += median(cal.value(s) for s in times)
        metrics["ldbc.generate_s"] = generate

    session = Session(workload, datasets)
    try:
        passes = measure(session, cal, seed, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        graphs = session.graphs
        results = session.results
    finally:
        session.close()

    problems: list[str] = []
    oracle = reference_counts(graphs, list(QUERIES), STATE / "oracle")
    failed = failed_ops(results, oracle)
    for r in failed[:5]:
        problems.append(f"{r.dataset}/{r.query}: status {r.status}, "
                        f"{r.embeddings} embeddings, reference "
                        f"{oracle[(r.dataset, r.query)]}")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [pass_counts(p.results) for p in passes]
    kind = workload.kind
    raw = {
        "passes": len(passes),
        "ops": sum(len(p.samples) for p in passes),
        "cal_min_s": cal.cal_min,
        "calibration_loops": len(cal.loops),
        "raw_pass_s": raw_pass_seconds(untraced),
    }
    if trace:
        layers = []
        for p in traced:
            factors = {f"{passes.index(p)}:{k}": cal.factor(s)
                       for k, s in enumerate(p.samples)}
            layers.append(layer_totals(p.recorder, factors, kind == "serve"))
            problems.extend(cross_check(p.recorder)[:5])
            per_pass.append({
                key: layers[-1][key] for key in DETERMINISTIC
                if key in layers[-1]
            })
        for name, first in layers[0].items():
            values = sorted(layer[name] for layer in layers)
            # Counts stay whole numbers; times take the median.
            metrics[name] = (values[len(values) // 2]
                             if isinstance(first, int) else median(values))
        metrics["bench.trace_overhead"] = (
            pass_seconds(cal, traced, kind) / pass_seconds(cal, untraced, kind)
        )
    else:
        latencies = [cal.value(s) for p in passes for s in p.samples]
        metrics["pass_s"] = pass_seconds(cal, passes, kind)
        metrics["latency_p50_s"] = percentile(latencies, 50)
        metrics["latency_p90_s"] = percentile(latencies, 90)
        metrics["modeled_s"] = per_pass[0]["modeled_s"]
        metrics["peak_rss_mb"] = peak_rss_mb
        raw["raw_latency_p50_s"] = percentile(
            [s.wall for p in passes for s in p.samples], 50)
        raw["raw_latency_p90_s"] = percentile(
            [s.wall for p in passes for s in p.samples], 90)
        raw["latency_samples"] = len(latencies)
    metrics["bench.slow_share"] = raw["slow_share"] = cal.slow_share()
    if datasets is None:
        problems.extend(
            check_determinism(workload.name, per_pass, program_digest()))
    return {
        "workload": workload.name,
        "kind": workload.kind,
        "seed": seed,
        "metrics": metrics,
        "raw": raw,
        "attempted": len(results),
        "failed": len(failed),
        "problems": problems,
        "vertices": {n: g.num_vertices for n, g in graphs.items()},
        "edges": {n: g.num_edges for n, g in graphs.items()},
    }


def emit(report: dict[str, Any], bench: dict[str, Any],
         ledger: dict[str, Any], trace: bool) -> int:
    """Print the table, the diagnostics line and the result line."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    attempted, failed = report["attempted"], report["failed"]
    shape = ", ".join(
        f"{n} |V|={report['vertices'][n]} |E|={report['edges'][n]}"
        for n in report["vertices"])
    print(f"# {report['workload']} seed={report['seed']} "
          f"({'traced' if trace else 'untraced'}): {shape}")
    moves = ledger["per_layer"] if trace else {}
    for m in declared:
        row = f"{m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']:<10}"
        if m["name"] in moves:
            row += f" moves {moves[m['name']]['moves']} on {moves[m['name']]['on']}"
        print(row)
    # Reported, not bounded: failed_frac is 0 whenever the run is
    # correct, and modeled_s must read the same on every run.
    print(f"{'failed_frac':<32} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    if not trace:
        print(f"{'modeled_s':<32} {metrics['modeled_s']!r:>14} modeled_s "
              f"(cycle model, per pass)")
    if not trace and report["kind"] != "serve":
        print(f"{'throughput':<32} {9 / metrics['pass_s']:>14.6g} "
              f"queries/s (9 queries / pass_s)")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")
    print(json.dumps({"diagnostics": report["raw"]}))
    correct = failed == 0 and not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
