"""Self-tests of the layer-ledger benchmark.

Run from the repository root::

    python3 -m pytest layerbench -q
"""

from __future__ import annotations

import io
import itertools
import json
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

import run

run._require_program()

from calib import NOMINAL_S, Calibrator, Sample, calibrated  # noqa: E402
from ledger import (  # noqa: E402
    cross_check,
    failed_ops,
    percentile,
    require_tail,
)
from spans import Span, SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    QUERIES,
    TRACE_REQUESTS,
    WORKLOADS,
    OpResult,
    batch_rounds,
    serve_trace,
    zipf_counts,
)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LEDGER = json.loads(run.LEDGER.read_text())


def _rounds(seed, n):
    return list(itertools.islice(batch_rounds(seed), n))


def test_inputs_are_a_pure_function_of_the_seed():
    assert _rounds(7, 6) == _rounds(7, 6)
    assert _rounds(7, 6) != _rounds(8, 6)
    assert all(sorted(r) == sorted(QUERIES) for r in _rounds(3, 4))
    datasets = WORKLOADS["serve-zipf"].datasets
    assert serve_trace(7, datasets) == serve_trace(7, datasets)
    assert serve_trace(7, datasets) != serve_trace(8, datasets)
    # Only the arrival order depends on the seed, not the mix.
    assert sorted(serve_trace(7, datasets)) == sorted(serve_trace(8, datasets))


def test_zipf_apportionment():
    counts = zipf_counts(TRACE_REQUESTS, 27)
    assert sum(counts) == TRACE_REQUESTS
    assert counts == sorted(counts, reverse=True)
    assert min(counts) >= 1  # every pair is touched at least once
    assert counts[0] == round(TRACE_REQUESTS / sum(1 / r for r in range(1, 28)))


def test_calibration_arithmetic():
    # An op in a state twice as slow as the nominal loop counts half.
    assert calibrated(1.0, 2.0, 2.0, 1.0) == 0.5
    assert calibrated(0.3, 1.0, 3.0, 1.0) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        calibrated(1.0, 0.0, 0.0, 1.0)

    cal = Calibrator(loops=[0.004, 0.002, 0.003, 0.0025])
    sample = Sample("op", wall=0.5, cal_before=0.004, cal_after=0.003)
    assert cal.cal_min == 0.002
    assert cal.value(sample) == pytest.approx(0.5 * NOMINAL_S / 0.0035)
    assert cal.factor(sample) == pytest.approx(NOMINAL_S / 0.0035)
    # 0.004 and 0.003 are at least 1.3 x 0.002; 0.0025 is not.
    assert cal.slow_share() == 0.5


def test_calibrator_interleaves_loops_and_ops():
    cal = Calibrator()
    _, first = cal.time("a", lambda: None)
    _, second = cal.time("b", lambda: None)
    assert len(cal.loops) == 3
    assert first.cal_after == second.cal_before == cal.loops[1]


def test_tail_rule_is_enforced():
    require_tail(100, 90)
    require_tail(20, 50)
    with pytest.raises(ValueError):
        require_tail(99, 90)
    with pytest.raises(ValueError):
        require_tail(19, 50)
    values = [float(v) for v in range(100)]
    assert percentile(values, 50) == pytest.approx(49.5)
    with pytest.raises(ValueError):
        percentile(values[:99], 90)


def test_forced_count_mismatch_fails_the_run():
    oracle = {("DG-MICRO", "q0"): 2304, ("DG-MICRO", "q1"): 1238}
    ok = OpResult("DG-MICRO", "q0", "OK", 2304, 0.1)
    wrong = OpResult("DG-MICRO", "q1", "OK", 1237, 0.1)
    shed = OpResult("DG-MICRO", "q0", "SHED", None, 0.0)
    assert failed_ops([ok], oracle) == []
    assert failed_ops([ok, wrong, shed], oracle) == [wrong, shed]

    report = _report(attempted=3, failed=1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.emit(report, BENCH, LEDGER, trace=False)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 3)
    assert "failed_frac" in out.getvalue()


def test_determinism_check(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    same = [{"modeled_s": 0.25, "cst.partitions": 3}] * 2
    assert run.check_determinism("w", same, "tree-a") == []
    # A second run of the same tree agrees.
    assert run.check_determinism("w", same, "tree-a") == []
    moved = [{"modeled_s": 0.25, "cst.partitions": 4}]
    assert len(run.check_determinism("w", moved, "tree-a")) == 1
    drift = [{"modeled_s": 0.5}, {"modeled_s": 0.5000000000000001}]
    assert len(run.check_determinism("v", drift, "tree-a")) == 1


def test_determinism_is_per_tree(tmp_path, monkeypatch):
    # Two trees (say a parent and a change that cuts partitions) may
    # differ, and alternating their runs in one checkout still passes.
    monkeypatch.setattr(run, "STATE", tmp_path)
    parent = [{"modeled_s": 0.25, "cst.partitions": 851}]
    change = [{"modeled_s": 0.25, "cst.partitions": 400}]
    for _ in range(2):
        assert run.check_determinism("w", parent, "tree-a") == []
        assert run.check_determinism("w", change, "tree-b") == []
    assert run.program_digest() == run.program_digest()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_run_length_follows_seconds_and_tail(workload, monkeypatch):
    def fake_pass(session, cal, items, traced, index):
        time.sleep(0.002)
        return run.Pass(traced, samples=list(items))

    monkeypatch.setattr(run, "run_pass", fake_pass)
    session = SimpleNamespace(workload=WORKLOADS[workload],
                              datasets=WORKLOADS[workload].datasets)
    ops = TRACE_REQUESTS if workload == "serve-zipf" else len(QUERIES)
    # With no time to fill, the p90 tail alone decides the length ...
    passes = run.measure(session, None, 7, 0.0, trace=False)
    assert len(passes) == -(-100 // ops)
    require_tail(len(passes) * ops, 90)
    # ... and with time to fill, the clock does.
    start = time.perf_counter()
    assert len(run.measure(session, None, 7, 0.1, trace=False)) > len(passes)
    assert time.perf_counter() - start >= 0.1
    traced = run.measure(session, None, 7, 0.0, trace=True)
    assert [p.traced for p in traced] == [False, True]
    traced = run.measure(session, None, 7, 0.05, trace=True)
    assert len(traced) % 2 == 0 and len(traced) > 2
    assert sum(p.traced for p in traced) == len(traced) // 2


def test_cross_check_allows_only_collector_pauses():
    def recorder(shim_s, own_s, pauses=()):
        rec = SpanRecorder()
        stages = {"execute": SimpleNamespace(wall_seconds=own_s)}
        rec.spans = [
            Span("runner", 0.0, 1.0, None, "0:0",
                 {"metrics": SimpleNamespace(stages=stages)}),
            Span("execute", 0.1, 0.1 + shim_s, 0, "0:0"),
        ]
        rec.gc_pauses = list(pauses)
        return rec

    assert cross_check(recorder(0.0300, 0.0300)) == []
    assert len(cross_check(recorder(0.0300, 0.0010))) == 1
    # A 28 ms collection inside the shim explains the difference ...
    assert cross_check(recorder(0.0300, 0.0010, [(0.101, 0.129)])) == []
    # ... but not one outside it, nor a shim shorter than the stage.
    assert len(cross_check(recorder(0.0300, 0.0010, [(0.5, 0.528)]))) == 1
    assert len(cross_check(recorder(0.0100, 0.0400, [(0.101, 0.126)]))) == 1


def test_declarations_agree():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(LEDGER["per_layer"])
    assert set(LEDGER["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_dg_micro_smoke(workload, trace):
    report = run.run(WORKLOADS[workload], 7, seconds=0.0, trace=trace,
                     datasets=("DG-MICRO",))
    assert report["failed"] == 0
    assert report["problems"] == []
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.emit(report, BENCH, LEDGER, trace=trace) == 0
    metrics = json.loads(out.getvalue().splitlines()[-1])["metrics"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    if trace:
        assert metrics["cst.partitions"]["value"] > 0
        assert metrics["fpga.engine_calls"]["value"] > 0
        if workload == "mini-warm":
            assert metrics["cst.build_calls"]["value"] == 0
        if workload == "serve-zipf":
            assert metrics["serve.overhead_s"]["value"] > 0
    else:
        assert metrics["pass_s"]["value"] > 0
        assert report["metrics"]["modeled_s"] > 0


def _report(attempted: int, failed: int) -> dict:
    return {
        "workload": "dg01-cold", "kind": "cold", "seed": 7,
        "metrics": {**{m["name"]: 1.0 for m in BENCH["end_to_end"]},
                    "modeled_s": 0.5},
        "raw": {}, "attempted": attempted, "failed": failed,
        "problems": [], "vertices": {"DG01": 1}, "edges": {"DG01": 1},
    }
