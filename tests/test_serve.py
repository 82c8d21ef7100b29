"""Serving-layer tests: protocol, admission, breaker, and the server.

The acceptance properties of ISSUE 7:

* every request — malformed, shed, cancelled, or completed — gets
  exactly one response with one of the five terminal statuses;
* OK/DEGRADED counts are bit-identical to standalone runs of the same
  (backend, dataset, query) through the registry;
* overload sheds instead of crashing, and the whole status sequence is
  deterministic across reruns and worker counts;
* a server SIGKILLed mid-batch and restarted on the same state
  directory completes the in-flight jobs bit-identically without
  duplicating journal entries.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ProtocolError, ServeError
from repro.experiments.harness import tight_config
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.runtime.registry import REGISTRY
from repro.runtime.tracing import validate_prometheus_text
from repro.serve import (
    TERMINAL_STATUSES,
    AdmissionController,
    CircuitBreaker,
    CostEstimator,
    JobRequest,
    JobResponse,
    MatchServer,
    ServeConfig,
    parse_request,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def request_line(job_id, dataset="DG-MICRO", query="q0", **fields):
    return json.dumps(
        {"id": job_id, "dataset": dataset, "query": query, **fields}
    )


def serve(config, lines):
    """Run one request trace through a fresh server; return
    (report, ordered response payloads)."""
    server = MatchServer(config)
    sink = io.StringIO()
    report = server.run(lines, sink)
    server.close()
    responses = [json.loads(line)
                 for line in sink.getvalue().splitlines()]
    return report, responses


def micro_config(**overrides):
    defaults = dict(capacity_s=1.0, harness=tight_config())
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestProtocol:
    def test_parse_round_trip(self):
        job = parse_request(request_line(
            "r1", deadline_s=0.5, priority=2, backend="fast-share",
        ), seq=3)
        assert job == JobRequest(
            id="r1", dataset="DG-MICRO", query="q0",
            backend="fast-share", deadline_s=0.5, priority=2, seq=3,
        )
        assert JobRequest.from_dict(job.to_dict()) == job

    def test_backend_alias_canonicalized(self):
        job = parse_request(request_line("r1", backend="FAST"))
        assert job.backend == "fast-share"

    def test_default_backend_applied(self):
        job = parse_request(request_line("r1"),
                            default_backend="cfl")
        assert job.backend == "cfl"

    @pytest.mark.parametrize("line", [
        "not json",
        '["a", "list"]',
        '{"dataset": "DG-MICRO", "query": "q0"}',      # no id
        '{"id": "", "dataset": "DG-MICRO", "query": "q0"}',
        request_line("r", dataset="NOPE"),
        request_line("r", query="q99"),
        request_line("r", backend="nope"),
        request_line("r", deadline_s=-1),
        request_line("r", deadline_s=True),
        request_line("r", priority=1.5),
        request_line("r", surprise=1),
    ])
    def test_malformed_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_rejection_carries_parsed_id(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(request_line("r7", dataset="NOPE"))
        assert err.value.request_id == "r7"

    def test_response_requires_terminal_status(self):
        with pytest.raises(ValueError):
            JobResponse(id="r", status="RUNNING")

    def test_response_json_is_stable(self):
        a = JobResponse(id="r", status="OK", embeddings=3)
        b = JobResponse(id="r", status="OK", embeddings=3)
        assert a.to_json_line() == b.to_json_line()


class TestAdmission:
    def job(self, job_id="j", backend="fast-share"):
        return JobRequest(id=job_id, dataset="DG-MICRO", query="q0",
                          backend=backend)

    def test_admit_queue_shed_ladder(self):
        ctl = AdmissionController(
            capacity_s=0.002, queue_factor=1.0,
            estimator=CostEstimator(default_cost_s=0.001),
        )
        decisions = [ctl.decide(self.job(f"j{i}"))[0] for i in range(6)]
        # 2 admits fill capacity, 2 queue fill the headroom, rest shed.
        assert decisions == [
            "admit", "admit", "queue", "queue", "shed", "shed",
        ]
        assert ctl.decisions == {"admit": 2, "queue": 2, "shed": 2}

    def test_release_refills_the_bucket(self):
        ctl = AdmissionController(
            capacity_s=0.001, queue_factor=0.0,
            estimator=CostEstimator(default_cost_s=0.001),
        )
        decision, estimate = ctl.decide(self.job())
        assert decision == "admit"
        assert ctl.decide(self.job("j2"))[0] == "shed"
        ctl.release(estimate)
        assert ctl.decide(self.job("j3"))[0] == "admit"

    def test_release_never_goes_negative(self):
        ctl = AdmissionController()
        ctl.release(1.0)
        assert ctl.backlog_s == 0.0

    def test_observed_cost_replaces_default(self):
        estimator = CostEstimator(default_cost_s=0.001)
        ctl = AdmissionController(capacity_s=0.01, estimator=estimator)
        estimator.observe(self.job(), 0.5)
        assert ctl.decide(self.job())[0] == "shed"
        # A different backend still uses the default.
        assert ctl.decide(self.job("j2", backend="cfl"))[0] == "admit"

    def test_health_penalty_scales_capacity_down(self):
        class FlakyLedger:
            def penalty(self, index):
                return 3.0  # uniform: effective capacity /= 4

        ctl = AdmissionController(
            capacity_s=0.004, queue_factor=0.0,
            estimator=CostEstimator(default_cost_s=0.001),
            ledger=FlakyLedger(), num_devices=2,
        )
        assert ctl.effective_capacity_s() == pytest.approx(0.001)
        assert ctl.decide(self.job())[0] == "admit"
        assert ctl.decide(self.job("j2"))[0] == "shed"


class TestBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(0)
        assert breaker.open_devices(2) == set()
        breaker.record_failure(0)
        assert breaker.open_devices(2) == {0}
        assert not breaker.all_open(2)
        assert breaker.device(0).opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0)
        breaker.record_success(0)
        breaker.record_failure(0)
        assert breaker.open_devices(1) == set()

    def test_cooldown_half_opens_then_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_jobs=2)
        breaker.record_failure(0)
        assert breaker.open_devices(1) == {0}
        breaker.job_tick()
        assert breaker.open_devices(1) == {0}
        breaker.job_tick()
        # HALF_OPEN: not excluded — the next job is the probe.
        assert breaker.open_devices(1) == set()
        assert breaker.device(0).probes == 1
        breaker.record_success(0)
        assert breaker.device(0).state == "closed"
        assert breaker.device(0).closed == 1

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_jobs=2)
        breaker.record_failure(0)
        breaker.job_tick()
        breaker.job_tick()
        breaker.record_failure(0)  # probe fails
        assert breaker.device(0).state == "open"
        assert breaker.device(0).opened == 2
        breaker.job_tick()
        assert breaker.open_devices(1) == {0}  # cooldown restarted

    def test_all_open_requires_every_device(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(0)
        assert not breaker.all_open(2)
        breaker.record_failure(1)
        assert breaker.all_open(2)


class TestMatchServer:
    def test_every_request_gets_one_terminal_response(self):
        lines = [
            request_line("ok1"),
            request_line("dead", deadline_s=1e-7),
            "garbage",
            request_line("bad", dataset="NOPE"),
            request_line("ok2", backend="cfl"),
        ]
        report, responses = serve(micro_config(), lines)
        assert len(responses) == len(lines)
        assert report.total == len(lines)
        for response in responses:
            assert response["status"] in TERMINAL_STATUSES
        by_id = {r["id"]: r["status"] for r in responses}
        assert by_id["ok1"] == "OK"
        assert by_id["dead"] == "DEADLINE"
        assert by_id["bad"] == "FATAL"
        assert by_id[None] == "FATAL"

    def test_counts_bit_identical_to_standalone_match(self):
        from repro.experiments.harness import make_context

        report, responses = serve(micro_config(), [
            request_line("a"),
            request_line("b", query="q1", dataset="DG-MINI"),
            request_line("c", backend="cfl"),
        ])
        expectations = {
            "a": ("fast-share", "DG-MICRO", "q0"),
            "b": ("fast-share", "DG-MINI", "q1"),
            "c": ("cfl", "DG-MICRO", "q0"),
        }
        for response in responses:
            assert response["status"] == "OK"
            backend, dataset, query = expectations[response["id"]]
            out = REGISTRY.get(backend).run(
                make_context(tight_config()),
                get_query(query).graph,
                load_dataset(dataset).graph,
            )
            assert response["embeddings"] == out.embeddings
            assert response["modeled_seconds"] == out.seconds

    def test_batch_coalescing_hits_the_cst_cache(self):
        server = MatchServer(micro_config())
        sink = io.StringIO()
        server.run([request_line(f"r{i}") for i in range(4)], sink)
        stats = server.cache.stats()["cst"]
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_priority_orders_within_the_queue(self):
        report, responses = serve(micro_config(), [
            request_line("low", priority=0, query="q0"),
            request_line("high", priority=5, query="q1"),
            request_line("mid", priority=3, query="q2"),
        ])
        assert [r["id"] for r in responses] == ["high", "mid", "low"]

    def test_overload_sheds_instead_of_crashing(self):
        # ~5x capacity: the bucket fits 2 admits + 2 queued of the
        # 0.001s default estimate; the remaining 16 must shed cleanly.
        config = micro_config(capacity_s=0.002, queue_factor=1.0)
        lines = [request_line(f"r{i}") for i in range(20)]
        report, responses = serve(config, lines)
        assert report.total == 20
        assert report.statuses["SHED"] == 16
        assert report.statuses["OK"] == 4
        shed = [r for r in responses if r["status"] == "SHED"]
        assert all(r["admission"] == "shed" for r in shed)

    def test_status_sequence_deterministic_across_workers(self):
        lines = [
            request_line(f"r{i}", deadline_s=None if i % 3 else 0.0005)
            for i in range(9)
        ]
        sequences = []
        for workers in (1, 4):
            from dataclasses import replace

            config = micro_config(
                capacity_s=0.004,
                harness=replace(tight_config(), workers=workers),
            )
            _, responses = serve(config, list(lines))
            sequences.append(
                [(r["id"], r["status"], r.get("embeddings"))
                 for r in responses]
            )
        assert sequences[0] == sequences[1]

    def test_degraded_when_devices_die(self):
        from dataclasses import replace

        from repro.experiments.harness import make_context

        # Every device dead: the multi-FPGA run fails over, dies, and
        # the server reroutes to the exact-CPU fallback — counts exact.
        config = micro_config(
            harness=replace(
                tight_config(),
                fault_seed=3,
                fault_rates=(("device_dead", 1.0),),
            ),
        )
        _, responses = serve(config, [
            request_line("m1", backend="multi-fpga"),
        ])
        (response,) = responses
        assert response["status"] == "DEGRADED"
        assert response["backend"] == "cfl"
        assert response["degraded_reason"] == "fatal_device_fallback"
        baseline = REGISTRY.get("cfl").run(
            make_context(tight_config()),
            get_query("q0").graph, load_dataset("DG-MICRO").graph,
        )
        assert response["embeddings"] == baseline.embeddings

    def test_dead_single_device_falls_back_to_cpu(self):
        from dataclasses import replace

        from repro.experiments.harness import make_context

        # A single device is the fleet of one: device 0 dead leaves no
        # survivor, and the job reroutes to the exact-CPU fallback.
        config = micro_config(
            harness=replace(
                tight_config(),
                fault_seed=3,
                fault_rates=(("device_dead", 1.0),),
            ),
        )
        _, responses = serve(config, [request_line("s1")])
        (response,) = responses
        assert response["status"] == "DEGRADED"
        assert response["backend"] == "cfl"
        assert response["degraded_reason"] == "fatal_device_fallback"
        baseline = REGISTRY.get("cfl").run(
            make_context(tight_config()),
            get_query("q0").graph, load_dataset("DG-MICRO").graph,
        )
        assert response["embeddings"] == baseline.embeddings

    @pytest.mark.parametrize("fleet", [None, "u200,u280x2"])
    def test_multi_fpga_pool_size_matches_backend(self, fleet):
        from dataclasses import replace

        # Admission, breakers and the backend read the device count
        # from one source: the harness fleet, else the shared default.
        server = MatchServer(micro_config(
            harness=replace(tight_config(), fleet=fleet),
        ))
        seen = []
        feed = server._feed_breaker

        def spy(metrics):
            seen.append(metrics["health"]["device_status"])
            feed(metrics)

        server._feed_breaker = spy
        server.run([request_line("m1", backend="multi-fpga")],
                   io.StringIO())
        server.close()
        (status,) = seen
        assert sorted(int(k) for k in status) == list(
            range(server._pool_size())
        )
        assert server.admission.num_devices == server._pool_size()

    def test_breaker_opens_then_reroutes_following_jobs(self):
        from dataclasses import replace

        config = micro_config(
            breaker_threshold=1, breaker_cooldown=50,
            harness=replace(
                tight_config(),
                fault_seed=3,
                fault_rates=(("device_dead", 1.0),),
            ),
        )
        server = MatchServer(config)
        sink = io.StringIO()
        report = server.run(
            [request_line(f"m{i}", backend="multi-fpga")
             for i in range(4)],
            sink,
        )
        responses = [json.loads(line)
                     for line in sink.getvalue().splitlines()]
        assert all(r["status"] == "DEGRADED" for r in responses)
        # The first job's pool-wide failure trips every breaker;
        # later jobs never touch the dead pool.
        assert responses[0]["degraded_reason"] == "fatal_device_fallback"
        assert all(r["degraded_reason"] == "breaker_reroute"
                   for r in responses[1:])
        assert report.breaker["0"]["state"] == "open"

    def test_metrics_exposition_is_valid(self):
        server = MatchServer(micro_config())
        sink = io.StringIO()
        server.run([request_line("r1"), "junk"], sink)
        text = server.metrics_text()
        validate_prometheus_text(text)
        assert 'fast_serve_jobs_total{status="OK"} 1' in text
        assert 'fast_serve_jobs_total{status="FATAL"} 1' in text

    def test_bad_fallback_backend_rejected_at_startup(self):
        with pytest.raises(ServeError):
            MatchServer(ServeConfig(fallback_backend="fast-share"))


class TestServeRecovery:
    def args(self, state_dir, requests, extra=()):
        return [sys.executable, "-m", "repro", "serve",
                "--capacity", "1.0",
                "--state-dir", str(state_dir),
                "--requests", str(requests), *extra]

    def spawn(self, state_dir, requests, crash_after=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        if crash_after is not None:
            env["REPRO_JOURNAL_CRASH_AFTER"] = str(crash_after)
        return subprocess.run(
            self.args(state_dir, requests), capture_output=True,
            text=True, env=env, cwd=REPO_ROOT, timeout=300,
        )

    def test_sigkill_mid_batch_restart_completes_bit_identically(
        self, tmp_path
    ):
        requests = tmp_path / "trace.jsonl"
        requests.write_text("\n".join([
            request_line("k1", dataset="DG-MINI", query="q1"),
            request_line("k2", dataset="DG-MINI", query="q1"),
        ]) + "\n")

        baseline = self.spawn(tmp_path / "clean", requests)
        assert baseline.returncode == 0, baseline.stderr[-800:]
        expected = {
            json.loads(line)["id"]: json.loads(line)
            for line in baseline.stdout.splitlines()
        }

        state = tmp_path / "crashed"
        killed = self.spawn(state, requests, crash_after=8)
        assert killed.returncode == -signal.SIGKILL

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        resumed = self.spawn(state, empty)
        assert resumed.returncode == 0, resumed.stderr[-800:]
        recovered = {
            json.loads(line)["id"]: json.loads(line)
            for line in resumed.stdout.splitlines()
        }
        done_before = {
            json.loads(line)["id"]
            for line in killed.stdout.splitlines()
        }
        # Every request completed exactly once across both lifetimes,
        # and recovered jobs match the uninterrupted run bit-for-bit.
        assert done_before | set(recovered) == {"k1", "k2"}
        assert not (done_before & set(recovered))
        for job_id, response in recovered.items():
            assert response["embeddings"] == \
                expected[job_id]["embeddings"]
            assert response["modeled_seconds"] == \
                expected[job_id]["modeled_seconds"]
            assert response["status"] == expected[job_id]["status"]

        # The manifest holds exactly one done record per job.
        manifest = [
            json.loads(line)
            for line in (state / "manifest.jsonl").read_text()
            .splitlines()
        ]
        done = [r["id"] for r in manifest if r["type"] == "done"]
        assert sorted(done) == ["k1", "k2"]

        # Per-job journals hold no duplicated partition records.
        for journal in state.glob("job-*.jsonl"):
            records = [json.loads(line)
                       for line in journal.read_text().splitlines()]
            partitions = [r["index"] for r in records
                          if r.get("type") == "partition"]
            assert len(partitions) == len(set(partitions))

    def test_restart_on_clean_state_recovers_nothing(self, tmp_path):
        requests = tmp_path / "trace.jsonl"
        requests.write_text(request_line("c1") + "\n")
        state = tmp_path / "state"
        first = self.spawn(state, requests)
        assert first.returncode == 0, first.stderr[-800:]
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        second = self.spawn(state, empty)
        assert second.returncode == 0
        assert second.stdout.strip() == ""
        assert "recovered=0" in second.stderr


class TestServeCli:
    def test_corrupt_manifest_exits_8(self, tmp_path, capsys):
        from repro.cli import main

        state = tmp_path / "state"
        state.mkdir()
        (state / "manifest.jsonl").write_text('{"type": "nope"}\n')
        requests = tmp_path / "r.jsonl"
        requests.write_text("")
        rc = main(["serve", "--state-dir", str(state),
                   "--requests", str(requests)])
        assert rc == 8
        err = capsys.readouterr().err
        assert "SERVE-FAILED" in err

    def test_unknown_backend_exits_8(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "r.jsonl"
        requests.write_text("")
        rc = main(["serve", "--backend", "nope",
                   "--requests", str(requests)])
        assert rc == 8

    def test_missing_requests_file_is_usage_error(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--requests", "/nonexistent/r.jsonl"])
        assert rc == 2

    def test_requests_file_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "r.jsonl"
        requests.write_text(request_line("f1") + "\n")
        metrics = tmp_path / "metrics.txt"
        rc = main(["serve", "--capacity", "1.0",
                   "--requests", str(requests),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        captured = capsys.readouterr()
        (response,) = [json.loads(line)
                       for line in captured.out.splitlines()]
        assert response["status"] == "OK"
        validate_prometheus_text(metrics.read_text())
        assert "served 1 requests" in captured.err
