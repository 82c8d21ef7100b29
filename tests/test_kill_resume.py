"""Subprocess kill/resume tests: SIGKILL mid-execute, then resume.

The acceptance property of the run journal (ISSUE 4): a run SIGKILLed
mid-execute and restarted with ``--resume`` produces bit-identical
embedding counts, modeled seconds, and health report to an
uninterrupted run — across FAST-SEP, the multi-FPGA runner, a faulted
seed, and any worker/buffer count. The kill is injected with the
``REPRO_JOURNAL_CRASH_AFTER`` hook, which SIGKILLs the child process
from inside the journal's append path after a seeded number of durable
records — the harshest possible interruption point.

These tests spawn real subprocesses (a SIGKILL cannot be simulated
in-process without taking pytest down with it); the in-process resume
semantics live in ``test_journal.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Canonical child run: executes one backend and prints a JSON line of
#: everything that must be bit-identical across kill/resume.
CHILD_SCRIPT = textwrap.dedent("""
    import json
    import sys

    from repro.common.errors import DeadlineExceededError
    from repro.experiments.harness import (
        HarnessConfig, make_context, tight_config,
    )
    from repro.ldbc.datasets import load_dataset
    from repro.ldbc.queries import get_query
    from repro.runtime.registry import REGISTRY

    (backend, dataset, query, journal, mode,
     fault_seed, workers, buffers, tight, deadline) = sys.argv[1:11]
    config = HarnessConfig(
        fault_seed=None if fault_seed == "-" else int(fault_seed),
        workers=int(workers),
        buffers=int(buffers),
        journal_path=journal if mode == "record" else None,
        resume_path=journal if mode == "resume" else None,
        deadline_s=None if deadline == "-" else float(deadline),
    )
    if tight == "1":
        config = tight_config(config)
    ctx = make_context(config)
    try:
        out = REGISTRY.get(backend).run(
            ctx, get_query(query).graph, load_dataset(dataset).graph
        )
    except DeadlineExceededError as exc:
        if ctx.journal is not None:
            ctx.journal.close()
        print(f"DEADLINE: {exc}")
        sys.exit(9)
    if ctx.journal is not None:
        ctx.journal.close()
    print(json.dumps({
        "embeddings": out.embeddings,
        "modeled_seconds": out.seconds,
        "health": out.health,
    }, sort_keys=True))
""")

#: Child exit code for a deadline-cancelled run (distinct from any
#: CLI code so a crash cannot be mistaken for a cancellation).
EXIT_CHILD_DEADLINE = 9


def run_child(backend, journal, mode, *, dataset="DG-MINI", query="q1",
              fault_seed=None, workers=1, buffers=1, tight=False,
              crash_after=None, deadline=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
    if crash_after is not None:
        env["REPRO_JOURNAL_CRASH_AFTER"] = str(crash_after)
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, backend, dataset, query,
         str(journal), mode,
         "-" if fault_seed is None else str(fault_seed),
         str(workers), str(buffers), "1" if tight else "0",
         "-" if deadline is None else repr(deadline)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=300,
    )


def assert_killed(proc):
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got rc={proc.returncode}: "
        f"{proc.stderr[-500:]}"
    )


def kill_resume_case(tmp_path, backend, *, crash_after, **kwargs):
    """Run baseline / killed / resumed; return the two payload lines."""
    journal = tmp_path / "run.jsonl"
    baseline = run_child(backend, journal, "none", **kwargs)
    assert baseline.returncode == 0, baseline.stderr[-800:]

    killed = run_child(backend, journal, "record",
                       crash_after=crash_after, **kwargs)
    assert_killed(killed)
    # The SIGKILL landed after ``crash_after`` durable appends: the
    # journal holds exactly header + crash_after complete records.
    lines = journal.read_text().splitlines()
    assert len(lines) == 1 + crash_after
    assert json.loads(lines[0])["type"] == "header"

    resumed = run_child(backend, journal, "resume", **kwargs)
    assert resumed.returncode == 0, resumed.stderr[-800:]
    return baseline.stdout.strip(), resumed.stdout.strip()


class TestKillResume:
    def test_fast_sep_bit_identical(self, tmp_path):
        base, res = kill_resume_case(
            tmp_path, "fast-sep", crash_after=7, tight=True,
        )
        assert res == base

    def test_concurrent_overlapped_bit_identical(self, tmp_path):
        # Modeled results may depend on buffers but never on workers;
        # both knobs must survive kill/resume unchanged.
        base, res = kill_resume_case(
            tmp_path, "fast-sep", crash_after=5, tight=True,
            workers=4, buffers=3,
        )
        assert res == base

    def test_faulted_seed_bit_identical(self, tmp_path):
        base, res = kill_resume_case(
            tmp_path, "fast-share", crash_after=6, tight=True,
            fault_seed=11,
        )
        assert res == base
        # The fault schedule actually fired, so the health report the
        # resumed run replayed from the journal is non-trivial.
        assert json.loads(base)["health"]["fault_events"]

    def test_multi_fpga_bit_identical(self, tmp_path):
        base, res = kill_resume_case(
            tmp_path, "multi-fpga", crash_after=1, tight=True,
        )
        assert res == base

    def test_multi_fpga_faulted_seed_bit_identical(self, tmp_path):
        base, res = kill_resume_case(
            tmp_path, "multi-fpga", crash_after=9, tight=True,
            fault_seed=11,
        )
        assert res == base
        # The pool ran the retry ladder, and the resumed run replayed
        # its events from per-partition records.
        assert json.loads(base)["health"]["retries"] > 0


class TestCliResume:
    """End-to-end ``match --journal`` / ``--resume`` through the CLI."""

    def cli(self, args, crash_after=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        if crash_after is not None:
            env["REPRO_JOURNAL_CRASH_AFTER"] = str(crash_after)
        return subprocess.run(
            [sys.executable, "-m", "repro", "match", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )

    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        journal = tmp_path / "cli.jsonl"
        base_args = ["--dataset", "DG-MINI", "--query", "q1"]
        baseline = self.cli(base_args)
        assert baseline.returncode == 0

        killed = self.cli([*base_args, "--journal", str(journal)],
                          crash_after=10)
        assert_killed(killed)

        resumed = self.cli([*base_args, "--resume", str(journal)])
        assert resumed.returncode == 0, resumed.stderr[-800:]
        strip = [
            line for line in resumed.stdout.splitlines()
            if "resumed_partitions" not in line
        ]
        assert "\n".join(strip) == baseline.stdout.rstrip("\n")
        assert "resumed_partitions: 10" in resumed.stdout

    def test_fingerprint_mismatch_exits_7(self, tmp_path):
        journal = tmp_path / "cli.jsonl"
        recorded = self.cli(["--dataset", "DG-MINI", "--query", "q1",
                             "--journal", str(journal)])
        assert recorded.returncode == 0
        mismatched = self.cli(["--dataset", "DG-MINI", "--query", "q2",
                               "--resume", str(journal)])
        assert mismatched.returncode == 7
        assert "RESUME-MISMATCH" in mismatched.stderr
        assert len(mismatched.stderr.splitlines()) == 1  # one-line verdict

    def test_resume_missing_journal_is_fatal_not_traceback(self, tmp_path):
        proc = self.cli(["--dataset", "DG-MINI", "--query", "q1",
                         "--resume", str(tmp_path / "absent.jsonl")])
        assert proc.returncode == 6
        assert "Traceback" not in proc.stderr


class TestDeadlineCancelResume:
    """Deadline cancellation is an orderly crash: the journal left
    behind resumes to a bit-identical completed run (ISSUE 7)."""

    def test_deadline_journal_resumes_bit_identically(self, tmp_path):
        journal = tmp_path / "deadline.jsonl"
        baseline = run_child("fast-sep", journal, "none", tight=True)
        assert baseline.returncode == 0, baseline.stderr[-800:]
        total = json.loads(baseline.stdout)["modeled_seconds"]

        # A budget at ~70% of the run's modeled time cancels
        # mid-execute, after some partitions are already journaled.
        cancelled = run_child("fast-sep", journal, "record",
                              tight=True, deadline=total * 0.7)
        assert cancelled.returncode == EXIT_CHILD_DEADLINE, (
            cancelled.stderr[-800:]
        )
        assert "deadline exceeded" in cancelled.stdout
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert len(records) > 1  # partial work really was journaled

        resumed = run_child("fast-sep", journal, "resume", tight=True)
        assert resumed.returncode == 0, resumed.stderr[-800:]
        assert resumed.stdout == baseline.stdout

    def test_cancellation_point_is_deterministic(self, tmp_path):
        # The modeled-time-domain deadline must fire at the same
        # partition prefix regardless of worker count.
        messages = []
        for workers in (1, 4):
            journal = tmp_path / f"w{workers}.jsonl"
            proc = run_child("fast-sep", journal, "record", tight=True,
                             workers=workers, deadline=0.0005)
            assert proc.returncode == EXIT_CHILD_DEADLINE
            messages.append(proc.stdout.strip())
        assert messages[0] == messages[1]

    def test_multi_fpga_mid_execute_deadline(self, tmp_path):
        # The pool checks the same partition-prefix deadline as a single
        # device: mid-execute, at the same prefix for any worker count,
        # and the journal left behind resumes bit-identically.
        journal = tmp_path / "baseline.jsonl"
        baseline = run_child("multi-fpga", journal, "none", tight=True)
        assert baseline.returncode == 0, baseline.stderr[-800:]
        budget = json.loads(baseline.stdout)["modeled_seconds"] * 0.85
        messages = []
        for workers in (1, 4):
            journal = tmp_path / f"w{workers}.jsonl"
            proc = run_child("multi-fpga", journal, "record", tight=True,
                             workers=workers, deadline=budget)
            assert proc.returncode == EXIT_CHILD_DEADLINE, (
                proc.stderr[-800:]
            )
            assert "execute partition prefix" in proc.stdout
            messages.append(proc.stdout.strip())
            resumed = run_child("multi-fpga", journal, "resume",
                                tight=True, workers=workers)
            assert resumed.returncode == 0, resumed.stderr[-800:]
            assert resumed.stdout == baseline.stdout
        assert messages[0] == messages[1]


    def test_multi_fpga_deadline_charges_the_makespan(self, tmp_path):
        # The pool's deadline checks charge the busiest device, as the
        # execute stage charges the makespan: a budget the run meets
        # must not cancel it, however far the serial sum of all its
        # partitions' costs would overshoot the budget.
        from repro.experiments.harness import (
            HarnessConfig, make_context, tight_config,
        )
        from repro.ldbc.datasets import load_dataset
        from repro.ldbc.queries import get_query
        from repro.runtime.registry import REGISTRY

        out = REGISTRY.get("multi-fpga").run(
            make_context(tight_config(HarnessConfig())),
            get_query("q1").graph, load_dataset("DG-MINI").graph,
        )
        runs = out.raw.devices
        serial = (out.seconds - out.raw.makespan_seconds
                  + sum(r.seconds - r.fetch_seconds for r in runs))
        assert serial > out.seconds
        budget = (out.seconds + serial) / 2
        journal = tmp_path / "baseline.jsonl"
        baseline = run_child("multi-fpga", journal, "none", tight=True)
        assert baseline.returncode == 0, baseline.stderr[-800:]
        for workers in (1, 4):
            proc = run_child("multi-fpga", journal, "none", tight=True,
                             workers=workers, deadline=budget)
            assert proc.returncode == 0, proc.stdout + proc.stderr[-800:]
            assert proc.stdout == baseline.stdout


@pytest.mark.slow
class TestKillResumeSweep:
    """Crash at every journal index of a small run (exhaustive)."""

    def test_every_crash_point_resumes_identically(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        baseline = run_child("fast-sep", journal, "none", tight=True)
        assert baseline.returncode == 0
        full = run_child("fast-sep", journal, "record", tight=True)
        assert full.returncode == 0
        total = len(journal.read_text().splitlines()) - 1  # minus header
        for crash_after in range(1, total, max(1, total // 6)):
            journal.unlink()
            killed = run_child("fast-sep", journal, "record",
                               crash_after=crash_after, tight=True)
            assert_killed(killed)
            resumed = run_child("fast-sep", journal, "resume",
                                tight=True)
            assert resumed.returncode == 0, resumed.stderr[-800:]
            assert resumed.stdout == baseline.stdout
