"""Unit tests for the supervised warm worker pool.

Everything here is in-process: the pool's own supervision (respawn,
re-dispatch, hedge, quarantine, shm fallback, ttl recycle, chunking,
CST transport) recovers
from real worker SIGKILLs without taking pytest down. Whole-pipeline
chaos runs live in ``test_pool_chaos.py``; the orphan-tether tests
spawn subprocesses because parent death cannot be simulated in-process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import DeviceError, WorkerCrashError
from repro.cst.builder import build_cst
from repro.cst.partition import PartitionLimits, partition_to_list
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from repro.query.ordering import path_based_order
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.runtime.executor import run_tasks
from repro.runtime.faults import (
    HOST_FAULT_KINDS,
    HostFaultPlan,
)
from repro.runtime.pool import PoolConfig, WorkerPool, derive_chunk

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- module-level task functions (pickled by reference into workers) --

def double(x):
    return 2 * x


def pid_tag(x):
    return (x, os.getpid())


def slow_echo(x):
    time.sleep(0.05)
    return x


def boom(x):
    raise ValueError(f"boom {x}")


def kill_if_worker(x, main_pid):
    if os.getpid() != main_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 3


def kill_if_worker_and_odd(x, main_pid):
    if os.getpid() != main_pid and x % 2 == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 3


def missing_segment(x):
    raise FileNotFoundError(f"/dev/shm/psm_gone_{x}")


def cst_digest(cst):
    """A value that depends on every array of ``cst`` (or of each CST
    in a tuple), plus whether the task saw shared-memory views."""
    if isinstance(cst, tuple):
        return tuple(cst_digest(c) for c in cst)
    return (
        tuple(int(c.sum()) for c in cst.candidates),
        tuple(
            (edge, int(adj.indptr.sum()), int(adj.targets.sum()))
            for edge, adj in sorted(cst.adjacency.items())
        ),
        cst.size_bytes(),
    )


def cst_task(tag, cst):
    return (tag, cst_digest(cst))


@pytest.fixture(scope="module")
def partitions():
    """A real partition stream of DG-MICRO/q0 (shared parent arrays)."""
    data = load_dataset("DG-MICRO").graph
    cst = build_cst(get_query("q1").graph, data)
    order = path_based_order(cst.tree, data)
    parts, _stats = partition_to_list(
        cst, order, PartitionLimits(max_bytes=2048, max_degree=8)
    )
    assert len(parts) >= 6
    return parts


def cst_tasks(parts):
    """One single-CST task per partition plus one tuple-of-CSTs task
    (a multi-FPGA device queue)."""
    return [
        *[(cst_task, (i, p)) for i, p in enumerate(parts)],
        (cst_task, ("queue", tuple(parts[:3]))),
    ]


def make_pool(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat_s", 0.05)
    return WorkerPool(PoolConfig(**kwargs))


class TestPoolConfig:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"ttl": -1},
        {"workers": -1},
        {"watchdog_s": -1.0},
        {"max_crashes": 0},
        {"heartbeat_s": 0.0},
    ])
    def test_invalid_values_raise_typed(self, kwargs):
        with pytest.raises(DeviceError):
            PoolConfig(**kwargs)

    def test_errors_are_typed_and_transient(self):
        assert WorkerCrashError("x").transient


class TestWorkerPoolBasics:
    def test_results_in_task_order_with_on_result(self):
        pool = make_pool()
        try:
            seen = []
            results = pool.run(
                [(double, (i,)) for i in range(7)],
                on_result=lambda i, v: seen.append((i, v)),
            )
            assert results == [2 * i for i in range(7)]
            assert sorted(seen) == [(i, 2 * i) for i in range(7)]
        finally:
            pool.close()

    def test_empty_run_is_a_noop(self):
        pool = make_pool()
        try:
            assert pool.run([]) == []
            assert pool.stats.spawned == 0  # lazily forked
        finally:
            pool.close()

    def test_tasks_really_run_in_workers(self):
        pool = make_pool()
        try:
            results = pool.run([(pid_tag, (i,)) for i in range(4)])
            pids = {pid for _i, pid in results}
            assert os.getpid() not in pids
        finally:
            pool.close()

    def test_chunking_matches_unchunked_results(self, monkeypatch):
        tasks = [(double, (i,)) for i in range(13)]
        plain = make_pool()
        chunked = make_pool()
        try:
            monkeypatch.setattr(pool_mod, "derive_chunk", lambda p, w: 1)
            unchunked_results = plain.run(tasks)
            monkeypatch.setattr(pool_mod, "derive_chunk", lambda p, w: 5)
            assert chunked.run(tasks) == unchunked_results
            # 13 tasks at chunk=5 dispatch as ceil(13/5)=3 chunks.
            assert chunked.stats.chunks == 3
            assert plain.stats.chunks == 13
        finally:
            plain.close()
            chunked.close()

    @pytest.mark.parametrize("pending", [1, "workers", 1304])
    def test_derived_chunk_covers_every_task_once(self, pending):
        workers = 2
        pending = workers if pending == "workers" else pending
        size = derive_chunk(pending, workers)
        assert size == -(-pending // (8 * workers))
        pool = make_pool(workers=workers)
        try:
            seen = []
            results = pool.run(
                [(double, (i,)) for i in range(pending)],
                on_result=lambda i, v: seen.append(i),
            )
            assert results == [2 * i for i in range(pending)]
            assert sorted(seen) == list(range(pending))  # once each
            assert pool.stats.chunks == -(-pending // size)
            assert pool.stats.chunks <= 8 * workers
        finally:
            pool.close()

    def test_warm_reuse_across_runs(self):
        pool = make_pool(workers=2)
        try:
            first = pool.run([(pid_tag, (i,)) for i in range(4)])
            second = pool.run([(pid_tag, (i,)) for i in range(4)])
            assert pool.stats.spawned == 2  # forked once, reused
            assert {p for _, p in first} == {p for _, p in second}
        finally:
            pool.close()

    def test_ttl_recycles_workers(self):
        pool = make_pool(workers=1, ttl=2)
        try:
            results = pool.run([(pid_tag, (i,)) for i in range(6)])
            pids = [pid for _i, pid in results]
            # 6 tasks at ttl=2 through one slot: three worker
            # generations, each serving exactly two tasks.
            assert len(set(pids)) == 3
            assert pool.stats.recycled >= 2
        finally:
            pool.close()

    def test_close_is_idempotent_and_terminal(self):
        pool = make_pool()
        pool.run([(double, (1,))])
        pids = pool.worker_pids()
        pool.close()
        pool.close()
        assert pool.closed
        for pid in pids:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} survived close()")
        with pytest.raises(DeviceError):
            pool.ensure_workers()


class TestHostFaultPlan:
    def test_fires_is_pure_and_deterministic(self):
        a = HostFaultPlan(seed=11)
        b = HostFaultPlan(seed=11)
        for kind in HOST_FAULT_KINDS:
            for i in range(64):
                assert a.fires(kind, i) == b.fires(kind, i)

    def test_seed_changes_schedule(self):
        a = HostFaultPlan(seed=1, rates={"worker_kill": 0.5})
        b = HostFaultPlan(seed=2, rates={"worker_kill": 0.5})
        assert any(
            a.fires("worker_kill", i) != b.fires("worker_kill", i)
            for i in range(64)
        )

    def test_rate_burst_bounded_by_max_consecutive(self):
        plan = HostFaultPlan(
            seed=3, rates={"worker_kill": 1.0}, max_consecutive=2
        )
        bursts = {plan.fires("worker_kill", i) for i in range(64)}
        assert bursts <= {1, 2} and bursts

    def test_targets_override_rates(self):
        plan = HostFaultPlan(
            seed=0,
            rates={k: 0.0 for k in HOST_FAULT_KINDS},
            targets={"worker_stall": {4: 3}},
        )
        assert plan.fires("worker_stall", 4) == 3
        assert plan.fires("worker_stall", 5) == 0
        assert plan.enabled

    def test_zero_rates_disable(self):
        plan = HostFaultPlan(
            seed=9, rates={k: 0.0 for k in HOST_FAULT_KINDS}
        )
        assert not plan.enabled
        assert all(
            plan.fires(k, i) == 0
            for k in HOST_FAULT_KINDS for i in range(32)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            HostFaultPlan(rates={"meteor": 0.5})
        with pytest.raises(ValueError):
            HostFaultPlan(targets={"meteor": {0: 1}})

    def test_plan_is_picklable(self):
        import pickle

        plan = HostFaultPlan(seed=5, targets={"worker_kill": {2: 1}})
        assert pickle.loads(pickle.dumps(plan)) == plan


def quiet_plan(**targets):
    """A plan whose only faults are the explicit targets."""
    return HostFaultPlan(
        seed=0,
        rates={k: 0.0 for k in HOST_FAULT_KINDS},
        targets=targets,
    )


class TestSupervision:
    def test_injected_kill_respawns_and_redispatches(self):
        plan = quiet_plan(worker_kill={2: 1, 5: 2})
        pool = make_pool(host_faults=plan)
        try:
            results = pool.run([(double, (i,)) for i in range(8)])
            assert results == [2 * i for i in range(8)]
            # idx 2 kills once (respawn + redispatch, second attempt
            # clean); idx 5 kills twice (two respawns, one redispatch,
            # then quarantined inline at max_crashes=2).
            assert pool.stats.respawns == 3
            assert pool.stats.redispatches == 2
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_quarantined_task_runs_inline_in_parent(self):
        plan = quiet_plan(worker_kill={3: 99})
        pool = make_pool(host_faults=plan)
        try:
            results = pool.run([(pid_tag, (i,)) for i in range(5)])
            ran_in = {i: pid for i, pid in results}
            assert ran_in[3] == os.getpid()  # inline = exact
            assert all(
                pid != os.getpid()
                for i, pid in ran_in.items() if i != 3
            )
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_stall_is_hedged_not_waited_out(self):
        plan = quiet_plan(worker_stall={1: 1})
        pool = make_pool(watchdog_s=0.3, host_faults=plan)
        try:
            t0 = time.perf_counter()
            results = pool.run([(double, (i,)) for i in range(3)])
            elapsed = time.perf_counter() - t0
            assert results == [0, 2, 4]
            assert pool.stats.hedges >= 1
            # Recovery came from the hedge, not the 3600 s sleep.
            assert elapsed < plan.stall_seconds / 100
        finally:
            pool.close()

    def test_repeated_stall_converges_to_quarantine(self):
        # Burst 99 stalls every worker attempt; each stall-kill counts
        # toward the crash budget, so the chunk ends up inline.
        plan = quiet_plan(worker_stall={0: 99})
        pool = make_pool(watchdog_s=0.15, host_faults=plan)
        try:
            results = pool.run([(double, (i,)) for i in range(2)])
            assert results == [0, 2]
            assert pool.stats.stall_kills >= 2
            assert pool.stats.quarantines == 1
        finally:
            pool.close()

    def test_injected_shm_loss_uses_fallback(self, partitions,
                                             monkeypatch):
        """Tasks holding a CST or a tuple of CSTs return identical
        results inline, over shm, after an injected ``shm_unlink``
        (re-sent pickled), and over pickle when no arena exists."""
        tasks = cst_tasks(partitions)
        inline = run_tasks(tasks)

        pool = make_pool()
        try:
            assert pool.run(tasks) == inline
            assert pool.cst_plane == "shm"
            assert pool.stats.shm_fallbacks == 0
        finally:
            pool.close()

        last = len(tasks) - 1  # the tuple-of-CSTs task
        pool = make_pool(host_faults=quiet_plan(shm_unlink={2: 1,
                                                            last: 1}))
        try:
            assert pool.run(tasks) == inline
            assert pool.stats.shm_fallbacks == 2
        finally:
            pool.close()

        def no_arena(*args, **kwargs):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(shm, "CstArena", no_arena)
        pool = make_pool(host_faults=quiet_plan(shm_unlink={2: 1}))
        try:
            assert pool.run(tasks) == inline
            assert pool.cst_plane == "pickle"
            # Pickled tasks have no segment to lose.
            assert pool.stats.shm_fallbacks == 0
        finally:
            pool.close()

    def test_injected_shm_loss_ignores_non_shm_tasks(self):
        plan = quiet_plan(shm_unlink={1: 1})
        pool = make_pool(host_faults=plan)
        try:
            # Tasks without CST arguments travel pickled: the
            # shm_unlink target never fires and nothing is re-sent.
            assert pool.run(
                [(double, (i,)) for i in range(3)]
            ) == [0, 2, 4]
            assert pool.stats.shm_fallbacks == 0
            assert pool.cst_plane is None
        finally:
            pool.close()

    def test_real_missing_segment_takes_fallback_path(self, partitions,
                                                      monkeypatch):
        class VanishingArena(shm.CstArena):
            """Segments unlinked right after creation: the parent
            keeps its mapping, workers find nothing to attach."""

            def _grow(self, nbytes):
                super()._grow(nbytes)
                self._segments[-1].unlink()

        monkeypatch.setattr(shm, "CstArena", VanishingArena)
        tasks = cst_tasks(partitions)[:3]
        pool = make_pool()
        try:
            # Fork before the arena exists, so no worker inherits the
            # parent's mapping of the vanished segment.
            pool.ensure_workers()
            assert pool.run(tasks) == run_tasks(tasks)
            assert pool.stats.shm_fallbacks == 3
        finally:
            pool.close()

    def test_real_missing_file_without_shm_is_reraised(self):
        pool = make_pool()
        try:
            with pytest.raises(FileNotFoundError):
                pool.run([(missing_segment, (0,))])
        finally:
            pool.close()

    def test_task_exception_keeps_original_type(self):
        pool = make_pool()
        try:
            with pytest.raises(ValueError, match="boom 3"):
                pool.run([(double, (0,)), (boom, (3,))])
            # The pool survives a failed run and serves the next one.
            assert pool.run([(double, (i,)) for i in range(4)]) == [
                0, 2, 4, 6,
            ]
        finally:
            pool.close()

    def test_external_sigkill_mid_run_recovers(self):
        pool = make_pool(workers=2, watchdog_s=5.0)
        try:
            pool.ensure_workers()
            victim = pool.worker_pids()[0]

            def assassinate():
                time.sleep(0.1)
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            killer = threading.Thread(target=assassinate)
            killer.start()
            results = pool.run([(slow_echo, (i,)) for i in range(8)])
            killer.join()
            assert results == list(range(8))
            assert pool.stats.respawns >= 1
        finally:
            pool.close()


class TestLegacyBrokenPool:
    """The crash scenarios the removed per-stage ``ProcessPoolExecutor``
    salvaged by an inline re-run, replayed on the warm pool: tasks that
    kill every worker end up quarantined inline, exactly once."""

    def test_broken_pool_reruns_lost_tasks_inline(self):
        pool = make_pool()
        try:
            seen = []
            results = pool.run(
                [(kill_if_worker, (i, os.getpid())) for i in range(4)],
                on_result=lambda i, v: seen.append(i),
            )
            assert results == [0, 3, 6, 9]
            assert sorted(seen) == [0, 1, 2, 3]  # delivered exactly once
            assert pool.stats.quarantines == 4
        finally:
            pool.close()

    def test_partial_completion_is_salvaged(self):
        pool = make_pool()
        try:
            results = pool.run(
                [(kill_if_worker_and_odd, (i, os.getpid()))
                 for i in range(6)],
            )
            assert results == [3 * i for i in range(6)]
            assert pool.stats.quarantines == 3  # only the odd tasks
        finally:
            pool.close()

    def test_task_exception_is_not_mistaken_for_a_crash(self):
        pool = make_pool()
        try:
            with pytest.raises(ValueError, match="boom 1"):
                pool.run([(double, (0,)), (boom, (1,))])
            assert pool.stats.respawns == 0
        finally:
            pool.close()


ORPHAN_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import time

    from repro.runtime.pool import PoolConfig, WorkerPool

    def park(x):
        return x

    pool = WorkerPool(PoolConfig(workers=2, heartbeat_s=0.1))
    pool.run([(park, (i,)) for i in range(2)])
    print(" ".join(str(p) for p in pool.worker_pids()), flush=True)
    os._exit(0)  # die without close(): workers are now orphans
""")

TETHER_SCRIPT = textwrap.dedent("""
    from repro.runtime.pool import install_parent_death_tether

    print(install_parent_death_tether(poll_interval=0.05))
""")


class TestParentDeathTether:
    """Satellite 2: orphaned workers must never outlive the parent."""

    def run_script(self, script):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=60,
        )

    def test_tether_installs_a_real_mechanism(self):
        proc = self.run_script(TETHER_SCRIPT)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.strip() in ("prctl", "poll")

    def test_workers_die_with_their_parent(self):
        proc = self.run_script(ORPHAN_SCRIPT)
        assert proc.returncode == 0, proc.stderr[-500:]
        pids = [int(p) for p in proc.stdout.split()]
        assert pids
        deadline = time.time() + 10.0
        survivors = set(pids)
        while survivors and time.time() < deadline:
            for pid in list(survivors):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    survivors.discard(pid)
            time.sleep(0.1)
        assert not survivors, f"orphan workers survived: {survivors}"
