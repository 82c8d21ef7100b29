"""Supervised warm worker pool: the one execution plane for ``workers > 1``.

The execute stage runs its independent partition tasks inline when
``workers == 1`` and through a long-lived :class:`WorkerPool`
otherwise. The pool makes the host-fault story match the
modeled-fault story (retry → re-partition → CPU fallback): every host
failure has a bounded, deterministic-in-value recovery path.

Design, in one pass:

* **Warm.** Workers are forked once and reused across execute stages
  and serve batches, amortizing both the fork itself and the
  per-worker shared-memory attachment / ``_BLOB_CACHE`` warmup.
  Parent and workers talk over one duplex pipe per worker; idle
  workers emit periodic heartbeats.
* **Supervised.** A dead worker (SIGKILL, segfault, OOM) is detected
  by liveness polling + pipe EOF, respawned, and its in-flight chunk
  re-dispatched with a bumped attempt number. A chunk whose dispatch
  is silent past the wall-clock watchdog is *hedged* — re-dispatched
  to an idle worker, first completion wins — and the worker itself is
  SIGKILLed once it is silent past twice the watchdog. A chunk that
  crashes its worker ``max_crashes`` times is *quarantined*: the pool
  runs it inline in the parent process, executing the exact same pure
  task function, so counts, modeled seconds, and health records stay
  bit-identical to a fault-free run.
* **Owns the CST transport.** Callers pass plain tasks whose arguments
  may hold :class:`~repro.cst.structure.CST` objects. At dispatch the
  pool places
  their arrays in its own :class:`~repro.runtime.shm.CstArena` and
  ships descriptors; the worker rebuilds zero-copy read-only CSTs
  before it calls the task. A worker that finds a segment gone (really
  unlinked, or injected via :class:`~repro.runtime.faults.
  HostFaultPlan`) reports ``shm_lost`` and the pool re-sends the
  original pickled task; when no arena can be created at all, every
  task goes pickled (``cst_plane == "pickle"``). Losing the zero-copy
  plane degrades wall-clock only.
* **Chunked.** Consecutive tasks are grouped, in index order, into
  chunks of :func:`derive_chunk` tasks — about eight per worker — to
  cut per-task dispatch overhead on long partition streams; a chunk
  is the unit of dispatch, hedging, and crash accounting.

Determinism: task *values* never depend on supervision. Tasks are
pure functions of their arguments, results are keyed by task index,
and duplicate completions (hedges, post-error stragglers) are
discarded, so whichever copy wins delivers the same value — the
"deterministic index-ordered winner". Everything in this module is
wall-clock machinery; modeled seconds, fingerprints, and embedding
counts are unchanged at any setting (the property the chaos suite
checks).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Sequence

from repro.common.errors import DeviceError, WorkerCrashError
from repro.cst.structure import CST, CstDescriptor
from repro.runtime import shm
from repro.runtime.faults import HostFaultPlan

#: A unit of work: ``(fn, args)`` with ``fn`` a module-level function
#: and every argument picklable (tasks cross a process boundary).
Task = tuple[Callable[..., Any], tuple]

#: How many trace events the pool retains between drains.
_MAX_EVENTS = 10_000

_PR_SET_PDEATHSIG = 1

#: Recycle the pool's CST arena once this many placed bytes
#: accumulate. A long-lived pool (serve, harness sweeps) reuses one
#: arena across runs — resident CSTs keep their descriptors, so repeat
#: runs place nothing new — and the cap bounds /dev/shm growth from
#: dataset churn; recycling just re-places on the next run.
ARENA_RECYCLE_BYTES = 256 << 20


def derive_chunk(pending: int, workers: int) -> int:
    """Tasks per dispatch unit: ``ceil(pending / (8 * workers))``.

    Eight chunks per worker keep every worker fed until the tail of
    the run while cutting pipe round-trips on long partition streams
    (1304 partitions at two workers dispatch as 16 chunks of 82).
    Short runs degrade to one task per chunk.
    """
    return max(1, -(-pending // (8 * workers)))


def install_parent_death_tether(
    parent_pid: int | None = None, poll_interval: float = 0.5
) -> str:
    """Make the calling process exit when its parent dies.

    Orphaned workers must never outlive the parent: they would pin
    shared-memory attachments and the resource tracker's pipe open
    indefinitely. On Linux, ``prctl(PR_SET_PDEATHSIG, SIGKILL)``
    delivers SIGKILL the instant the parent exits. Everywhere else —
    or if ``prctl`` fails — a daemon thread polls ``os.getppid()``
    and ``os._exit(1)``\\ s the moment the parent changes, so the
    tether is never a silent no-op. Returns the mechanism installed
    (``"prctl"`` or ``"poll"``), which the tests assert on.
    """
    if parent_pid is None:
        parent_pid = os.getppid()
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL)) == 0:
            if os.getppid() != parent_pid:  # parent died pre-prctl
                os._exit(1)
            return "prctl"
    except Exception:
        pass

    def _poll() -> None:  # pragma: no cover - exercised in subprocess
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            time.sleep(poll_interval)

    thread = threading.Thread(
        target=_poll, daemon=True, name="parent-tether"
    )
    thread.start()
    return "poll"


def _drop_shm_attachments() -> None:
    """Forget this process's shared-memory attachments and blob cache.

    Used by the injected ``shm_unlink`` fault to simulate losing the
    CST plane: subsequent descriptor loads in this worker behave as
    if the segments were never mapped.
    """
    shm._ATTACHED.clear()
    shm._ATTACHMENTS.clear()
    shm._BLOB_CACHE.clear()


def _rebuild(args: tuple) -> tuple:
    """Worker side of the CST transport: descriptors back to CSTs.

    Every segment attaches here, eagerly, so a lost segment surfaces
    as ``FileNotFoundError`` before the task runs.
    """
    out = []
    for arg in args:
        if isinstance(arg, CstDescriptor):
            arg = CST.from_descriptor(arg)
        out.append(arg)
    return tuple(out)


def _pool_worker_main(
    worker_id: int,
    conn: Any,
    parent_pid: int,
    heartbeat_s: float,
    fault_plan: HostFaultPlan | None,
) -> None:  # pragma: no cover - runs in the worker process
    """Worker loop: poll for chunks, run them, heartbeat when idle."""
    install_parent_death_tether(parent_pid)
    while True:
        try:
            if not conn.poll(heartbeat_s):
                conn.send(("hb", worker_id))
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, dispatch_seq, attempt, items, trace = message
        reply = _run_chunk(dispatch_seq, attempt, items, fault_plan,
                           trace)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _run_chunk(
    dispatch_seq: int,
    attempt: int,
    items: Sequence[tuple[int, Callable[..., Any], tuple, bool]],
    fault_plan: HostFaultPlan | None,
    trace: bool = False,
) -> tuple:
    """Execute one chunk inside a worker; returns the reply message.

    With ``trace`` set, the worker times each task (plus injected
    stalls and cold shared-memory attaches) against its own
    ``perf_counter`` — CLOCK_MONOTONIC, system-wide, so the parent can
    rebase the timestamps onto the tracer's wall clock — and ships the
    spans back inside the ``done`` reply:
    ``(name, start_perf, seconds, args)`` per span.
    """
    out: list[tuple[int, Any]] = []
    spans: list[tuple[str, float, float, dict]] | None = (
        [] if trace else None
    )
    for task_index, fn, args, uses_shm in items:
        if fault_plan is not None:
            if attempt < fault_plan.fires("worker_kill", task_index):
                os.kill(os.getpid(), signal.SIGKILL)
            if attempt < fault_plan.fires("worker_stall", task_index):
                stall_start = time.perf_counter()
                time.sleep(fault_plan.stall_seconds)
                if spans is not None:
                    spans.append((
                        "host-stall", stall_start,
                        time.perf_counter() - stall_start,
                        {"task": task_index},
                    ))
            if uses_shm and attempt < fault_plan.fires(
                "shm_unlink", task_index
            ):
                _drop_shm_attachments()
                return ("shm_lost", dispatch_seq, task_index,
                        "injected shm loss")
        start = time.perf_counter()
        if uses_shm:
            try:
                args = _rebuild(args)
            except FileNotFoundError as exc:  # the segment is gone
                return ("shm_lost", dispatch_seq, task_index, repr(exc))
        try:
            result = fn(*args)
        except Exception as exc:
            return _error_reply(dispatch_seq, task_index, exc)
        if spans is not None:
            spans.append((
                "pool-task", start, time.perf_counter() - start,
                {"task": task_index, "attempt": attempt},
            ))
        out.append((task_index, result))
    if spans is not None:
        for segment, attach_start, seconds in shm.drain_attach_events():
            spans.append((
                "shm-attach", attach_start, seconds,
                {"segment": segment},
            ))
        return ("done", dispatch_seq, out, spans)
    return ("done", dispatch_seq, out)


def _error_reply(
    dispatch_seq: int, task_index: int, exc: Exception
) -> tuple:
    """Package a task exception so the parent can re-raise it typed."""
    try:
        payload: bytes | None = pickle.dumps(exc)
    except Exception:
        payload = None
    return ("error", dispatch_seq, task_index, payload,
            traceback.format_exc())


@dataclass(frozen=True)
class PoolConfig:
    """Shape and supervision knobs of a :class:`WorkerPool`.

    All wall-clock domain. ``ttl`` recycles a worker after that many
    tasks (0 = never), bounding drift from leaked state; ``watchdog_s``
    is the silence budget before a dispatch is hedged (stall-kill at
    twice that; 0 disables); ``max_crashes`` is how many worker
    deaths a chunk may cause before it is quarantined inline.
    """

    workers: int = 2
    ttl: int = 0
    watchdog_s: float = 30.0
    max_crashes: int = 2
    heartbeat_s: float = 0.2
    host_faults: HostFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DeviceError("pool workers must be >= 1")
        if self.ttl < 0:
            raise DeviceError("pool ttl must be >= 0")
        if self.watchdog_s < 0.0:
            raise DeviceError("pool watchdog must be >= 0")
        if self.max_crashes < 1:
            raise DeviceError("pool max_crashes must be >= 1")
        if self.heartbeat_s <= 0.0:
            raise DeviceError("pool heartbeat must be > 0")


@dataclass
class PoolStats:
    """Cumulative supervision counters of one pool (wall-clock only)."""

    spawned: int = 0
    respawns: int = 0
    redispatches: int = 0
    hedges: int = 0
    quarantines: int = 0
    shm_fallbacks: int = 0
    stall_kills: int = 0
    recycled: int = 0
    duplicates: int = 0
    heartbeats: int = 0
    tasks_done: int = 0
    chunks: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "spawned": self.spawned,
            "respawns": self.respawns,
            "redispatches": self.redispatches,
            "hedges": self.hedges,
            "quarantines": self.quarantines,
            "shm_fallbacks": self.shm_fallbacks,
            "stall_kills": self.stall_kills,
            "recycled": self.recycled,
            "duplicates": self.duplicates,
            "heartbeats": self.heartbeats,
            "tasks_done": self.tasks_done,
            "chunks": self.chunks,
        }


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = (
        "slot", "process", "conn", "tasks_served", "current",
        "dispatched_at", "last_seen",
    )

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.conn: Any = None
        self.tasks_served = 0
        #: dispatch_seq of the in-flight chunk, or None when idle.
        self.current: int | None = None
        self.dispatched_at = 0.0
        self.last_seen = 0.0

    @property
    def busy(self) -> bool:
        return self.current is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _Chunk:
    """One dispatch unit: a run of consecutive tasks."""

    __slots__ = (
        "items", "attempt", "crashes", "hedged", "queued",
        "completed", "inflight",
    )

    def __init__(
        self,
        items: list[tuple[int, Callable[..., Any], tuple, tuple | None]],
    ) -> None:
        #: ``(task_index, fn, args, wire_args)`` per task, index order;
        #: ``wire_args`` is ``args`` with every CST swapped for its
        #: arena descriptor, or ``None`` to send ``args`` pickled.
        self.items = items
        self.attempt = 0
        self.crashes = 0
        self.hedged = False
        self.queued = True
        self.completed = False
        #: Live dispatch_seqs of this chunk (primary + hedges).
        self.inflight: set[int] = set()

    @property
    def indices(self) -> list[int]:
        return [item[0] for item in self.items]


class WorkerPool:
    """Warm, supervised process pool with index-ordered results.

    See the module docstring for the supervision model. The pool is
    *not* thread-safe: one ``run`` at a time (the execute stage and
    the serve loop both satisfy this). Workers are forked lazily on
    the first ``run`` and live until :meth:`close` — which the owning
    :class:`~repro.runtime.context.RunContext` or ``MatchServer``
    calls — or until their ``ttl`` recycles them.
    """

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config or PoolConfig()
        self.stats = PoolStats()
        self._workers: list[_Worker] = [
            _Worker(slot) for slot in range(self.config.workers)
        ]
        #: dispatch_seq -> chunk, for every in-flight dispatch,
        #: including stale ones left by an aborted run.
        self._dispatches: dict[int, _Chunk] = {}
        self._next_seq = 0
        self._events: list[tuple[float, str, dict[str, Any]]] = []
        #: Whether dispatches ask workers to time their tasks; spans
        #: come back in ``done`` replies and buffer here as
        #: ``(worker_slot, name, start_perf, seconds, args)``.
        self._trace = False
        self._worker_spans: list[
            tuple[int, str, float, float, dict[str, Any]]
        ] = []
        self._closed = False
        #: The pool-owned shared-memory CST plane, created on the
        #: first run whose tasks carry a CST.
        self._arena: shm.CstArena | None = None
        #: How the last run's CST arguments reached the workers:
        #: ``"shm"`` descriptors, ``"pickle"`` when no arena could be
        #: created, ``None`` when no task carried a CST.
        self.cst_plane: str | None = None
        try:
            self._mp = get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = get_context()
        watchdog = self.config.watchdog_s
        self._tick = max(0.01, min(
            self.config.heartbeat_s,
            watchdog / 4.0 if watchdog > 0.0 else self.config.heartbeat_s,
        ))

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (pool is unusable)."""
        return self._closed

    @property
    def arena(self) -> shm.CstArena | None:
        """The pool's live CST arena, if a run has created one."""
        return self._arena

    # ------------------------------------------------------------ spawn

    def ensure_workers(self) -> None:
        """Fork any missing workers (first run, post-close reuse)."""
        if self._closed:
            raise DeviceError("worker pool is closed")
        for worker in self._workers:
            if not worker.alive():
                self._spawn(worker)

    def _spawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_pool_worker_main,
            args=(
                worker.slot, child_conn, os.getpid(),
                self.config.heartbeat_s, self.config.host_faults,
            ),
            daemon=True,
            name=f"repro-pool-{worker.slot}",
        )
        process.start()
        # Drop the parent's copy of the child end so a dead worker
        # reads as EOF on our end of the pipe.
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.tasks_served = 0
        worker.current = None
        worker.last_seen = time.perf_counter()
        self.stats.spawned += 1

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (chaos tests kill these directly)."""
        return [
            w.process.pid for w in self._workers
            if w.alive() and w.process.pid is not None
        ]

    # ------------------------------------------------------------ events

    def _event(self, kind: str, **detail: Any) -> None:
        if len(self._events) < _MAX_EVENTS:
            self._events.append((time.perf_counter(), kind, detail))

    def drain_events(self) -> list[tuple[float, str, dict[str, Any]]]:
        """Return and clear buffered supervision events (for tracing)."""
        events, self._events = self._events, []
        return events

    def set_trace(self, enabled: bool) -> None:
        """Ask workers to time their tasks on subsequent dispatches.

        Worker-side spans ride back inside ``done`` replies and buffer
        until :meth:`drain_worker_spans`; with tracing off the reply
        protocol is byte-identical to before this feature existed.
        """
        self._trace = bool(enabled)

    def drain_worker_spans(
        self,
    ) -> list[tuple[int, str, float, float, dict[str, Any]]]:
        """Return and clear buffered worker-side spans.

        Each entry is ``(worker_slot, name, start_perf, seconds,
        args)``; slot ``-1`` marks parent-inline (quarantine) work.
        Only spans from the *winning* copy of a chunk are kept —
        duplicate completions (hedges, stragglers) are dropped with
        their results, so the trace never shows the same task twice.
        """
        spans, self._worker_spans = self._worker_spans, []
        return spans

    def _record_worker_spans(
        self,
        slot: int,
        spans: Sequence[tuple[str, float, float, dict[str, Any]]],
    ) -> None:
        for name, start, seconds, args in spans:
            if len(self._worker_spans) >= _MAX_EVENTS:
                return
            self._worker_spans.append((slot, name, start, seconds, args))

    # ------------------------------------------------------------ run

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute ``tasks``; results are returned in task order.

        ``on_result(index, result)`` fires in the parent as each task
        completes (the run journal's persistence hook). CST arguments
        cross to the workers over the pool's arena (see the module
        docstring); ``cst_plane`` reports how. Exceptions raised by
        tasks (or by ``on_result``) propagate with their original
        type; in-flight chunks of an aborted run are discarded when
        their stragglers arrive.
        """
        if not tasks:
            return []
        if (
            self._arena is not None
            and self._arena.placed_bytes > ARENA_RECYCLE_BYTES
        ):
            self.recycle()
        self.cst_plane = None
        items = [
            (i, fn, args, self._wire(args))
            for i, (fn, args) in enumerate(tasks)
        ]
        self.ensure_workers()
        chunk_size = derive_chunk(len(tasks), self.config.workers)
        chunks = [
            _Chunk(items[start:start + chunk_size])
            for start in range(0, len(items), chunk_size)
        ]
        self.stats.chunks += len(chunks)
        pending: deque[_Chunk] = deque(chunks)
        results: dict[int, Any] = {}
        state = {
            "done": 0,
            "error": None,
            "on_result": on_result,
            "results": results,
            "pending": pending,
        }
        try:
            while state["done"] < len(chunks):
                if state["error"] is not None:
                    break
                self._dispatch_idle(state)
                self._pump_messages(state)
                self._reap_dead(state)
                self._watchdog(state)
        finally:
            # Anything still in flight belongs to an aborted run:
            # mark it stale so stragglers are dropped, not delivered.
            for chunk in chunks:
                if not chunk.completed:
                    chunk.completed = True
            pending.clear()
        if state["error"] is not None:
            raise state["error"]
        return [results[i] for i in range(len(tasks))]

    def _wire(self, args: tuple) -> tuple | None:
        """``args`` with every CST swapped for its arena descriptor;
        ``None`` when nothing was swapped, so the task travels pickled
        as given."""
        out = list(args)
        swapped = False
        for k, arg in enumerate(args):
            if not isinstance(arg, CST):
                continue
            if self._arena is None and self.cst_plane is None:
                # One creation attempt per run.
                try:
                    self._arena = shm.CstArena()
                except OSError:
                    pass
            self.cst_plane = "shm" if self._arena is not None else "pickle"
            if self._arena is None:
                return None
            out[k] = self._arena.descriptor_for(arg)
            swapped = True
        return tuple(out) if swapped else None

    # ------------------------------------------------- run internals

    def _idle_workers(self) -> list[_Worker]:
        return [w for w in self._workers if w.alive() and not w.busy]

    def _dispatch_idle(self, state: dict[str, Any]) -> None:
        if state["error"] is not None:
            return
        pending: deque[_Chunk] = state["pending"]
        for worker in self._idle_workers():
            if not pending:
                return
            chunk = pending.popleft()
            chunk.queued = False
            if not self._send(worker, chunk):
                # The worker died between liveness check and send;
                # the reap pass respawns it, the chunk goes back on
                # the queue for the next loop iteration.
                chunk.queued = True
                pending.appendleft(chunk)
                return

    def _send(self, worker: _Worker, chunk: _Chunk) -> bool:
        seq = self._next_seq
        self._next_seq += 1
        attempt = chunk.attempt
        try:
            worker.conn.send((
                "run", seq, attempt,
                [
                    (i, fn, args if wire is None else wire,
                     wire is not None)
                    for i, fn, args, wire in chunk.items
                ],
                self._trace,
            ))
        except (BrokenPipeError, OSError):
            self._kill_worker(worker)
            return False
        chunk.attempt += 1
        chunk.inflight.add(seq)
        self._dispatches[seq] = chunk
        worker.current = seq
        worker.dispatched_at = time.perf_counter()
        return True

    def _pump_messages(self, state: dict[str, Any]) -> None:
        conns = {
            w.conn: w for w in self._workers
            if w.conn is not None and w.alive()
        }
        if not conns:
            return
        try:
            ready = _connection_wait(list(conns), timeout=self._tick)
        except OSError:
            return
        for conn in ready:
            worker = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._kill_worker(worker)
                continue
            worker.last_seen = time.perf_counter()
            kind = message[0]
            if kind == "hb":
                self.stats.heartbeats += 1
                continue
            seq = message[1]
            chunk = self._dispatches.pop(seq, None)
            if worker.current == seq:
                worker.current = None
                if chunk is not None:
                    worker.tasks_served += len(chunk.items)
                self._maybe_recycle(worker)
            if chunk is None:
                self.stats.duplicates += 1
                continue
            chunk.inflight.discard(seq)
            if chunk.completed:
                self.stats.duplicates += 1
                continue
            if kind == "done":
                # Spans arrive only from the winning copy: duplicate
                # completions bailed out above, so hedged losers never
                # double-report a task.
                if len(message) > 3 and message[3]:
                    self._record_worker_spans(worker.slot, message[3])
                self._complete(chunk, message[2], state)
            elif kind == "shm_lost":
                self._shm_lost(chunk, message[2], message[3], state)
            elif kind == "error":
                self._task_error(chunk, message[3], message[4], state)

    def _complete(
        self, chunk: _Chunk, payload: list[tuple[int, Any]],
        state: dict[str, Any],
    ) -> None:
        chunk.completed = True
        state["done"] += 1
        self.stats.tasks_done += len(payload)
        results: dict[int, Any] = state["results"]
        on_result = state["on_result"]
        for task_index, value in payload:
            results[task_index] = value
            if on_result is not None:
                try:
                    on_result(task_index, value)
                except BaseException as exc:
                    state["error"] = exc
                    return

    def _shm_lost(
        self, chunk: _Chunk, task_index: int, message: str,
        state: dict[str, Any],
    ) -> None:
        """Re-send ``task_index`` with its original pickled args."""
        for j, (i, fn, args, wire) in enumerate(chunk.items):
            if i == task_index and wire is not None:
                chunk.items[j] = (i, fn, args, None)
                self.stats.shm_fallbacks += 1
                self._event(
                    "shm_fallback", task=task_index, detail=message
                )
                break
        self._maybe_requeue(chunk, state)

    def _task_error(
        self, chunk: _Chunk, payload: bytes | None, text: str,
        state: dict[str, Any],
    ) -> None:
        chunk.completed = True
        state["done"] += 1
        error: BaseException | None = None
        if payload is not None:
            try:
                error = pickle.loads(payload)
            except Exception:
                error = None
        if error is None:
            error = WorkerCrashError(
                f"worker task failed and its exception did not "
                f"round-trip:\n{text}"
            )
        state["error"] = error

    def _maybe_requeue(
        self, chunk: _Chunk, state: dict[str, Any]
    ) -> None:
        """Re-queue a lost chunk once no copy of it is in flight."""
        if chunk.completed or chunk.queued or chunk.inflight:
            return
        if chunk.crashes >= self.config.max_crashes:
            self._quarantine(chunk, state)
            return
        chunk.queued = True
        state["pending"].appendleft(chunk)
        self.stats.redispatches += 1
        self._event(
            "redispatch", tasks=chunk.indices, attempt=chunk.attempt
        )

    def _quarantine(
        self, chunk: _Chunk, state: dict[str, Any]
    ) -> None:
        """Run a worker-killing chunk inline in the parent.

        Inline execution of the same pure task function is the exact
        fallback: counts, modeled seconds, and health records are
        bit-identical, only wall-clock placement changes. Injected
        host faults never fire here — they live in the worker loop.
        """
        self.stats.quarantines += 1
        self._event("quarantine", tasks=chunk.indices)
        chunk.completed = True
        state["done"] += 1
        results: dict[int, Any] = state["results"]
        on_result = state["on_result"]
        for task_index, fn, args, _wire in chunk.items:
            start = time.perf_counter()
            try:
                value = fn(*args)
            except BaseException as exc:
                state["error"] = exc
                return
            if self._trace:
                self._record_worker_spans(-1, [(
                    "pool-task", start, time.perf_counter() - start,
                    {"task": task_index, "quarantined": True},
                )])
            self.stats.tasks_done += 1
            results[task_index] = value
            if on_result is not None:
                try:
                    on_result(task_index, value)
                except BaseException as exc:
                    state["error"] = exc
                    return

    def _reap_dead(self, state: dict[str, Any]) -> None:
        for worker in self._workers:
            if worker.process is None or worker.alive():
                continue
            seq = worker.current
            worker.current = None
            self.stats.respawns += 1
            self._event(
                "respawn", worker=worker.slot,
                exitcode=worker.process.exitcode,
            )
            if not self._closed:
                self._spawn(worker)
            if seq is None:
                continue
            chunk = self._dispatches.pop(seq, None)
            if chunk is None or chunk.completed:
                continue
            chunk.inflight.discard(seq)
            chunk.crashes += 1
            self._maybe_requeue(chunk, state)

    def _watchdog(self, state: dict[str, Any]) -> None:
        watchdog = self.config.watchdog_s
        if watchdog <= 0.0:
            return
        now = time.perf_counter()
        for worker in list(self._workers):
            if not worker.busy or not worker.alive():
                continue
            elapsed = now - worker.dispatched_at
            if elapsed <= watchdog:
                continue
            chunk = self._dispatches.get(worker.current)
            if chunk is None or chunk.completed:
                continue
            if elapsed > 2.0 * watchdog:
                # Stalled past the kill line: SIGKILL the worker; the
                # reap pass respawns it and re-queues the chunk.
                self.stats.stall_kills += 1
                self._event(
                    "stall_kill", worker=worker.slot,
                    tasks=chunk.indices,
                )
                self._kill_worker(worker)
            elif not chunk.hedged:
                idle = self._idle_workers()
                if idle and self._send(idle[0], chunk):
                    chunk.hedged = True
                    self.stats.hedges += 1
                    self._event(
                        "hedge", tasks=chunk.indices,
                        attempt=chunk.attempt,
                    )

    def _kill_worker(self, worker: _Worker) -> None:
        if worker.process is None:
            return
        try:
            worker.process.kill()
        except (OSError, ValueError):  # pragma: no cover
            pass
        worker.process.join(timeout=5.0)

    def _maybe_recycle(self, worker: _Worker) -> None:
        ttl = self.config.ttl
        if ttl <= 0 or worker.busy or worker.tasks_served < ttl:
            return
        self.stats.recycled += 1
        self._event("recycle", worker=worker.slot,
                    tasks_served=worker.tasks_served)
        self._stop_worker(worker)
        self._spawn(worker)

    # ------------------------------------------------------------ close

    def _stop_worker(self, worker: _Worker, timeout: float = 2.0) -> None:
        if worker.process is None:
            return
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError, AttributeError):
            pass
        worker.process.join(timeout=timeout)
        if worker.process.is_alive():
            self._kill_worker(worker)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        worker.process = None
        worker.current = None

    def recycle(self) -> None:
        """Stop every worker and unlink the arena; the next run forks
        a fresh set and places its CSTs in a fresh arena.

        ``run`` calls this once the arena passes
        :data:`ARENA_RECYCLE_BYTES`; stopping the workers first drops
        their attachments to the segments being unlinked.
        """
        for worker in self._workers:
            self._stop_worker(worker)
        self._dispatches.clear()
        self._close_arena()

    def _close_arena(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def close(self) -> None:
        """Stop all workers permanently and unlink the arena
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop_worker(worker)
        self._dispatches.clear()
        self._close_arena()
