"""The long-lived matching server (docs/serving.md).

:class:`MatchServer` reads newline-JSON requests, runs them through
the staged pipeline via the backend registry, and answers each with
exactly one terminal response. Its job, beyond dispatch, is the
robustness envelope:

* **Residency** — one bounded
  :class:`~repro.runtime.context.StageCache` spans every request, so
  hot datasets keep their CSTs (and partitions) resident; the CST of
  the batch currently being served is pinned against eviction, and a
  small LRU keeps the hottest data graphs loaded.
* **Coalescing** — queued jobs sharing a ``(dataset, query)`` pair run
  back-to-back as one batch, so all but the first hit the CST cache.
* **Admission** — a token bucket over estimated modeled cost
  (:mod:`repro.serve.admission`): admit, queue, or shed. The server
  refuses work (``SHED``) instead of growing without bound.
* **Deadlines** — each job's modeled-time budget rides the run context
  as a :class:`~repro.runtime.context.CancellationToken`; exceeded
  budgets cancel between stages / partition completions (``DEADLINE``)
  with partial work journaled.
* **Breakers** — repeated device failures open a per-device circuit
  breaker (:mod:`repro.serve.breaker`); open devices drop out of
  multi-FPGA placement, and when a whole pool is open jobs reroute to
  the exact-CPU fallback backend (``DEGRADED``, counts still exact).
* **Recovery** — with a state directory, every accepted job is
  recorded write-ahead in a fsync'd service manifest and journaled
  per-job via :class:`~repro.runtime.journal.RunJournal`; a restarted
  server re-runs every accepted-but-unfinished job, resuming each
  journal bit-identically.

Determinism: admission, ordering, coalescing, deadline, and breaker
decisions depend only on the request trace, the configuration, and
the fault seed — never on wall clock or ``workers`` — so a replayed
trace produces the same per-job status sequence.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, TextIO

from repro.common.errors import (
    DeadlineExceededError,
    FatalDeviceError,
    ProtocolError,
    ReproError,
    ResourceExhausted,
    ServeError,
)
from repro.common.io import atomic_write_text, fsync_append, read_jsonl
from repro.experiments.harness import HarnessConfig, make_context
from repro.fpga.catalog import parse_fleet
from repro.host.multi_fpga import fleet_size
from repro.ldbc.datasets import load_dataset
from repro.ldbc.generator import LdbcDataset
from repro.ldbc.queries import get_query
from repro.runtime.context import StageCache
from repro.runtime.faults import HostFaultPlan
from repro.runtime.journal import DeviceHealthLedger
from repro.runtime.pool import PoolConfig, WorkerPool
from repro.runtime.registry import REGISTRY
from repro.obs.httpd import ObservabilityHTTPServer
from repro.obs.logs import JsonLogger
from repro.obs.registry import MetricsRegistry, serve_families
from repro.obs.slo import SloTracker
from repro.runtime.tracing import WALL, Tracer
from repro.serve.admission import AdmissionController, CostEstimator
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import (
    TERMINAL_STATUSES,
    JobRequest,
    JobResponse,
    parse_request,
)

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.jsonl"

#: Data graphs kept loaded at once (the stage cache bounds the CSTs
#: built *on* them; this bounds the graphs themselves).
DATASET_RESIDENCY = 4

@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`MatchServer`."""

    #: Backend used when a request names none.
    backend: str = "fast-share"
    #: Exact-CPU backend jobs reroute to when their device pool is
    #: breaker-open or raises :class:`FatalDeviceError`. Must be a
    #: CPU-exact backend so rerouted counts stay bit-identical.
    fallback_backend: str = "cfl"
    #: Whether rerouting to ``fallback_backend`` is allowed at all;
    #: with it off, those jobs answer ``FATAL``.
    cpu_fallback: bool = True
    #: Token-bucket capacity in estimated modeled seconds.
    capacity_s: float = 0.01
    #: Queue headroom as a fraction of capacity (see admission docs).
    queue_factor: float = 4.0
    #: Estimated modeled cost of a never-seen (backend, dataset,
    #: query) triple.
    default_cost_s: float = 0.001
    #: Consecutive device failures that open its breaker.
    breaker_threshold: int = 3
    #: Served jobs an open breaker waits before half-opening.
    breaker_cooldown: int = 8
    #: Directory for the service manifest + per-job run journals;
    #: ``None`` disables crash recovery.
    state_dir: str | None = None
    #: Persistent device-health ledger shared with standalone runs.
    health_ledger_path: str | None = None
    #: Enable request-lifecycle tracing (docs/observability.md).
    trace: bool = False
    #: Serve ``/metrics`` + ``/healthz`` over loopback HTTP while the
    #: server runs (0 = ephemeral port, ``None`` = no endpoint).
    metrics_port: int | None = None
    #: Structured JSONL event-log path (``None`` disables).
    log_json: str | None = None
    #: Per-priority modeled-latency SLO target (seconds).
    slo_target_s: float = 0.005
    #: Rolling SLO window, in requests per priority.
    slo_window: int = 256
    #: SLO error budget: allowed miss fraction of the window.
    slo_budget: float = 0.05
    #: Pipeline/device configuration every job runs under. Per-job
    #: fields (journal, resume, deadline) are overlaid on top of it;
    #: everything else — device model, faults, workers, cache bound —
    #: is the server's, uniform across jobs.
    harness: HarnessConfig = field(default_factory=HarnessConfig)


@dataclass
class ServeReport:
    """Summary of one server lifetime (returned by :meth:`run`)."""

    statuses: dict[str, int]
    responses: list[dict[str, Any]]
    admission: dict[str, int]
    queue_peak: int = 0
    recovered: int = 0
    breaker: dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.statuses.values())

    @property
    def shed_rate(self) -> float:
        return self.statuses.get("SHED", 0) / self.total if self.total else 0.0

    def p99_modeled_latency(self) -> float:
        """99th-percentile modeled seconds over OK/DEGRADED jobs."""
        done = sorted(
            r["modeled_seconds"] for r in self.responses
            if r["status"] in ("OK", "DEGRADED")
            and r.get("modeled_seconds") is not None
        )
        if not done:
            return 0.0
        index = max(0, -(-99 * len(done) // 100) - 1)  # ceil, 1-based
        return done[index]


class _LineSource:
    """Uniform pull interface over a stream or an iterable of lines.

    ``ready()`` is the interleaving hook: a real stream reports
    readability via ``select`` so the server can serve queued batches
    while input is quiet; plain iterables (tests, canned traces) are
    always ready until exhausted, which makes the trace fully drain
    before the first batch runs — the deterministic replay mode.
    """

    def __init__(self, source: TextIO | Iterable[str]) -> None:
        self._stream: TextIO | None = None
        self._iter = None
        if hasattr(source, "readline"):
            self._stream = source  # type: ignore[assignment]
        else:
            self._iter = iter(source)
        self.eof = False

    def ready(self) -> bool:
        if self.eof:
            return False
        if self._iter is not None:
            return True
        try:
            fd = self._stream.fileno()
        except (AttributeError, OSError, ValueError):
            return True  # StringIO etc.: treat as always ready
        import select

        readable, _, _ = select.select([fd], [], [], 0.0)
        return bool(readable)

    def next_line(self) -> str | None:
        """The next line, blocking if needed; ``None`` at EOF."""
        if self.eof:
            return None
        if self._iter is not None:
            try:
                return next(self._iter)
            except StopIteration:
                self.eof = True
                return None
        line = self._stream.readline()
        if line == "":
            self.eof = True
            return None
        return line


def _safe_name(job_id: str) -> str:
    """A filesystem-safe stem derived from a request id."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", job_id)[:80]


class MatchServer:
    """See the module docstring; one instance = one serving process."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        # Validate the configured backends up front: a bad name should
        # fail the server at startup (exit 8), not every request.
        try:
            REGISTRY.get(cfg.backend)
            fallback = REGISTRY.get(cfg.fallback_backend)
        except ReproError as exc:
            raise ServeError(str(exc)) from exc
        if cfg.cpu_fallback and fallback.family not in ("cpu", "reference"):
            raise ServeError(
                f"fallback backend {cfg.fallback_backend!r} is not a "
                f"CPU-exact backend (family {fallback.family!r})"
            )
        self.cache = StageCache(
            enabled=cfg.harness.stage_cache,
            max_entries=cfg.harness.cache_max_entries,
        )
        self.tracer = Tracer(enabled=cfg.trace)
        self.ledger: DeviceHealthLedger | None = None
        if cfg.health_ledger_path is not None:
            self.ledger = DeviceHealthLedger.load(cfg.health_ledger_path)
        self.breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            cooldown_jobs=cfg.breaker_cooldown,
        )
        self.admission = AdmissionController(
            capacity_s=cfg.capacity_s,
            queue_factor=cfg.queue_factor,
            estimator=CostEstimator(default_cost_s=cfg.default_cost_s),
            ledger=self.ledger,
            num_devices=self._pool_size(),
        )
        self.statuses: dict[str, int] = {s: 0 for s in TERMINAL_STATUSES}
        self.responses: list[dict[str, Any]] = []
        self.queue_peak = 0
        self.deadline_cancellations = 0
        self.breaker_reroutes = 0
        self._datasets: OrderedDict[str, LdbcDataset] = OrderedDict()
        #: (job, admission decision, reserved estimate, resume path).
        self._queue: list[tuple[JobRequest, str, float, str | None]] = []
        self._seq = 0
        self._pool: WorkerPool | None = None
        self._manifest_fd: int | None = None
        self._recovered: list[tuple[JobRequest, str | None]] = []
        # Observability plane: declared-family registry (refreshed
        # under a lock on every render, so scrape threads and the
        # serve loop never race), per-priority SLO windows, structured
        # JSONL event log, and the optional live HTTP endpoint.
        self.registry = MetricsRegistry(serve_families())
        self._metrics_lock = threading.Lock()
        self.slo = SloTracker(
            target_s=cfg.slo_target_s,
            window=cfg.slo_window,
            budget=cfg.slo_budget,
        )
        self.log = JsonLogger(cfg.log_json)
        #: Lifecycle state surfaced by ``/healthz``: ``starting`` →
        #: ``serving`` (run loop) → ``draining`` (input EOF, queue
        #: still flushing).
        self.health_state = "starting"
        self._http: ObservabilityHTTPServer | None = None
        if cfg.metrics_port is not None:
            try:
                self._http = ObservabilityHTTPServer(
                    cfg.metrics_port, self.metrics_text, self.health
                ).start()
            except OSError as exc:
                raise ServeError(
                    f"cannot bind metrics port {cfg.metrics_port}: {exc}"
                ) from exc
        if cfg.state_dir is not None:
            self._open_state_dir(Path(cfg.state_dir))

    # -- state directory / crash recovery ------------------------------

    def _open_state_dir(self, state_dir: Path) -> None:
        """Open (or recover) the service manifest; raises ServeError."""
        try:
            state_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServeError(
                f"cannot create state dir {state_dir}: {exc}"
            ) from exc
        manifest = state_dir / MANIFEST_NAME
        records: list[dict[str, Any]] = []
        if manifest.exists():
            try:
                records = read_jsonl(manifest)
            except OSError as exc:
                raise ServeError(
                    f"cannot read manifest {manifest}: {exc}"
                ) from exc
            if records:
                header = records[0]
                if (
                    header.get("type") != "manifest-header"
                    or header.get("version") != MANIFEST_VERSION
                ):
                    raise ServeError(
                        f"{manifest} is not a service manifest "
                        f"(bad header {header!r})"
                    )
        accepted: dict[str, dict[str, Any]] = {}
        finished: set[str] = set()
        for record in records[1:]:
            if record.get("type") == "job":
                accepted[record["id"]] = record
            elif record.get("type") == "done":
                finished.add(record["id"])
        for job_id, record in accepted.items():
            if job_id in finished:
                continue
            try:
                job = JobRequest.from_dict(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServeError(
                    f"manifest job record for {job_id!r} is "
                    f"malformed: {exc}"
                ) from exc
            journal = record.get("journal")
            resume: str | None = None
            if journal is not None:
                candidate = state_dir / journal
                # Resume only a journal that got far enough to be
                # replayable (header written); otherwise rerun fresh.
                if candidate.exists() and read_jsonl(candidate):
                    resume = str(candidate)
            self._recovered.append((job, resume))
        self._recovered.sort(key=lambda item: item[0].seq)
        try:
            self._manifest_fd = os.open(
                manifest,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        except OSError as exc:
            raise ServeError(
                f"cannot append to manifest {manifest}: {exc}"
            ) from exc
        if not records:
            fsync_append(
                self._manifest_fd,
                {"type": "manifest-header", "version": MANIFEST_VERSION},
            )

    def _manifest_append(self, record: dict[str, Any]) -> None:
        if self._manifest_fd is not None:
            fsync_append(self._manifest_fd, record)

    def _job_journal_name(self, job: JobRequest) -> str | None:
        if self.config.state_dir is None:
            return None
        return f"job-{job.seq:06d}-{_safe_name(job.id)}.jsonl"

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None
        if self._manifest_fd is not None:
            os.close(self._manifest_fd)
            self._manifest_fd = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.log.info("server_closed")
        self.log.close()

    @property
    def http_port(self) -> int | None:
        """Bound port of the live metrics endpoint, or ``None``."""
        return self._http.port if self._http is not None else None

    # -- admission / queueing ------------------------------------------

    def _pool_size(self) -> int:
        """Devices of the multi-FPGA pool, from the same source the
        backend reads: the harness fleet, else the shared default."""
        fleet = self.config.harness.fleet
        return fleet_size(parse_fleet(fleet) if fleet is not None else None)

    def _devices_of(self, spec) -> int:
        """Devices a backend family runs on (0 for host-only ones)."""
        if spec.family == "multi-fpga":
            return self._pool_size()
        return 1 if spec.family == "fast" else 0

    def _dataset(self, name: str) -> LdbcDataset:
        harness = self.config.harness
        if name in self._datasets:
            self._datasets.move_to_end(name)
            return self._datasets[name]
        dataset = load_dataset(
            name, use_cache=harness.use_cache, seed=harness.seed
        )
        self._datasets[name] = dataset
        while len(self._datasets) > DATASET_RESIDENCY:
            self._datasets.popitem(last=False)
        return dataset

    def _respond(self, sink: TextIO, response: JobResponse) -> None:
        self.statuses[response.status] += 1
        payload = response.to_dict()
        self.responses.append(payload)
        sink.write(response.to_json_line() + "\n")
        sink.flush()
        if self.tracer.enabled:
            self.tracer.count(f"serve_{response.status.lower()}")

    def _enqueue(
        self,
        job: JobRequest,
        decision: str,
        estimate: float,
        resume: str | None = None,
        manifest: bool = True,
    ) -> None:
        if manifest:
            record = {"type": "job", **job.to_dict()}
            journal = self._job_journal_name(job)
            if journal is not None:
                record["journal"] = journal
            self._manifest_append(record)
        self._queue.append((job, decision, estimate, resume))
        self.queue_peak = max(self.queue_peak, len(self._queue))

    def _handle_line(self, line: str, sink: TextIO) -> None:
        self._seq += 1
        try:
            job = parse_request(
                line,
                default_backend=self.config.backend,
                seq=self._seq,
            )
        except ProtocolError as exc:
            self.log.warning(
                "request_rejected",
                request_id=getattr(exc, "request_id", None),
                reason=str(exc),
            )
            self._respond(sink, JobResponse(
                id=getattr(exc, "request_id", None),
                status="FATAL",
                detail=str(exc),
            ))
            return
        decision, estimate = self.admission.decide(job)
        if decision == "shed":
            # Shed requests never complete, so they burn SLO budget
            # at their priority like any other miss.
            self.slo.observe(job.priority, None, "SHED")
            self.log.warning(
                "request_shed", request_id=job.id,
                priority=job.priority, estimate_s=estimate,
            )
            self._respond(sink, JobResponse(
                id=job.id,
                status="SHED",
                admission="shed",
                detail=(
                    f"estimated modeled cost {estimate:.9f}s exceeds "
                    f"remaining capacity"
                ),
            ))
            return
        self.log.debug(
            "request_admitted", request_id=job.id,
            decision=decision, priority=job.priority,
            estimate_s=estimate,
        )
        self._enqueue(job, decision, estimate)

    # -- batching ------------------------------------------------------

    def _take_batch(self) -> list[tuple[JobRequest, str, float, str | None]]:
        """Pop the next batch: the top-priority job plus every queued
        job sharing its ``(dataset, query)`` (they share a CST)."""
        best = max(
            self._queue, key=lambda e: (e[0].priority, -e[0].seq)
        )
        key = best[0].batch_key
        batch = [e for e in self._queue if e[0].batch_key == key]
        batch.sort(key=lambda e: (-e[0].priority, e[0].seq))
        self._queue = [e for e in self._queue if e[0].batch_key != key]
        return batch

    def _run_next_batch(self, sink: TextIO) -> None:
        batch = self._take_batch()
        dataset_name, query_name = batch[0][0].batch_key
        self.log.debug(
            "batch_start", dataset=dataset_name, query=query_name,
            jobs=[e[0].id for e in batch],
        )
        dataset = self._dataset(dataset_name)
        query = get_query(query_name)
        # Pin this batch's CST so LRU pressure from other hot datasets
        # cannot evict it between the batch's jobs. Graphs hash
        # structurally, so the pin key matches build_cst_stage's.
        cst_key = (dataset.graph, query.graph)
        self.cache.pin("cst", cst_key)
        try:
            for job, decision, estimate, resume in batch:
                self._run_job(
                    sink, job, decision, estimate, resume, dataset, query
                )
                self.breaker.job_tick()
        finally:
            self.cache.unpin("cst", cst_key)

    # -- job execution -------------------------------------------------

    def _job_config(
        self, job: JobRequest, backend: str, resume: str | None
    ) -> HarnessConfig:
        cfg = self.config
        spec = REGISTRY.get(backend)
        journal_path = None
        journal = self._job_journal_name(job)
        if journal is not None:
            journal_path = str(Path(cfg.state_dir) / journal)
        if spec.family not in ("fast", "multi-fpga"):
            # Only pipeline backends journal; CPU runs are single-stage
            # and simply rerun from scratch on recovery.
            journal_path = resume = None
        if backend != job.backend:
            # A rerouted attempt must not touch the planned backend's
            # journal: the fingerprint pins the original configuration.
            journal_path = resume = None
        return replace(
            cfg.harness,
            journal_path=journal_path,
            resume_path=resume,
            health_ledger_path=None,  # the server shares one ledger
            deadline_s=job.deadline_s,
        )

    def _shared_pool(self) -> WorkerPool | None:
        """The server's long-lived warm worker pool.

        One supervised pool spans every job and batch, so ``--workers
        N`` requests pay the worker fork once per server lifetime
        instead of once per stage, and a resident CST's shared-memory
        descriptors (in the pool's arena) are placed once and reused by
        every batch that hits the stage cache. The pool is injected
        (not owned) into each job context; crashed or stalled workers
        are respawned by the pool itself, so a batch that kills a
        worker never poisons the next one. If the pool cannot be
        created, job contexts fall back to their own (see
        :meth:`~repro.runtime.context.RunContext.ensure_pool`).
        """
        harness = self.config.harness
        if harness.workers <= 1:
            return None
        if self._pool is not None and not self._pool.closed:
            return self._pool
        host_faults = None
        if (
            harness.host_fault_seed is not None
            or harness.host_fault_rates is not None
        ):
            host_faults = HostFaultPlan(
                seed=harness.host_fault_seed or 0,
                rates=(
                    dict(harness.host_fault_rates)
                    if harness.host_fault_rates is not None else None
                ),
            )
        pool = None
        try:
            pool = WorkerPool(PoolConfig(
                workers=harness.workers,
                ttl=harness.pool_ttl,
                watchdog_s=harness.pool_watchdog_s,
                host_faults=host_faults,
            ))
            pool.ensure_workers()
        except OSError:  # fork unavailable: contexts downgrade inline
            if pool is not None:
                pool.close()
            pool = None
        self._pool = pool
        return pool

    def _make_context(self, harness_cfg: HarnessConfig):
        ctx = make_context(harness_cfg, cache=self.cache)
        if self.ledger is not None:
            ctx.health_ledger = self.ledger
        ctx.breaker = self.breaker
        pool = self._shared_pool()
        if pool is not None:
            # Injected, not owned: RunContext.ensure_pool() returns this
            # shared pool and close() leaves it running for the next
            # batch (worker_pool_owned stays False).
            ctx.worker_pool = pool
        if self.tracer.enabled:
            ctx.tracer = self.tracer
        if self.log.enabled:
            ctx.log = self.log
        return ctx

    def _breaker_reroute(self, spec) -> bool:
        """Whether ``spec`` cannot run because its devices are open."""
        devices = self._devices_of(spec)
        return devices > 0 and self.breaker.all_open(devices)

    def _feed_breaker(self, metrics: dict[str, Any]) -> None:
        """Update breakers from a finished job's health block."""
        health = metrics.get("health") or {}
        for index, status in (health.get("device_status") or {}).items():
            if status == "dead":
                self.breaker.record_failure(int(index))
            elif status == "ok":
                self.breaker.record_success(int(index))

    def _run_job(
        self,
        sink: TextIO,
        job: JobRequest,
        decision: str,
        estimate: float,
        resume: str | None,
        dataset: LdbcDataset,
        query,
    ) -> None:
        t0 = time.perf_counter()
        # Scope every span/instant emitted while this job runs —
        # including worker-pool spans merged back by the execute stage
        # — to this request, so trace-summary --request can slice it.
        self.tracer.set_request(job.id)
        try:
            self._run_job_scoped(
                sink, job, decision, estimate, resume, dataset, query,
                t0,
            )
        finally:
            self.tracer.set_request(None)

    def _run_job_scoped(
        self,
        sink: TextIO,
        job: JobRequest,
        decision: str,
        estimate: float,
        resume: str | None,
        dataset: LdbcDataset,
        query,
        t0: float,
    ) -> None:
        backend = job.backend
        degraded_reason: str | None = None
        if self._breaker_reroute(REGISTRY.get(backend)):
            if not self.config.cpu_fallback:
                self._finish_job(sink, job, estimate, JobResponse(
                    id=job.id,
                    status="FATAL",
                    backend=backend,
                    admission=decision,
                    detail="device pool breaker-open and CPU fallback "
                           "is disabled",
                ))
                return
            backend = self.config.fallback_backend
            degraded_reason = "breaker_reroute"
            self.breaker_reroutes += 1
            self.log.warning(
                "breaker_reroute", request_id=job.id,
                planned=job.backend, rerouted=backend,
            )
        attempts = [(backend, resume)]
        response: JobResponse | None = None
        while attempts:
            attempt_backend, attempt_resume = attempts.pop(0)
            spec = REGISTRY.get(attempt_backend)
            ctx = self._make_context(
                self._job_config(job, attempt_backend, attempt_resume)
            )
            try:
                out = spec.run(ctx, query.graph, dataset.graph)
            except DeadlineExceededError as exc:
                self.deadline_cancellations += 1
                self.log.warning(
                    "deadline_cancelled", request_id=job.id,
                    backend=attempt_backend, detail=str(exc),
                )
                response = JobResponse(
                    id=job.id,
                    status="DEADLINE",
                    backend=attempt_backend,
                    admission=decision,
                    detail=str(exc),
                )
            except FatalDeviceError as exc:
                for index in range(self._devices_of(spec)):
                    self.breaker.record_failure(index)
                if (
                    self.config.cpu_fallback
                    and attempt_backend != self.config.fallback_backend
                ):
                    degraded_reason = "fatal_device_fallback"
                    self.breaker_reroutes += 1
                    self.log.warning(
                        "fatal_device_fallback", request_id=job.id,
                        failed=attempt_backend,
                        rerouted=self.config.fallback_backend,
                    )
                    attempts.append((self.config.fallback_backend, None))
                else:
                    response = JobResponse(
                        id=job.id,
                        status="FATAL",
                        backend=attempt_backend,
                        admission=decision,
                        detail=str(exc),
                    )
            except ResourceExhausted as exc:
                response = JobResponse(
                    id=job.id,
                    status="FATAL",
                    backend=attempt_backend,
                    admission=decision,
                    detail=f"{exc.verdict}: {exc}",
                )
            except ReproError as exc:
                response = JobResponse(
                    id=job.id,
                    status="FATAL",
                    backend=attempt_backend,
                    admission=decision,
                    detail=str(exc),
                )
            else:
                self._feed_breaker(out.metrics)
                if out.verdict != "OK":
                    response = JobResponse(
                        id=job.id,
                        status="FATAL",
                        backend=attempt_backend,
                        admission=decision,
                        detail=f"{out.verdict}: {out.detail}",
                    )
                else:
                    degraded = out.degraded or degraded_reason is not None
                    if out.degraded and degraded_reason is None:
                        degraded_reason = "recovery_ladder"
                    self.admission.estimator.observe(job, out.seconds)
                    response = JobResponse(
                        id=job.id,
                        status="DEGRADED" if degraded else "OK",
                        embeddings=out.embeddings,
                        modeled_seconds=out.seconds,
                        backend=attempt_backend,
                        admission=decision,
                        degraded_reason=degraded_reason,
                    )
            finally:
                # Closes the job journal; a pool the job context
                # created for itself is stopped too, while the
                # server's injected shared pool is left running.
                ctx.close()
        assert response is not None
        if self.tracer.enabled:
            self.tracer.span(
                "serve/requests", f"{job.id}:{response.status}",
                t0, max(time.perf_counter() - t0, 1e-9), clock=WALL,
                dataset=job.dataset, query=job.query,
            )
        self._finish_job(sink, job, estimate, response)

    def _finish_job(
        self,
        sink: TextIO,
        job: JobRequest,
        estimate: float,
        response: JobResponse,
    ) -> None:
        self.admission.release(estimate)
        self.slo.observe(
            job.priority, response.modeled_seconds, response.status
        )
        self.log.info(
            "job_finished", request_id=job.id,
            status=response.status, backend=response.backend,
            priority=job.priority,
            modeled_seconds=response.modeled_seconds,
            embeddings=response.embeddings,
        )
        self._manifest_append({
            "type": "done",
            "id": job.id,
            "seq": job.seq,
            "status": response.status,
            "embeddings": response.embeddings,
            "modeled_seconds": response.modeled_seconds,
            "backend": response.backend,
        })
        self._respond(sink, response)

    # -- main loop -----------------------------------------------------

    def recover_pending(self) -> int:
        """Queue every accepted-but-unfinished job from the manifest.

        Called once per lifetime, before (or by) :meth:`run`.
        Recovered jobs bypass admission — they were admitted before
        the crash — but still reserve their estimates so new traffic
        sees the true backlog. Returns the number of recovered jobs.
        """
        recovered = self._recovered
        self._recovered = []
        for job, resume in recovered:
            self._seq = max(self._seq, job.seq)
            estimate = self.admission.estimator.estimate(job)
            self.admission.backlog_s += estimate
            self._enqueue(
                job, "admit", estimate, resume=resume, manifest=False
            )
        return len(recovered)

    def run(
        self,
        source: TextIO | Iterable[str],
        sink: TextIO,
    ) -> ServeReport:
        """Serve one input stream to completion and drain the queue."""
        recovered = self.recover_pending()
        self.health_state = "serving"
        self.log.info(
            "server_start", backend=self.config.backend,
            recovered=recovered,
            metrics_port=self.http_port,
        )
        lines = _LineSource(source)
        while True:
            while lines.ready():
                line = lines.next_line()
                if line is None:
                    break
                if line.strip():
                    self._handle_line(line, sink)
            if lines.eof and self.health_state == "serving":
                # Input is closed; only queued work remains. /healthz
                # flips to 503 so a balancer stops routing here.
                self.health_state = "draining"
                self.log.info(
                    "server_draining", queued=len(self._queue)
                )
            if self._queue:
                self._run_next_batch(sink)
                continue
            if lines.eof:
                break
            line = lines.next_line()  # idle: block on the next request
            if line is None:
                break
            if line.strip():
                self._handle_line(line, sink)
        if self.health_state == "serving":
            self.health_state = "draining"
        return ServeReport(
            statuses=dict(self.statuses),
            responses=list(self.responses),
            admission=dict(self.admission.decisions),
            queue_peak=self.queue_peak,
            recovered=recovered,
            breaker=self.breaker.to_dict(),
        )

    # -- exposition ----------------------------------------------------

    def metrics_text(self) -> str:
        """Service-level Prometheus exposition (docs/observability.md).

        Rendered from the declared-family registry
        (:mod:`repro.obs.registry`), refreshed under a lock on every
        call — the ``--metrics-out`` snapshot and a live ``/metrics``
        scrape are the same render and cannot drift. Validated by
        :func:`repro.runtime.tracing.validate_prometheus_text`; the
        families complement the per-run ones of
        :func:`~repro.runtime.tracing.metrics_to_prometheus`.
        """
        with self._metrics_lock:
            self._refresh_registry()
            return self.registry.render()

    def _refresh_registry(self) -> None:
        """Rebuild every ``fast_serve_*`` sample from current state.

        Refresh-style (reset + absolute ``set``) rather than
        increments: server counters are already cumulative, and one
        writer under :attr:`_metrics_lock` keeps scrapes consistent.
        """
        reg = self.registry
        reg.reset()
        for s, n in sorted(self.statuses.items()):
            reg.set("fast_serve_jobs", {"status": s}, float(n))
        for d, n in sorted(self.admission.decisions.items()):
            reg.set("fast_serve_admission_decisions",
                    {"decision": d}, float(n))
        reg.set("fast_serve_queue_depth_peak", None,
                float(self.queue_peak))
        reg.set("fast_serve_backlog_seconds", None,
                self.admission.backlog_s)
        reg.set("fast_serve_deadline_cancellations", None,
                float(self.deadline_cancellations))
        reg.set("fast_serve_breaker_reroutes", None,
                float(self.breaker_reroutes))
        for d, b in sorted(self.breaker.to_dict().items()):
            for t in ("opened", "closed", "probes"):
                reg.set("fast_serve_breaker_transitions",
                        {"device": d, "transition": t}, float(b[t]))
        for ns, stats in sorted(self.cache.stats().items()):
            for ev in ("hits", "misses", "evictions"):
                reg.set("fast_serve_cache_events",
                        {"namespace": ns, "event": ev},
                        float(stats[ev]))
        report = ServeReport(
            statuses=self.statuses,
            responses=self.responses,
            admission=self.admission.decisions,
        )
        reg.set("fast_serve_modeled_latency_p99_seconds", None,
                report.p99_modeled_latency())
        for priority, row in self.slo.snapshot().items():
            for quantile in ("p50", "p99"):
                reg.set(
                    "fast_serve_slo_latency_seconds",
                    {"priority": priority, "quantile": quantile},
                    row[f"{quantile}_modeled_latency_s"],
                )
            reg.set("fast_serve_slo_burn_rate",
                    {"priority": priority}, row["burn_rate"])
            reg.set("fast_serve_slo_window_jobs",
                    {"priority": priority}, float(row["window_jobs"]))

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` report (state + a few load indicators)."""
        return {
            "state": self.health_state,
            "jobs_done": sum(self.statuses.values()),
            "queued": len(self._queue),
        }

    def write_metrics(self, path: str | Path) -> None:
        atomic_write_text(path, self.metrics_text())

    def write_trace(self, path: str | Path) -> None:
        self.tracer.write_chrome_trace(path)
