"""The asyncio compilation service: sharded workers over fair queues.

:class:`CompilationService` is the in-process engine behind ``weaver
serve``.  Submissions flow::

    submit -> artifact store probe -> in-flight dedup -> shard queue
           -> shard worker -> executor (thread/process) -> artifact store
           -> resolve futures / progress events

Sharding routes every job by its ``(target, device)`` cell
(:func:`shard_key`), so one worker repeatedly compiles for the same
backend and its warm per-process caches — device cost models, Rydberg
cluster geometry, clause-matrix memos — keep paying off.  Every job
carries one :class:`~repro.targets.request.CompileRequest`, and each
shard runs it on its own :class:`~repro.targets.executor.Executor`, the
executor core ``compile_many`` drives too: a service job and a session
cell are one unit of work, under one content key, on one code path.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from typing import Callable, Iterable, Sequence

from ..exceptions import TargetError, WeaverError
from ..perf import Profiler
from ..targets.artifacts import ArtifactStore
from ..targets.executor import Executor
from ..targets.registry import canonical_target_table
from ..targets.request import CompileRequest
from ..targets.result import CompilationResult
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import SpanContext, current_context, current_tracer, span_context
from ..telemetry.trace import span as _span
from .jobs import CompileJob, FairQueue, JobStatus
from .resilience import (
    ChaosPolicy,
    JobJournal,
    RetryPolicy,
    ServiceOverloaded,
    WorkerCrashed,
)

def shard_key(target: str, device: str | None = None) -> str:
    """The cache-affinity key of a (target, device name) cell.

    Jobs with equal shard keys are guaranteed to run on the same worker
    (for a fixed shard count), so everything a backend memoizes —
    cost models, zone plans, clause matrices — is reused across them.
    """
    return f"{target}@{device or ''}"


def _shard_of(key: str, shards: int) -> int:
    # sha256 rather than hash(): stable across processes and runs (no
    # PYTHONHASHSEED dependence), so routing is reproducible; crc32 of
    # the short registry names clusters badly at small shard counts.
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class CompilationService:
    """A long-lived, multi-tenant, cached compilation server.

    Parameters
    ----------
    shards:
        Number of worker queues/executors.  Each shard owns one
        single-worker executor, so at most ``shards`` compilations run
        concurrently and a given ``(target, device)`` cell always lands
        on the same shard.
    backend:
        ``"thread"`` (default: cheap on small boxes), ``"process"``
        (true parallelism on multi-core machines, one warm interpreter
        per shard), or ``"inline"`` (run on the event loop; tests).
    store:
        The :class:`ArtifactStore` to serve repeats from; a fresh
        in-memory store by default.
    budgets:
        Per-target compile budgets in seconds (the session contract);
        a job's own ``timeout`` overrides its target's entry.
    parameters / target_options:
        Session-wide QAOA angles and per-target factory options, applied
        to every job.
    max_tracked_jobs:
        Finished jobs stay queryable (``service.job(id)``, the ``jobs``
        protocol op) up to this bound; the oldest finished jobs are then
        forgotten so a long-lived server's registry cannot grow without
        limit.  Queued/running jobs are always tracked.
    journal:
        A :class:`~repro.service.JobJournal` to log lifecycle
        transitions into (``None`` disables durability).  With a journal
        wired in, :meth:`recover` replays incomplete jobs after a crash.
    retry:
        The :class:`~repro.service.RetryPolicy` governing transient
        worker failures (crash/hang); the default policy retries twice
        with exponential backoff and quarantines double-crashers.
    chaos:
        An optional :class:`~repro.service.ChaosPolicy` injecting
        seeded faults into execution and (if the store has none of its
        own) artifact disk writes — the test/benchmark harness.
    max_pending:
        Admission-control high-water mark: with this many jobs queued, a
        genuinely *new* submission (not a cache or in-flight hit) is
        shed with :class:`~repro.service.ServiceOverloaded` instead of
        queueing without bound.  ``None`` (default) never sheds.
    hang_seconds:
        Grace beyond a job's compile budget before the worker is
        declared hung: the attempt is abandoned, the shard executor
        restarted (a process worker is killed; a thread cannot be, so
        a hung thread runs on and its result is dropped), and the job
        retried.  ``None`` disables the deadline (inline backends block
        the loop, so it only bites on thread/process backends).
    """

    def __init__(
        self,
        shards: int = 2,
        backend: str = "thread",
        store: ArtifactStore | None = None,
        budgets: dict[str, float] | None = None,
        parameters=None,
        target_options: dict[str, dict] | None = None,
        profiler: Profiler | None = None,
        metrics: MetricsRegistry | None = None,
        max_tracked_jobs: int = 1024,
        journal: JobJournal | None = None,
        retry: RetryPolicy | None = None,
        chaos: ChaosPolicy | None = None,
        max_pending: int | None = None,
        hang_seconds: float | None = None,
        max_dead_letters: int = 256,
    ):
        if shards < 1:
            raise TargetError("a service needs at least one shard")
        self.shards = shards
        self.backend = backend
        self.profiler = profiler if profiler is not None else Profiler()
        #: Latency/queue metrics (histograms with quantiles) — the
        #: structured counterpart of the flat profiler counters; the
        #: ``stats`` op surfaces its snapshot under ``"metrics"``.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = store if store is not None else ArtifactStore()
        if self.store.profiler is None:
            self.store.profiler = self.profiler
        if self.store.metrics is None:
            self.store.metrics = self.metrics
        self.budgets = canonical_target_table(budgets, "budgets")
        self.parameters = parameters
        self.target_options = {
            k: dict(v)
            for k, v in canonical_target_table(target_options, "target_options").items()
        }
        self._queues: list[FairQueue] = [FairQueue() for _ in range(shards)]
        self._cores = [
            Executor(backend, name=f"repro-shard-{shard}") for shard in range(shards)
        ]
        self._workers: list[asyncio.Task] = []
        self._inflight: dict[str, CompileJob] = {}
        self._followers: dict[str, list[CompileJob]] = {}
        self._jobs: dict[str, CompileJob] = {}
        self.max_tracked_jobs = max_tracked_jobs
        #: job ids in finish order, for bounded-registry eviction.
        self._retired: deque[str] = deque()
        self._running = False
        self._jobs_submitted = 0
        self._jobs_completed = 0
        self._per_shard_jobs = [0] * shards
        # -- resilience layer ------------------------------------------
        self.journal = journal
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        if chaos is not None and self.store.chaos is None:
            self.store.chaos = chaos
        self.max_pending = max_pending
        self.hang_seconds = hang_seconds
        #: Quarantined poison jobs, newest last (`weaver jobs --dead`).
        self.dead_letters: deque[dict] = deque(maxlen=max_dead_letters)
        self._retry_tasks: set[asyncio.Task] = set()
        #: Last time each shard worker picked up or finished a job —
        #: the supervision heartbeat `stats()` surfaces as staleness.
        self._heartbeats: list[float] = [time.monotonic()] * shards
        self._retry_count = 0
        self._shed_count = 0
        self._worker_restarts = 0
        #: Summary of the last `recover()` run (``None`` before one).
        self._recovered: dict | None = None
        #: Rolling average job latency, feeding the shed `retry_after`.
        self._latency_sum = 0.0
        self._latency_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CompilationService":
        """Spin up one worker task per shard (idempotent)."""
        if self._running:
            return self
        self._running = True
        for shard in range(self.shards):
            self._workers.append(
                asyncio.create_task(
                    self._worker(shard), name=f"repro-service-shard-{shard}"
                )
            )
        return self

    async def stop(self) -> None:
        """Cancel workers, fail pending jobs, and release executors."""
        if not self._running:
            return
        self._running = False
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        # Pending backoff sleeps would re-enqueue into a dead queue;
        # cancel them so their jobs fall through to the inflight drain.
        for task in list(self._retry_tasks):
            task.cancel()
        if self._retry_tasks:
            await asyncio.gather(*self._retry_tasks, return_exceptions=True)
            self._retry_tasks.clear()
        for queue in self._queues:
            for job in queue.drain():
                self._cancel_job(job)
        # Running jobs are still in flight (their workers were just
        # cancelled mid-attempt), as are jobs waiting out a retry backoff.
        for key in list(self._inflight):
            job = self._inflight.pop(key)
            for follower in self._followers.pop(key, []):
                self._cancel_job(follower)
            if not job.future.done():
                self._cancel_job(job)
        for core in self._cores:
            core.terminate()
        if self.journal is not None:
            # Cancelled jobs stay *incomplete* in the journal on
            # purpose: a shutdown with queued work is exactly what
            # recover() replays on the next start.
            self.journal.sync()

    async def __aenter__(self) -> "CompilationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _cancel_job(self, job: CompileJob) -> None:
        job.status = JobStatus.CANCELLED
        job.finished_at = time.monotonic()
        self.metrics.inc("service.jobs.cancelled", kind=job.kind)
        if not job.future.done():
            job.future.set_result(
                job.request.error_row("ServiceStopped: service shut down")
            )
        self._finish_span(job, "cancelled")
        self._retire(job)
        job._emit("cancelled")

    def _finish_span(self, job: CompileJob, status: str, result=None) -> None:
        """Close the job's lifecycle span, if one is open."""
        span = job.span
        if span is None:
            return
        job.span = None
        if job.trace is None:
            # Keep the id resolvable after the span closes (the `done`
            # protocol event echoes it for client-side correlation).
            job.trace = span_context(span)
        span.set_attribute("status", status)
        span.set_attribute("from_cache", job.from_cache)
        if result is not None and result.error is not None:
            span.set_attribute("error", result.error)
        span.finish(end=job.finished_at)

    def _retire(self, job: CompileJob) -> None:
        """Bound the job registry: forget the oldest finished jobs."""
        self._retired.append(job.job_id)
        while len(self._retired) > self.max_tracked_jobs:
            self._jobs.pop(self._retired.popleft(), None)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        workload,
        target: str = "fpqa",
        device=None,
        client: str = "default",
        priority: int = 0,
        timeout: float | None = None,
        simulate=None,
        analyze=None,
        on_progress: Callable[[CompileJob, str], None] | None = None,
        trace: dict | None = None,
        **options,
    ) -> CompileJob:
        """Queue one compilation and return its (awaitable) job.

        The arguments become one :class:`CompileRequest` under the
        service's parameters, budgets and target options (see
        :meth:`submit_request`).  ``priority`` sorts ascending (0 before
        1); ``timeout`` is this job's compile budget in seconds.

        ``simulate`` (``True`` or an options dict with ``shots``,
        ``noise``, ``seed``, ``max_trajectories``) makes this a ``sim``
        job: the worker compiles *and* executes the artifact on the
        noise-aware simulator, and the stored artifact — content-
        addressed by program + noise + seed + shots — carries the
        execution payload on ``result.execution``.

        ``analyze`` (``True``, ``{}`` or an options dict) makes this a
        ``lint`` job: the worker statically verifies the compiled
        artifact with the wLint analyzer (:mod:`repro.analysis`) and the
        stored artifact carries the report on ``result.analysis``.  Lint
        timing accrues under the ``service.lint.<target>`` perf counters.
        """
        request = CompileRequest.under(
            self, workload, target, timeout=timeout,
            device=device, options=options, simulate=simulate, analyze=analyze,
        )
        return await self.submit_request(
            request, client=client, priority=priority,
            on_progress=on_progress, trace=trace,
        )

    async def submit_request(
        self,
        request: CompileRequest,
        client: str = "default",
        priority: int = 0,
        on_progress: Callable[[CompileJob, str], None] | None = None,
        trace: dict | None = None,
        journal_id: str | None = None,
    ) -> CompileJob:
        """Queue one request (the socket server and :meth:`recover` enter
        here with requests rebuilt by :meth:`CompileRequest.from_wire`).

        ``trace`` is an optional client span context
        (:func:`repro.telemetry.current_context`): when server-side
        tracing is on, this job's spans parent on it, so client and
        server stitch into one trace.

        The call returns as soon as the job is routed: instantly with a
        finished job on an artifact-store hit, otherwise after enqueuing
        on the cell's shard.

        ``journal_id`` is internal: :meth:`recover` passes the original
        journal id so a replayed job keeps its identity (and is not
        re-recorded or shed).  With ``max_pending`` configured, a brand
        new submission past the high-water mark raises
        :class:`~repro.service.ServiceOverloaded` with a ``retry_after``
        hint; cache and in-flight hits are never shed (they cost no
        queue slot).
        """
        if not self._running:
            raise TargetError("service is not running; use `async with` or start()")
        key = request.key
        if (
            self.max_pending is not None
            and journal_id is None
            and self._queue_depth() >= self.max_pending
            and key not in self._inflight
            and key not in self.store
        ):
            # Shed only work that would consume a queue slot; hits and
            # followers are answered from state the service already has.
            self._shed_count += 1
            self.metrics.inc("service.shed")
            raise ServiceOverloaded(self._retry_after(), depth=self._queue_depth())
        job = CompileJob(
            request=request,
            client=client,
            priority=priority,
            shard=_shard_of(shard_key(request.target, request.device_name), self.shards),
            trace=trace if isinstance(trace, dict) else None,
            on_progress=on_progress,
        )
        self._jobs[job.job_id] = job
        self._jobs_submitted += 1
        self.metrics.inc("service.jobs.submitted", kind=job.kind, target=request.target)
        if self.journal is not None:
            job.journal_id = journal_id or self.journal.next_id()
            if journal_id is None:
                # Recovered jobs were compacted back in under their own
                # ids; re-recording them would double-count on replay.
                self.journal.record_submitted(job)
        tracer = current_tracer()
        if tracer is not None:
            # The job span stays open across the whole lifecycle
            # (explicitly managed — an asyncio service has no single
            # ambient context); closed by _finish_job/_cancel_job.
            parent = None
            if job.trace is not None and isinstance(
                job.trace.get("trace"), str
            ) and isinstance(job.trace.get("span"), str):
                parent = SpanContext(job.trace["trace"], job.trace["span"])
            job.span = tracer.start(
                f"service.job.{job.kind}",
                parent=parent,
                attributes={
                    "job": job.job_id,
                    "target": request.target,
                    "client": client,
                    "shard": job.shard,
                },
            )
        job._emit("queued")

        lookup_started = time.monotonic()
        hit = self.store.get(key)
        if tracer is not None:
            tracer.record(
                "service.artifact.lookup",
                start=lookup_started,
                parent=job.span,
                attributes={"hit": hit is not None},
            )
        if hit is not None:
            job.from_cache = True
            self._finish_job(job, hit)
            return job

        primary = self._inflight.get(key)
        if primary is not None:
            # Single-flight: an identical compilation is already queued
            # or running; this job follows it instead of recomputing.
            self.profiler.hit("service.inflight")
            job.from_cache = True
            self._followers.setdefault(key, []).append(job)
            return job
        self.profiler.miss("service.inflight")

        self._inflight[key] = job
        self._queues[job.shard].put_nowait(job)
        self.metrics.set_gauge("service.queue.depth", self._queue_depth())
        return job

    async def submit_many(
        self,
        workloads: Iterable,
        targets: str | Sequence[str] = "fpqa",
        devices: Sequence | None = None,
        client: str = "default",
        **submit_kwargs,
    ) -> list[CompileJob]:
        """Submit the (workload x target[, device]) grid, workload-major.

        The async analogue of
        :meth:`repro.CompilerSession.compile_many`: same cell order,
        jobs instead of blocking results.
        """
        target_names = [targets] if isinstance(targets, str) else list(targets)
        device_list = list(devices) if devices is not None else [None]
        jobs: list[CompileJob] = []
        for workload in workloads:
            for target in target_names:
                for device in device_list:
                    jobs.append(
                        await self.submit(
                            workload,
                            target=target,
                            device=device,
                            client=client,
                            **submit_kwargs,
                        )
                    )
        return jobs

    async def result(self, job: CompileJob) -> CompilationResult:
        """Await one job's result."""
        return await job.future

    async def gather(self, jobs: Sequence[CompileJob]) -> list[CompilationResult]:
        """Await every job, in input order."""
        return [await job.future for job in jobs]

    def job(self, job_id: str) -> CompileJob | None:
        """Look a job up by id (protocol front door)."""
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        return sum(len(queue) for queue in self._queues)

    async def _execute(self, job: CompileJob, shard: int, loop) -> CompilationResult:
        """Run one job on the shard's executor core (traced when enabled).

        With tracing on, the request carries the execute span's context;
        the core ships the worker's spans (the compile span, every pass
        span, sim phases) back by value and ingests them — the stitch
        that makes one trace cross the process boundary.
        """
        if self.chaos is not None:
            if self.chaos.roll("worker_stall"):
                self.metrics.inc("service.chaos", kind="worker_stall")
                await asyncio.sleep(self.chaos.stall_seconds)
            if self.chaos.roll("worker_crash"):
                # Raised where a real BrokenProcessPool would surface,
                # so the supervision path under test is the real one.
                self.metrics.inc("service.chaos", kind="worker_crash")
                raise WorkerCrashed(
                    f"chaos: injected worker crash on shard {shard}"
                )
        with _span("service.execute", parent=job.span, shard=shard, backend=self.backend):
            future = self._cores[shard].submit(job.request, current_context())
            # An inline run is already done: take it without yielding the loop.
            return future.result() if future.done() else await asyncio.wrap_future(future)

    def _deadline_for(self, job: CompileJob) -> float | None:
        """Wall-clock bound on one attempt, or ``None`` (no supervision).

        The compile budget already times passes out *cooperatively*
        inside the worker; the deadline adds ``hang_seconds`` of grace
        on top to catch a worker that stopped cooperating entirely.
        """
        if self.hang_seconds is None:
            return None
        return self.hang_seconds + (job.request.budget or 0.0)

    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        loop = asyncio.get_running_loop()
        while True:
            job = await queue.get()
            job.status = JobStatus.RUNNING
            job.started_at = time.monotonic()
            self._heartbeats[shard] = job.started_at
            self.metrics.set_gauge("service.queue.depth", self._queue_depth())
            # submitted_at/started_at share the tracer's monotonic
            # clock, so the wait renders as a real span retroactively.
            self.metrics.observe(
                "service.queue_wait_seconds", job.started_at - job.submitted_at
            )
            tracer = current_tracer()
            if tracer is not None and job.span is not None:
                tracer.record(
                    "service.queue.wait",
                    start=job.submitted_at,
                    end=job.started_at,
                    parent=job.span,
                    attributes={"shard": shard},
                )
            job.attempts += 1
            if self.journal is not None and job.journal_id is not None:
                self.journal.record_started(job)
            job._emit("started")
            start = time.perf_counter()
            failure_kind: str | None = None
            failure_error = ""
            deadline = self._deadline_for(job)
            try:
                # A ``None`` deadline awaits the attempt unsupervised.
                result = await asyncio.wait_for(self._execute(job, shard, loop), deadline)
            except asyncio.TimeoutError:
                # The executor stopped cooperating: abandon the attempt
                # and recycle the shard so the next job gets a live pool.
                failure_kind = "hang"
                failure_error = f"worker hung past {deadline:.3g}s deadline"
            except (WorkerCrashed, BrokenExecutor) as exc:
                failure_kind = "crash"
                failure_error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 — deterministic failure
                # Anything else is the job's own fault (bad options, a
                # buggy pass): re-running it would fail identically, so
                # it becomes an error row, never a retry.
                result = job.request.error_row(f"{type(exc).__name__}: {exc}")
            self._heartbeats[shard] = time.monotonic()
            if failure_kind is not None:
                self._restart_executor(shard)
                self._handle_transient_failure(job, failure_kind, failure_error)
                continue
            elapsed = time.perf_counter() - start
            request = job.request
            self.profiler.add(f"service.{job.kind}.{request.target}", elapsed)
            self.metrics.observe(
                "service.compile_seconds", elapsed,
                target=request.target, device=request.device_name or "-",
            )
            # The worker process (or thread) profiled its own passes,
            # primitives, and caches; fold them into the service
            # registry so `stats` reflects the whole fleet, not just
            # this process (pool-worker counters used to be dropped).
            if result.profile:
                self.profiler.merge_profile(result.profile)
            if result.execution:
                self.profiler.merge_profile(result.execution.get("profile"))
            self._per_shard_jobs[shard] += 1
            if result.error is None:
                # A disk tier needs the bytes: serialize off the loop (a
                # big program's JSON is the costly part); the store call
                # itself is bookkeeping.
                store_started = time.monotonic()
                entry = None
                if self.store.directory is not None:
                    entry = (
                        ArtifactStore.encode(result)
                        if self.backend == "inline"
                        else await loop.run_in_executor(
                            None, ArtifactStore.encode, result
                        )
                    )
                try:
                    self.store.put(job.key, result, entry=entry)
                except OSError:
                    # A failed disk write degrades the cache, not the
                    # job: the result is in hand and still delivered.
                    self.metrics.inc("service.store_errors")
                if tracer is not None and job.span is not None:
                    tracer.record(
                        "service.artifact.store",
                        start=store_started,
                        parent=job.span,
                        attributes={"bytes": len(entry or b"")},
                    )
            self._inflight.pop(job.key, None)
            followers = self._followers.pop(job.key, [])
            self._finish_job(job, result)
            for follower in followers:
                self._finish_job(follower, result)

    def _finish_job(
        self,
        job: CompileJob,
        result: CompilationResult,
        status: JobStatus = JobStatus.DONE,
    ) -> None:
        job.status = status
        job.finished_at = time.monotonic()
        if job.started_at is None:  # cache/in-flight hits never ran
            job.started_at = job.finished_at
        elapsed = job.finished_at - job.submitted_at
        if status is JobStatus.DONE:
            self._jobs_completed += 1
            self.metrics.inc(
                "service.jobs.completed", kind=job.kind, target=job.request.target
            )
            self._latency_sum += elapsed
            self._latency_count += 1
        self.metrics.observe("service.job_seconds", elapsed, kind=job.kind)
        if self.journal is not None and job.journal_id is not None:
            if status is JobStatus.DONE:
                self.journal.record_done(
                    job, error=result.error, cached=job.from_cache
                )
            elif status is JobStatus.DEAD:
                self.journal.record_dead(job, result.error or "dead letter")
        if not job.future.done():
            job.future.set_result(result)
        self._finish_span(job, status.value, result)
        self._retire(job)
        job._emit(status.value)

    # ------------------------------------------------------------------
    # Supervision: transient failures, retries, dead letters
    # ------------------------------------------------------------------
    def _restart_executor(self, shard: int) -> None:
        """Recycle a shard's executor (killing its worker) after a crash or hang."""
        self._cores[shard].terminate()
        self._worker_restarts += 1
        self.metrics.inc("service.worker.restarts")

    def _handle_transient_failure(
        self, job: CompileJob, kind: str, error: str
    ) -> None:
        """Route a crashed/hung attempt: retry with backoff, or quarantine.

        The job stays in ``_inflight`` throughout, so duplicate
        submissions keep following it rather than racing a second
        execution of the same key.
        """
        if kind == "crash":
            job.crashes += 1
        self.metrics.inc("service.failures", kind=kind)
        if self.journal is not None and job.journal_id is not None:
            self.journal.record_failed(job, kind, error)
        if self.retry.should_retry(job.attempts, job.crashes):
            self._retry_count += 1
            self.metrics.inc("service.retries", kind=kind)
            job.status = JobStatus.QUEUED
            job._emit("retrying")
            task = asyncio.create_task(
                self._requeue_later(job, self.retry.delay(job.attempts)),
                name=f"repro-service-retry-{job.job_id}",
            )
            self._retry_tasks.add(task)
            task.add_done_callback(self._retry_tasks.discard)
        else:
            self._dead_letter(job, error)

    async def _requeue_later(self, job: CompileJob, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if not self._running:
            # stop() will fail the job via the inflight drain.
            return
        self._queues[job.shard].put_nowait(job)
        self.metrics.set_gauge("service.queue.depth", self._queue_depth())

    def _dead_letter(self, job: CompileJob, error: str) -> None:
        """Quarantine a poison job: terminal error row + dead-letter record."""
        message = f"DeadLetter: {error} (after {job.attempts} attempt(s))"
        result = job.request.error_row(message)
        self.metrics.inc("service.dead_letter", kind=job.kind)
        self._inflight.pop(job.key, None)
        followers = self._followers.pop(job.key, [])
        self._finish_job(job, result, status=JobStatus.DEAD)
        for follower in followers:
            self._finish_job(follower, result, status=JobStatus.DEAD)
        self.dead_letters.append(
            {**job.describe(), "error": message, "crashes": job.crashes}
        )

    def _retry_after(self) -> float:
        """Shed-load backoff hint: roughly how long the backlog takes.

        Average observed job latency times the per-shard backlog,
        clamped to [0.1s, 30s] so a cold service still suggests
        something sane.
        """
        avg = (
            self._latency_sum / self._latency_count
            if self._latency_count
            else 0.1
        )
        backlog = max(1, self._queue_depth()) / max(1, self.shards)
        return min(30.0, max(0.1, avg * backlog))

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    async def recover(self) -> dict:
        """Replay the journal: re-enqueue every incomplete job.

        Call after :meth:`start` on a journal-backed service.  Jobs
        whose last journal event is terminal (``done``/``dead``) are
        left alone — their artifacts are already content-addressed on
        disk; everything else is resubmitted *under its original journal
        id*.  The journal is compacted first, so a crash mid-recovery
        still finds every outstanding job on the next replay.

        Returns the recovery summary (also kept in ``stats()``):
        ``records`` journaled jobs seen, ``completed``/``dead`` already
        terminal, ``recovered`` re-enqueued, ``unreplayable`` dropped
        because their payload no longer parses.
        """
        if self.journal is None:
            raise TargetError("recover() requires a journal-backed service")
        if not self._running:
            raise TargetError("start() the service before recover()")
        started = time.monotonic()
        records = self.journal.replay()
        pending = [record for record in records if not record.terminal]
        self.journal.compact(pending)
        recovered = 0
        unreplayable = 0
        for record in pending:
            try:
                await self.submit_request(
                    CompileRequest.from_wire(record.submit, self),
                    client=record.submit.get("client") or "default",
                    priority=int(record.submit.get("priority") or 0),
                    journal_id=record.journal_id,
                )
                recovered += 1
            except WeaverError:
                # A payload the current schema cannot replay (junk line
                # that still parsed, retired target); losing it loudly
                # beats wedging recovery.
                unreplayable += 1
        summary = {
            "records": len(records),
            "completed": sum(1 for r in records if r.status == "done"),
            "dead": sum(1 for r in records if r.status == "dead"),
            "recovered": recovered,
            "unreplayable": unreplayable,
        }
        self._recovered = summary
        self.metrics.inc("service.recovery.jobs", float(recovered))
        tracer = current_tracer()
        if tracer is not None:
            tracer.record("service.recovery", start=started, attributes=summary)
        return summary

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters: jobs, shards, artifacts, and the profile."""
        now = time.monotonic()
        return {
            "running": self._running,
            "shards": self.shards,
            "backend": self.backend,
            "jobs_submitted": self._jobs_submitted,
            "jobs_completed": self._jobs_completed,
            "jobs_pending": sum(len(queue) for queue in self._queues),
            "jobs_per_shard": list(self._per_shard_jobs),
            "artifacts": self.store.stats(),
            "resilience": {
                "retries": self._retry_count,
                "dead_letters": len(self.dead_letters),
                "shed": self._shed_count,
                "worker_restarts": self._worker_restarts,
                "recovered": self._recovered,
                "heartbeat_seconds": [
                    round(now - beat, 6) for beat in self._heartbeats
                ],
                "journal": self.journal.stats() if self.journal else None,
                "chaos": self.chaos.describe() if self.chaos else None,
            },
            "profile": self.profiler.profile(),
            "metrics": self.metrics.to_dict(),
        }
