"""The one executor core: run compile requests inline, on threads or in processes.

``CompilerSession.compile_many`` (inline, or a per-call process pool)
and each :class:`~repro.service.CompilationService` shard (one
single-worker executor) run their requests on an :class:`Executor`.  It
owns the pool, traced dispatch and ending a pool; what a dead or hung
worker means stays with the caller.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterator

from ..exceptions import TargetError
from ..telemetry.trace import Tracer, adopt_context, current_tracer, pop_tracer, push_tracer
from .request import CompileRequest, run_request
from .result import CompilationResult

BACKENDS = ("thread", "process", "inline")


def traced_run_request(
    payload: tuple[dict | None, CompileRequest],
) -> tuple[CompilationResult, list[dict]]:
    """:func:`run_request` for ``payload = (ctx, request)``, returning its spans.

    The worker records its spans under the submitter's span context
    ``ctx`` and ships them back by value: how one trace crosses a process.
    """
    ctx, request = payload
    tracer = Tracer()
    token = push_tracer(tracer)
    try:
        with adopt_context(ctx):
            result = run_request(request)
    finally:
        pop_tracer(token)
    return result, tracer.export()


class Executor:
    """Runs :class:`CompileRequest` s on one of :data:`BACKENDS`.

    ``"inline"`` runs a request in the caller, at submit time; the pool
    backends run it on ``workers`` threads or processes (a process per
    CPU at most: compiles are CPU-bound, and a worker sharing a CPU
    would spend its wall-clock budget waiting), the pool built on first
    use and again after :meth:`terminate`.  A ``with`` block is
    one batch.  Its process workers fork a frozen heap (:func:`gc.freeze`),
    so their collectors never walk, and so copy, the pages they share;
    the caller's collector is off until the block ends (a worker's is
    on), since all the caller does meanwhile is unpickle result rows,
    which hold no garbage cycles.
    Leaving the block waits for running requests, or terminates them if
    it raised.
    """

    def __init__(
        self, backend: str = "process", workers: int = 1, name: str = "repro-executor"
    ) -> None:
        if backend not in BACKENDS:
            raise TargetError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        self.backend = backend
        self.workers = min(workers, _available_cpus()) if backend == "process" else workers
        self.name = name
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._collecting = True

    def submit(self, request: CompileRequest, ctx: dict | None = None) -> Future:
        """Run ``request``; the future resolves to its result row.

        Given a span context ``ctx`` while tracing is on, the worker's
        spans are ingested into this side's tracer.  A process worker
        that dies fails the future with ``BrokenProcessPool``.
        """
        tracer = current_tracer() if ctx is not None else None
        if tracer is None:
            return self._dispatch(run_request, request)
        future: Future = Future()

        def settle(traced: Future) -> None:
            if not future.set_running_or_notify_cancel():
                return  # the caller gave up on it (a hang deadline)
            try:
                result, spans = traced.result()
            except Exception as exc:  # noqa: BLE001 — a dead worker, a cancelled request
                future.set_exception(exc)
                return
            tracer.ingest(spans)
            future.set_result(result)

        self._dispatch(traced_run_request, (ctx, request)).add_done_callback(settle)
        return future

    def run_all(
        self, requests: list[CompileRequest], ctx: dict | None = None
    ) -> Iterator[tuple[int, Future]]:
        """Run ``requests``; yield ``(position, future)`` as each finishes.

        Inline requests run one at a time as the caller iterates, so the
        caller can keep each row before the next one starts.
        """
        if self.backend == "inline":
            return ((i, self.submit(request, ctx)) for i, request in enumerate(requests))
        futures = {self.submit(request, ctx): i for i, request in enumerate(requests)}
        return ((futures[future], future) for future in as_completed(futures))

    def _dispatch(self, fn: Callable[[Any], Any], arg: Any) -> Future:
        if self.backend != "inline":
            if self._pool is None:
                self._pool = (
                    ThreadPoolExecutor(self.workers, thread_name_prefix=self.name)
                    if self.backend == "thread"
                    else ProcessPoolExecutor(self.workers, initializer=gc.enable)
                )
            return self._pool.submit(fn, arg)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(arg))
        except Exception as exc:  # noqa: BLE001 — surfaced through the future
            future.set_exception(exc)
        return future

    def terminate(self) -> None:
        """End the pool now: cancel queued requests, kill running ones.

        ``shutdown(wait=False)`` leaves a busy process worker running
        (Python 3.14 adds ``terminate_workers``), so it is killed here.
        A thread cannot be killed: a hung one runs on, its result dropped.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.kill()
            process.join(5.0)

    def __enter__(self) -> "Executor":
        if self.backend == "process":
            self._collecting = gc.isenabled()
            gc.disable()
            gc.freeze()
        return self

    def __exit__(self, exc_type: type[BaseException] | None, *exc_info: object) -> None:
        try:
            if exc_type is not None:
                self.terminate()
            elif self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        finally:
            if self.backend == "process":
                gc.unfreeze()
                if self._collecting:
                    gc.enable()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
