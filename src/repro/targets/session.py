"""Batched compilation sessions: production-style throughput.

A :class:`CompilerSession` turns the one-shot :func:`repro.compile` call
into a service-shaped API:

* **batching** — ``compile_many(workloads, targets, parallel=N)`` fans
  the (workload x target) grid across a process pool and returns results
  in input order.  Serial or pooled, cells run on the executor core the
  service shards use too (:class:`~repro.targets.executor.Executor`);
* **per-target deadlines** — a budget table converts runaway compilers
  (Geyser/DPQA beyond 20 variables, §8.2) into ``timed_out`` rows instead
  of hung workers;
* **result caching** — one :class:`~repro.targets.artifacts.ArtifactStore`
  (memory LRU plus an optional disk tier) keyed by
  :attr:`CompileRequest.key <repro.targets.request.CompileRequest.key>`,
  so repeated sweeps re-read instead of recompile — and a session's
  ``cache_dir`` is a store directory ``weaver serve --store-dir`` can
  serve from, and the reverse.

Errors never propagate out of a session; they become result rows with
``error`` set, the contract a long-running service needs.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Iterable, Sequence

from ..perf import Profiler
from ..qaoa.builder import QaoaParameters
from ..telemetry.trace import current_context, span as _span
from .artifacts import ArtifactStore
from .executor import Executor
from .registry import canonical_target_table
from .request import CompileRequest
from .result import CompilationResult
from .workload import coerce_workload


class CompilerSession:
    """A reusable, cached, batched compilation context.

    Parameters
    ----------
    budgets:
        Per-target compile budgets in seconds, e.g. ``{"dpqa": 60.0}``.
        Targets without an entry use their own default budget.  Keys
        may be aliases (``"weaver"`` budgets ``"fpqa"``); an unknown
        name raises :class:`~repro.exceptions.TargetError`.
    parameters:
        QAOA angles applied to every compilation in the session.
    cache_dir:
        When set, successful and timed-out results are persisted as JSON
        artifacts (``<key>.json``) under this directory and reloaded on
        cache hits — sweeps resume across processes and sessions.
    target_options:
        Per-target factory options, e.g. ``{"fpqa": {"hardware": hw}}``.
    profiler:
        A :class:`repro.perf.Profiler` accumulating the session's cache
        accounting (one is created when omitted).  Every result-cache
        lookup records a hit or miss under ``session.results``, and
        batch-internal duplicate cells record under ``session.dedup`` —
        identically on the serial and process-pool paths, which the
        regression suite pins.

    Cached results are shared objects: repeat lookups return the same
    :class:`CompilationResult` instance (with ``cached`` flipped to
    ``True``), so treat results as read-only.  The 512 most recently
    used results stay in memory; older ones are re-read from
    ``cache_dir`` (or recompiled without one).
    """

    def __init__(
        self,
        budgets: dict[str, float] | None = None,
        parameters: QaoaParameters | None = None,
        cache_dir: str | Path | None = None,
        target_options: dict[str, dict] | None = None,
        profiler: Profiler | None = None,
    ):
        self.budgets = canonical_target_table(budgets, "budgets")
        self.parameters = parameters
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.target_options = {
            k: dict(v)
            for k, v in canonical_target_table(target_options, "target_options").items()
        }
        self.profiler = profiler if profiler is not None else Profiler()
        #: The session's results, keyed by :attr:`CompileRequest.key`:
        #: an LRU memory tier plus, with ``cache_dir``, the disk tier.
        self.store = ArtifactStore(directory=self.cache_dir)

    def _lookup(self, request: CompileRequest) -> CompilationResult | None:
        hit = self.store.get(request.key)
        (self.profiler.miss if hit is None else self.profiler.hit)("session.results")
        return hit

    def _keep(self, request: CompileRequest, result: CompilationResult) -> CompilationResult:
        # The store drops error rows, so a transient failure (worker
        # death, flaky env) retries on the next call instead of being
        # served back forever.
        self.store.put(request.key, result)
        return result

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        workload,
        target: str = "fpqa",
        device=None,
        simulate=None,
        analyze=None,
        **options,
    ) -> CompilationResult:
        """Compile one cell (cached; failures become result rows).

        ``simulate`` executes the compiled artifact on the noise-aware
        simulator (see :func:`repro.compile`); ``analyze`` statically
        verifies it with the wLint analyzer.  Both payloads are part of
        the cached row.
        """
        devices = None if device is None else [device]
        (result,) = self._compile_many(
            [workload], target, 1, devices, simulate, analyze, **options
        )
        return result

    def compile_many(
        self,
        workloads: Iterable,
        targets: str | Sequence[str] = "fpqa",
        parallel: int = 1,
        devices: Sequence | None = None,
        simulate=None,
        analyze=None,
        **options,
    ) -> list[CompilationResult]:
        """Compile every (workload, target[, device]) cell, in input order.

        The job list is workload-major: for each workload, every target in
        ``targets``, and — when ``devices`` is given — every device per
        target; the returned list matches that order exactly regardless
        of ``parallel``.  With ``parallel > 1`` cache misses are fanned
        across a process pool of at most ``parallel`` workers, one per
        CPU at most; hits are served without touching the pool at all.
        ``devices`` entries are registered profile names (or
        profiles); only device-aware targets (fpqa, superconducting)
        accept them — other combinations become error rows, the sweep
        contract.  ``simulate`` additionally executes every successful
        cell on the noise-aware simulator (same seed per cell, so the
        grid is reproducible), and ``analyze`` statically verifies every
        successful cell with the wLint analyzer.
        """
        with _span("session.compile_many", parallel=parallel):
            return self._compile_many(
                workloads, targets, parallel, devices, simulate, analyze,
                **options,
            )

    def _compile_many(
        self, workloads, targets, parallel, devices, simulate, analyze,
        **options,
    ) -> list[CompilationResult]:
        target_names = [targets] if isinstance(targets, str) else list(targets)
        device_list = [None] if devices is None else list(devices)
        requests = [
            CompileRequest.under(
                self, workload, target,
                device=device, options=options, simulate=simulate, analyze=analyze,
            )
            for workload in map(coerce_workload, workloads)
            for target in target_names
            for device in device_list
        ]
        results: list[CompilationResult | None] = [self._lookup(r) for r in requests]
        misses = [index for index, result in enumerate(results) if result is None]
        if not misses:
            return results  # type: ignore[return-value]

        # A batch may name the same cell twice; compile it once and fan
        # the result out.  The dedup accounting happens here — before
        # the serial/pool split — so both execution paths record
        # identical counters by construction.
        first_for_key: dict[str, int] = {}
        duplicate_of: dict[int, int] = {}
        submit: list[int] = []
        for index in misses:
            key = requests[index].key
            if key in first_for_key:
                duplicate_of[index] = first_for_key[key]
                self.profiler.hit("session.dedup")
            else:
                first_for_key[key] = index
                submit.append(index)
                self.profiler.miss("session.dedup")

        if parallel > 1 and len(submit) == 1:
            # A one-job batch skips the process pool (spinning one up
            # to run a single request only adds overhead); count the
            # bypass so the fallback is observable, not silent.
            self.profiler.add("session.pool_bypass", 0.0)
        backend = "process" if parallel > 1 and len(submit) > 1 else "inline"
        self._run(requests, submit, results, Executor(backend, min(parallel, len(submit))))
        for index, source in duplicate_of.items():
            results[index] = results[source]
        return results  # type: ignore[return-value]

    def _run(self, requests, submit, results, core: Executor) -> None:
        """Run the ``submit`` requests on ``core``, keeping each result row.

        Each row is kept as soon as it exists, so an interrupted batch
        leaves its finished cells in the store.  Requests carry the
        batch's trace context, so pool workers' spans come back parented
        on this batch's span.  A worker that dies (``os._exit``, an OOM
        kill) breaks the pool and fails every unfinished cell with it;
        each of those then runs once more alone, in its own one-worker
        process, so only a cell that kills its own worker stays an
        error row.
        """
        died = []
        with core:
            batch = [requests[index] for index in submit]
            for position, future in core.run_all(batch, current_context()):
                index = submit[position]
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 — a dead worker, a pickling error
                    result = requests[index].error_row(f"{type(exc).__name__}: {exc}")
                    if isinstance(exc, BrokenExecutor):
                        died.append(index)
                results[index] = self._keep(requests[index], result)
        if len(submit) > 1:
            for index in died:
                self._run(requests, [index], results, Executor("process"))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The session's cache accounting (see the ``profiler`` param)."""
        return self.profiler.profile()

    def clear_cache(self, disk: bool = False) -> None:
        """Drop in-memory results (and optionally the on-disk entries)."""
        self.store.clear(disk=disk)
