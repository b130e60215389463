"""Performance instrumentation for the compiler hot paths.

Industrial compiler stacks (Quilc, OpenQL) treat per-pass profiling as a
first-class subsystem; this package is Weaver's equivalent.  It has two
pieces:

* :class:`Profiler` — cheap per-pass / per-primitive counters and timers
  threaded through the :class:`~repro.passes.base.PassManager` and the
  FPQA code generator.  Every compile carries one; the result surfaces it
  as ``CompilationResult.profile`` (a JSON-safe dict) and the CLI renders
  it via ``weaver compile --profile``.
* :mod:`repro.perf.bench` — the repo's one benchmark runner,
  ``python -m repro.perf.bench``: it runs every perfbench workload that
  ``BENCHMARK.json`` declares, untraced and traced, and appends their
  end-to-end and per-layer metrics to
  ``BENCH_perfbench.json`` so the repo keeps a performance trajectory.
  A speedup is read against the previous committed run: the FPQA
  compile has one code path, and the slow algorithms its fast paths
  replaced survive only as test oracles.

The package is rebased on :mod:`repro.telemetry`: with tracing enabled,
every :meth:`Profiler.add_pass` pass boundary also emits a trace span,
and :meth:`Profiler.merge_profile` folds worker-process profiles back
into a parent registry (the service's fleet-wide ``stats``).
"""

from .profile import PROFILE_SCHEMA_VERSION, Profiler, format_profile_table

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "Profiler",
    "format_profile_table",
]
