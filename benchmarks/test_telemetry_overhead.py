"""Telemetry overhead guard: tracing must stay <5% on the compile path.

The observability layer's contract is *cheap by default*: every
instrumentation point in the compiler, the simulator, and the service
pays one ``ContextVar`` read when tracing is disabled, and even enabled
recording is append-a-dict cheap.  This gate pins that contract on the
uf100 compile — the same workload the lint and compile benchmarks key
on — by comparing warm end-to-end compile time with tracing disabled
against tracing enabled.

``BENCH_telemetry.json`` keeps the absolute numbers of earlier runs as
frozen history.  No trajectory tracks this overhead any more: perfbench
runs with ``repro.telemetry`` off, and the ``trace.ops_per_s`` in
``BENCH_perfbench.json`` measures the benchmark's own spans, not this
layer.
"""

from __future__ import annotations

import time

import repro
from repro.telemetry import configure

#: The acceptance bar: enabled/disabled wall-time ratio on uf100.
MAX_OVERHEAD_RATIO = 1.05

REPEATS = 3


def _best_of(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_tracing_overhead_under_5_percent_on_uf100(capsys):
    formula = repro.satlib_instance("uf100-01")
    repro.compile(formula, target="fpqa")  # warm every cache once

    # A shared CI box can stall either side mid-measurement, so the gate
    # takes the best ratio over a few attempts rather than one sample.
    best = float("inf")
    try:
        for attempt in range(3):
            configure(enabled=False)
            disabled = _best_of(lambda: repro.compile(formula, target="fpqa"))
            tracer = configure(enabled=True)
            enabled = _best_of(lambda: repro.compile(formula, target="fpqa"))
            spans = len(tracer.export())
            configure(enabled=False)
            ratio = enabled / disabled
            best = min(best, ratio)
            with capsys.disabled():
                print(
                    f"\n[telemetry-overhead] attempt {attempt + 1}: "
                    f"disabled {disabled * 1e3:.1f} ms, "
                    f"enabled {enabled * 1e3:.1f} ms "
                    f"(ratio {ratio:.3f}, {spans} spans/compile)"
                )
            if best <= MAX_OVERHEAD_RATIO:
                break
    finally:
        configure(enabled=False)

    assert best <= MAX_OVERHEAD_RATIO, (
        f"tracing overhead ratio {best:.3f} exceeds {MAX_OVERHEAD_RATIO} "
        "on the uf100 compile"
    )
