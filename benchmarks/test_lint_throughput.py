"""Verification throughput: wLint and the wChecker against a warm compile.

Both verification layers run on every compiled artifact, so each is
pinned as a ratio to a warm ``repro.compile`` of the same uf100 formula,
all three measured in the same process as the best of several repeats,
so the ratios are immune to host speed:

* ``weaver lint`` takes at most **0.5x** a warm compile (measured
  0.27-0.29x alone on a 2-vCPU VM and 0.19-0.38x inside full test runs,
  a >=1.3x margin);
* the wChecker's ``check_program`` takes at most **1.0x** a warm compile
  (measured 0.22-0.23x alone and 0.25-0.37x inside full test runs, a
  >=2.7x margin; a checker that converts and matches every pulse again
  reads 2.1-2.5x and fails).

The two layers are not pinned against each other: both replay the
program through the same ``FPQADevice``, the checker costs ~0.8x lint
on uf100, and what either costs is only meaningful next to the compile
it verifies.  ``BENCH_lint.json`` keeps the absolute
lint/checker numbers of earlier runs as frozen history; compile-corpus
``lint_s`` and ``check_s`` in ``BENCH_perfbench.json`` are the live
trajectory (``python -m repro.perf.bench``).
"""

from __future__ import annotations

import time

import repro
from repro.analysis import analyze_result
from repro.checker import check_program

#: The acceptance bars: lint / warm compile and check / warm compile.
MAX_LINT_RATIO = 0.5
MAX_CHECK_RATIO = 1.0

REPEATS = 3


def _best_of(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _best_ratio_to_compile(label: str, verify, bound: float, capsys) -> float:
    """Best of three (``verify`` / warm compile) ratios on uf100-01."""
    formula = repro.satlib_instance("uf100-01")
    result = repro.compile(formula, target="fpqa")
    assert verify(result), f"{label} rejected the uf100 artifact"

    # A shared CI box can stall either side mid-measurement, so the gate
    # takes the best ratio over a few attempts rather than one sample.
    best = float("inf")
    for attempt in range(3):
        compile_seconds = _best_of(lambda: repro.compile(formula, target="fpqa"))
        verify_seconds = _best_of(lambda: verify(result))
        ratio = verify_seconds / compile_seconds
        best = min(best, ratio)
        with capsys.disabled():
            print(
                f"\n[verify-throughput] uf100 ({result.num_pulses} pulses) "
                f"attempt {attempt + 1}: {label} {verify_seconds * 1e3:.1f} ms, "
                f"warm compile {compile_seconds * 1e3:.1f} ms, ratio {ratio:.2f}x"
            )
        if best <= bound:
            break
    return best


def test_lint_at_most_half_a_warm_compile_on_uf100(capsys):
    best = _best_ratio_to_compile(
        "wLint", lambda result: analyze_result(result).ok, MAX_LINT_RATIO, capsys
    )
    assert best <= MAX_LINT_RATIO, (
        f"wLint takes {best:.2f}x a warm uf100 compile (bound {MAX_LINT_RATIO}x)"
    )


def test_checker_at_most_one_warm_compile_on_uf100(capsys):
    best = _best_ratio_to_compile(
        "wChecker",
        lambda result: check_program(result.program).ok,
        MAX_CHECK_RATIO,
        capsys,
    )
    assert best <= MAX_CHECK_RATIO, (
        f"the wChecker takes {best:.2f}x a warm uf100 compile "
        f"(bound {MAX_CHECK_RATIO}x)"
    )


def test_lint_verdict_matches_checker_on_uf100():
    """Same artifact, same verdict: the speedup must not cost agreement."""
    formula = repro.satlib_instance("uf100-01")
    result = repro.compile(formula, target="fpqa")
    static = analyze_result(result)
    dynamic = check_program(result.program)
    assert static.ok and dynamic.ok
    assert static.stats["total_pulses"] == result.num_pulses
