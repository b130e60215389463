"""Reference-circuit share: building the QAOA reference must stay cheap.

An FPQA compile records the reference circuit as its inputs, the formula
and the QAOA angles (:class:`repro.qaoa.QaoaReference`); the gates are
built by ``qaoa_circuit`` on the first read of ``instructions``, which
only an equivalence check at a small width makes.  The test first checks
that mechanism: a compile leaves its reference unbuilt.  The gate: on a
warm uf100-01 compile, that first read takes at most **0.20** of
``compile_seconds``, the median over five compiles.  Both numbers come
from the same result, so the share is immune to host speed.

Folding clause polynomials with ``+`` and composing separately built
cost and mixer layers measured a median share of 0.25-0.34 per attempt
(median 0.27, 8 attempts); the single-pass builder measured 0.11-0.13
(median 0.12, 9 attempts; 2-vCPU VM) while the compile still built the
reference itself.  Against the compile without it, the first read
measures 0.12-0.16 (5 attempts, same VM).  The bound keeps ~1.3x of
margin over that and sits below every compose-based attempt.  The gate
takes the best of three attempts, so one attempt slowed by a shared CI
host does not fail it.
"""

from __future__ import annotations

import statistics
import time

import repro

#: The acceptance bar: first read of the reference / compile_seconds.
MAX_SHARE = 0.20

COMPILES = 5


def _median_share(formula) -> float:
    shares = []
    for _ in range(COMPILES):
        result = repro.compile(formula, target="fpqa")
        start = time.perf_counter()
        result.native_circuit.instructions  # noqa: B018 — the lazy build
        shares.append((time.perf_counter() - start) / result.compile_seconds)
    return statistics.median(shares)


def test_reference_circuit_share_of_warm_uf100_compile(capsys):
    formula = repro.satlib_instance("uf100-01")
    result = repro.compile(formula, target="fpqa")  # warm the process
    assert result.native_circuit._instructions is None, "the compile built the reference"
    assert "reference-circuit" not in result.profile["passes"]
    best = float("inf")
    for attempt in range(3):
        share = _median_share(formula)
        best = min(best, share)
        with capsys.disabled():
            print(
                f"\n[reference-share] uf100 attempt {attempt + 1}: median "
                f"reference-circuit share {share:.3f} of {COMPILES} warm compiles"
            )
        if best <= MAX_SHARE:
            break
    assert best <= MAX_SHARE, (
        f"the reference circuit takes {best:.3f} of a warm uf100 compile "
        f"(bound {MAX_SHARE})"
    )
