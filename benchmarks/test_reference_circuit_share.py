"""Reference-circuit share: building the QAOA reference must stay cheap.

Every FPQA compile builds the hardware-agnostic reference circuit
(``qaoa_circuit``) after codegen and records its time as the
``reference-circuit`` pass of the result's profile.  The gate: on a warm
uf100-01 compile, that pass takes at most **0.20** of
``compile_seconds``, the median over five compiles.  Both numbers come
from the same compile, so the share is immune to host speed.

Folding clause polynomials with ``+`` and composing separately built
cost and mixer layers measured a median share of 0.25-0.34 per attempt
(median 0.27, 8 attempts); the single-pass builder measures 0.11-0.13
(median 0.12, 9 attempts; 2-vCPU VM).  The bound keeps ~1.6x of margin
over the single-pass median and sits below every compose-based attempt.
The gate takes the best of three attempts, so one attempt slowed by a
shared CI host does not fail it.
"""

from __future__ import annotations

import statistics

import repro

#: The acceptance bar: reference-circuit pass / compile_seconds.
MAX_SHARE = 0.20

COMPILES = 5


def _median_share(formula) -> float:
    shares = []
    for _ in range(COMPILES):
        result = repro.compile(formula, target="fpqa")
        reference = result.profile["passes"]["reference-circuit"]["seconds"]
        shares.append(reference / result.compile_seconds)
    return statistics.median(shares)


def test_reference_circuit_share_of_warm_uf100_compile(capsys):
    formula = repro.satlib_instance("uf100-01")
    repro.compile(formula, target="fpqa")  # warm the process
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
