"""Artifact decode throughput: loading a result must not cost a recompile.

Every disk-cache hit, journal replay, socket reply and ``weaver
lint/check file.wqasm`` decodes wQasm text, so the front end is a hot
path.  The gate: on uf100, ``CompilationResult.from_dict(json.loads(...))``
takes at most **1.0x** a warm ``repro.compile`` of the same formula,
both measured in the same process as the best of several repeats, so the
ratio is immune to host speed.

The character-at-a-time lexer and token-list parser measured ~4.2x, and
the regex scanner alone 1.07-1.78x per attempt (median 1.38x, 16
attempts).  Decoding each distinct statement text once per call measures
0.56-1.08x per attempt, median 0.73x (2-vCPU VM, 22 attempts, one above
1.0).  The bound keeps ~1.4x of margin over that median; the gate takes
the best of three attempts, so one slow attempt on a shared CI host does
not fail it, and a return to the scanner alone does.
"""

from __future__ import annotations

import json
import time

import repro
from repro.targets.result import CompilationResult

#: The acceptance bar: decode / warm compile.
MAX_RATIO = 1.0

REPEATS = 3


def _best_of(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_decode_at_most_1x_warm_compile_on_uf100(capsys):
    formula = repro.satlib_instance("uf100-01")
    result = repro.compile(formula, target="fpqa")
    text = json.dumps(result.to_dict())
    decoded = CompilationResult.from_dict(json.loads(text))
    assert decoded.to_dict()["program_wqasm"] == result.to_dict()["program_wqasm"]

    # A shared CI box can stall either side mid-measurement, so the gate
    # takes the best ratio over a few attempts rather than one sample.
    best = float("inf")
    for attempt in range(3):
        compile_seconds = _best_of(lambda: repro.compile(formula, target="fpqa"))
        decode_seconds = _best_of(lambda: CompilationResult.from_dict(json.loads(text)))
        ratio = decode_seconds / compile_seconds
        best = min(best, ratio)
        with capsys.disabled():
            print(
                f"\n[decode-throughput] uf100 ({len(text) / 1e3:.0f} KB) "
                f"attempt {attempt + 1}: decode {decode_seconds * 1e3:.1f} ms, "
                f"warm compile {compile_seconds * 1e3:.1f} ms, ratio {ratio:.2f}x"
            )
        if best <= MAX_RATIO:
            break
    assert best <= MAX_RATIO, (
        f"decoding a uf100 result takes {best:.2f}x a warm compile "
        f"(bound {MAX_RATIO}x; last decode {decode_seconds:.3f}s "
        f"vs compile {compile_seconds:.3f}s)"
    )
