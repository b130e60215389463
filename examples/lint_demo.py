"""wLint in action: prove a compile clean, then catch an injected bug.

The static analyzer is the cheapest rung of the evidence ladder
(lint -> wChecker -> simulate): one linear pass over the compiled
artifact, no unitary reconstruction, no execution.  This demo compiles
a SATLIB instance, shows the clean verdict, then injects a
shuttle-order fault from the mutation corpus — the kind of corruption
a codegen bug would actually produce — and shows both the static and
the dynamic tier rejecting it.

Run:  python examples/lint_demo.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.analysis import analyze_program, format_report
from repro.analysis.mutations import corrupt_shuttle_order

INSTANCE = "uf20-01"


def main() -> None:
    formula = repro.satlib_instance(INSTANCE)
    result = repro.compile(formula, target="fpqa", analyze=True)
    print(
        f"{INSTANCE}: {formula.num_vars} variables -> "
        f"{result.num_pulses} pulses\n"
    )

    # Tier 1 — static proof, recorded on the result by analyze=True.
    report = result.analyze()
    start = time.perf_counter()
    result.analyze()
    lint_ms = (time.perf_counter() - start) * 1e3
    print(f"wLint on the clean compile ({lint_ms:.1f} ms):")
    print(f"  {format_report(report)}\n")

    # Inject a fault: swap the legs of one parallel shuttle so the AOD
    # rows cross — exactly what a buggy move scheduler would emit.
    mutant = corrupt_shuttle_order(result.program)
    bad = analyze_program(mutant, hardware=result.fpqa_hardware())
    print("wLint on the shuttle-order mutant:")
    print(f"  {format_report(bad, max_findings=3)}\n")
    assert not bad.ok and bad.errors

    # Tier 2 — the dynamic wChecker agrees.  It stops at the first
    # fault, so on this mutant it takes about half the time it takes on
    # the clean compile (~10 ms on uf20-01, about what wLint takes);
    # both times are printed rather than a fixed ratio assumed.
    start = time.perf_counter()
    try:
        dynamic = repro.check_program(
            mutant,
            reference=result.native_circuit,
            hardware=result.fpqa_hardware(),
        )
        verdict = "ok" if dynamic.ok else "rejected"
    except repro.WeaverError as exc:
        verdict = f"rejected during replay ({type(exc).__name__})"
    checker_ms = (time.perf_counter() - start) * 1e3
    print(f"wChecker on the same mutant ({checker_ms:.1f} ms): {verdict}")
    print(
        f"\nSame verdict: wLint {lint_ms:.1f} ms on the clean compile, "
        f"wChecker {checker_ms:.1f} ms on the mutant "
        f"({checker_ms / max(lint_ms, 1e-9):.2f}x)."
    )


if __name__ == "__main__":
    main()
