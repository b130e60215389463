"""Cost-model bounds pass: recorded metrics vs the device cost model.

A compiled result carries its own claims — pulse count, execution
duration, EPS.  This pass recomputes each from the instruction stream
via the device's :class:`~repro.devices.cost.FPQACostModel` and flags
disagreements, so a tampered or stale artifact cannot smuggle in
optimistic numbers.  It also warns when the program's duration eats a
large fraction of the coherence window.
"""

from __future__ import annotations

import math

from ..devices.cost import cost_model_for
from ..fpqa.hardware import FPQAHardwareParams
from ..wqasm.program import WQasmProgram
from . import registry as R
from .diagnostics import Sink, SourceLocation

BOUNDS_RULES = (
    R.PULSE_COUNT_MISMATCH,
    R.DURATION_MISMATCH,
    R.EPS_MISMATCH,
    R.COHERENCE_BUDGET,
)

#: Relative tolerance for float metric comparisons: generous enough for
#: JSON round-trip noise, far below any real miscounting.
_REL_TOL = 1e-6

#: Duration beyond this fraction of T2 draws the coherence warning.  A
#: program longer than the coherence window itself cannot finish before
#: the qubits dephase; large-but-legitimate compiles stay below 1.0.
_T2_BUDGET_FRACTION = 1.0


def check_bounds(
    program: WQasmProgram,
    hardware: FPQAHardwareParams,
    expected: dict,
    sink: Sink,
) -> dict:
    """Cross-check ``expected`` metrics; return the recomputed values.

    ``expected`` may carry ``num_pulses``, ``execution_seconds`` and
    ``eps`` (the :class:`~repro.targets.result.CompilationResult`
    fields); missing or ``None`` entries are simply not compared.
    """
    location = SourceLocation()
    pulses, duration_us, eps = cost_model_for(hardware).program_cost(program)

    recorded_pulses = expected.get("num_pulses")
    if recorded_pulses is not None and recorded_pulses != pulses:
        sink(
            R.PULSE_COUNT_MISMATCH.diagnostic(
                f"result records {recorded_pulses} pulses but the instruction "
                f"stream contains {pulses}",
                location=location,
            )
        )
    recorded_seconds = expected.get("execution_seconds")
    if recorded_seconds is not None and not math.isclose(
        recorded_seconds, duration_us * 1e-6, rel_tol=_REL_TOL, abs_tol=1e-12
    ):
        sink(
            R.DURATION_MISMATCH.diagnostic(
                f"result records {recorded_seconds * 1e6:.3f} us execution but "
                f"the cost model derives {duration_us:.3f} us",
                location=location,
            )
        )
    recorded_eps = expected.get("eps")
    if recorded_eps is not None and not math.isclose(
        recorded_eps, eps, rel_tol=_REL_TOL, abs_tol=1e-300
    ):
        sink(
            R.EPS_MISMATCH.diagnostic(
                f"result records EPS {recorded_eps:.6g} but the cost model "
                f"derives {eps:.6g}",
                location=location,
            )
        )
    if duration_us > _T2_BUDGET_FRACTION * hardware.t2_us:
        sink(
            R.COHERENCE_BUDGET.diagnostic(
                f"program duration {duration_us:.1f} us exceeds "
                f"{_T2_BUDGET_FRACTION:.0%} of the device T2 "
                f"({hardware.t2_us:.0f} us); the program cannot finish "
                "inside the coherence window",
                location=location,
            )
        )
    return {
        "total_pulses": pulses,
        "duration_us": duration_us,
        "eps": eps,
    }
