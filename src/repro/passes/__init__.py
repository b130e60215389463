"""wOptimizer: the FPQA-specific optimization pipeline (paper §5).

The pipeline has three stages, mirroring Figure 5:

1. :class:`ClauseColoringPass` — DSatur coloring of the clause conflict
   graph so same-color clauses execute in one global Rydberg stage.
2. :class:`ColorShuttlingPass` — Algorithm 2's order-preserving shuttle
   waves that move atoms between color zones without SWAP gates.
3. :class:`GateCompressionPass` — per-clause 3-qubit gate compression
   (Figure 7), falling back to CNOT ladders when the CCZ fidelity makes
   compression unprofitable.

:class:`FPQACompiler` orchestrates them and emits a validated
:class:`repro.wqasm.WQasmProgram`; the unified entrypoint
``repro.compile(formula, target="fpqa")`` is the public way in.
"""

from .base import CompilationContext, CompilerPass, PassManager
from .native_synthesis import nativize_circuit
from .clause_coloring import ClauseColoringPass, ClausePlacement, ColoringResult
from .color_shuttling import ColorShuttlingPass, ShuttleWave, plan_waves
from .gate_compression import (
    FragmentSchedule,
    GateCompressionPass,
    compression_beneficial,
)
from .woptimizer import FPQACompiler, WeaverCompilationResult

__all__ = [
    "ClauseColoringPass",
    "FPQACompiler",
    "WeaverCompilationResult",
    "ClausePlacement",
    "ColorShuttlingPass",
    "ColoringResult",
    "CompilationContext",
    "CompilerPass",
    "FragmentSchedule",
    "GateCompressionPass",
    "PassManager",
    "ShuttleWave",
    "compression_beneficial",
    "nativize_circuit",
    "plan_waves",
]
