"""The device-aware built-in targets: Weaver's FPQA path and the
superconducting path.

* :class:`FPQATarget` — the real Weaver pipeline (wOptimizer passes plus
  code generation), the paper's FPQA path.  ``fpqa-nocompress`` is the
  same target with 3-qubit gate compression forced off (Figure 10c's
  ablation).
* :class:`SuperconductingTarget` — the Qiskit-style transpiler path onto
  the 127-qubit heavy-hex backend.  The only target that consumes raw
  circuit workloads as well as formulas.

The comparison compilers (Atomique, Geyser, DPQA) are targets too; each
lives beside its algorithm in :mod:`repro.baselines`.
"""

from __future__ import annotations

from ..devices.cost import cost_model_for
from ..devices.profile import DeviceProfile
from ..devices.registry import resolve_device
from ..exceptions import RoutingError, TargetError
from ..fpqa.hardware import FPQAHardwareParams
from ..qaoa.builder import QaoaParameters
from .base import (
    CAP_CIRCUIT,
    CAP_FORMULA,
    CAP_VERIFY,
    CAP_WQASM,
    Deadline,
    Target,
    reject_unknown_options,
)
from .result import CompilationResult
from .workload import Workload


def _resolve_profile(
    target: str, device: str | DeviceProfile, kind: str
) -> DeviceProfile:
    """Look up ``device`` and insist it matches the target's hardware kind."""
    profile = resolve_device(device)
    if profile.kind != kind:
        raise TargetError(
            f"target {target!r} needs a {kind} device profile; "
            f"{profile.name!r} is {profile.kind}"
        )
    return profile


class FPQATarget(Target):
    """Weaver's FPQA path: clause coloring -> shuttling -> compression."""

    name = "fpqa"
    description = "Weaver wOptimizer: zoned FPQA with CCZ gate compression"
    capabilities = frozenset({CAP_FORMULA, CAP_WQASM, CAP_VERIFY})
    default_pipeline = (
        "clause-coloring",
        "zone-layout",
        "color-shuttling",
        "gate-compression",
        "codegen",
    )

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        compression: bool | None = None,
        coloring_algorithm: str = "dsatur",
        device: str | DeviceProfile | None = None,
        **unknown,
    ):
        reject_unknown_options(self.name, unknown)
        self.profile: DeviceProfile | None = None
        if device is not None:
            if hardware is not None:
                raise TargetError(
                    f"target {self.name!r}: pass either hardware= or "
                    "device=, not both"
                )
            self.profile = _resolve_profile(self.name, device, "fpqa")
            hardware = self.profile.hardware
        self.hardware = hardware or FPQAHardwareParams()
        self.device_name = self.profile.name if self.profile else None
        self.compression = compression
        self.coloring_algorithm = coloring_algorithm

    def run(
        self,
        workload: Workload,
        parameters: QaoaParameters | None,
        deadline: Deadline | None,
        measure: bool = True,
        compression: bool | None = None,
        **options,
    ) -> CompilationResult:
        from ..passes.woptimizer import FPQACompiler

        formula = workload.require_formula(self.name)
        if (
            self.profile is not None
            and self.profile.max_qubits is not None
            and formula.num_vars > self.profile.max_qubits
        ):
            raise RoutingError(
                f"{formula.num_vars} qubits exceed device "
                f"{self.profile.name!r} capacity of {self.profile.max_qubits} atoms"
            )
        coloring_algorithm = options.pop("coloring_algorithm", self.coloring_algorithm)
        reject_unknown_options(self.name, options)
        compiler = FPQACompiler(
            hardware=self.hardware,
            compression=compression if compression is not None else self.compression,
            coloring_algorithm=coloring_algorithm,
        )
        result = compiler.compile(formula, parameters or QaoaParameters(), measure=measure)
        if deadline is not None:
            deadline.check()
        program = result.program
        cost = cost_model_for(self.hardware).program_cost(program)
        return CompilationResult(
            target=self.name,
            workload=workload.name,
            num_qubits=formula.num_vars,
            num_clauses=formula.num_clauses,
            compile_seconds=result.compile_seconds,
            execution_seconds=cost.duration_us * 1e-6,
            eps=cost.eps,
            num_pulses=cost.total_pulses,
            program=program,
            native_circuit=result.native_circuit,
            stats=dict(result.stats),
            profile=result.profile,
            device=self.device_name,
            device_profile=self.profile.to_dict() if self.profile else None,
        )


class NoCompressFPQATarget(FPQATarget):
    """The compression ablation as a first-class target (Fig. 10c)."""

    name = "fpqa-nocompress"
    description = "Weaver FPQA path with 3-qubit CCZ compression disabled"

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        compression: bool | None = None,
        **kw,
    ):
        # Historically a compression= option here was dropped on the
        # floor; asking this target to compress is a user error.
        if compression:
            raise TargetError(
                "target 'fpqa-nocompress' forces compression off; use "
                "target 'fpqa' to compile with compression"
            )
        super().__init__(hardware=hardware, compression=False, **kw)

    def run(self, workload, parameters, deadline, compression=None, **options):
        if compression:
            raise TargetError(
                "target 'fpqa-nocompress' forces compression off; use "
                "target 'fpqa' to compile with compression"
            )
        return super().run(
            workload, parameters, deadline, compression=False, **options
        )


class SuperconductingTarget(Target):
    """SABRE routing onto a Washington-like 127-qubit heavy-hex device."""

    name = "superconducting"
    description = "Qiskit-style transpile to a 127-qubit heavy-hex backend"
    capabilities = frozenset({CAP_FORMULA, CAP_CIRCUIT})
    default_pipeline = ("qaoa-lowering", "basis-translation", "sabre-routing")

    def __init__(
        self,
        backend=None,
        seed: int = 0,
        device: str | DeviceProfile | None = None,
        **unknown,
    ):
        from ..superconducting.backend import washington_backend

        reject_unknown_options(self.name, unknown)
        self.profile: DeviceProfile | None = None
        if device is not None:
            if backend is not None:
                raise TargetError(
                    f"target {self.name!r}: pass either backend= or "
                    "device=, not both"
                )
            self.profile = _resolve_profile(self.name, device, "superconducting")
            backend = self.profile.backend
        self.backend = backend or washington_backend()
        self.device_name = self.profile.name if self.profile else None
        self.seed = seed

    def run(
        self,
        workload: Workload,
        parameters: QaoaParameters | None,
        deadline: Deadline | None,
        measure: bool = True,
        **options,
    ) -> CompilationResult:
        from ..superconducting.transpiler import SuperconductingTranspiler

        reject_unknown_options(self.name, options)
        if workload.num_qubits > self.backend.num_qubits:
            raise RoutingError(
                f"{workload.num_qubits} qubits exceed the "
                f"{self.backend.num_qubits}-qubit backend"
            )
        circuit = workload.circuit(parameters, measure=measure)
        transpiler = SuperconductingTranspiler(self.backend, seed=self.seed)
        result = transpiler.transpile(circuit)
        if deadline is not None:
            deadline.check()
        return CompilationResult(
            target=self.name,
            workload=workload.name,
            num_qubits=workload.num_qubits,
            num_clauses=workload.num_clauses,
            compile_seconds=result.compile_seconds,
            execution_seconds=result.duration_us * 1e-6,
            eps=result.eps,
            num_pulses=None,  # not a pulse-level target
            native_circuit=circuit,
            stats={
                "num_swaps": result.num_swaps,
                "counts": result.counts,
                "depth": result.circuit.depth(),
            },
            device=self.device_name,
            device_profile=self.profile.to_dict() if self.profile else None,
        )
