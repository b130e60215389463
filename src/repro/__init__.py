"""Weaver: a retargetable compiler framework for FPQA quantum architectures.

Reproduction of Kirmemis et al., CGO 2025 (arXiv:2409.07870).  The public
API centers on one retargetable entrypoint backed by a target registry:

* :func:`compile` — compile any workload (CNF formula, OpenQASM file or
  circuit) for any registered target, on any registered device profile;
* :class:`CompilerSession` — batched, cached, budget-aware compilation
  (``compile_many(..., parallel=N, devices=[...])`` fans a
  workload x target x device grid across a process pool);
* :func:`available_targets` / :func:`register_target` — the backend
  registry (``fpqa``, ``fpqa-nocompress``, ``superconducting``,
  ``atomique``, ``geyser``, ``dpqa``);
* :func:`list_devices` / :func:`get_device` / :func:`register_device` —
  the device-profile registry (:mod:`repro.devices`): declarative
  machine specs with validated hardware parameters and precomputed
  noise-aware cost models;
* :class:`CompilationService` (:mod:`repro.service`) — the async,
  multi-tenant compilation server: sharded workers with
  ``(target, device)`` cache affinity, a content-addressed
  :class:`ArtifactStore`, and a JSON-lines socket front door
  (``weaver serve`` / ``weaver submit``);
* :mod:`repro.sim` — the noise-aware execution simulator closing the
  compile->run->score loop: ``repro.compile(..., simulate=...)``,
  ``result.simulate(...)``, ``weaver simulate``, and ``sim`` service
  jobs replay the *compiled artifact* shot by shot under a Monte-Carlo
  noise model derived from the device profile, returning counts,
  sampled EPS with confidence interval, and QAOA solution quality;
* :mod:`repro.analysis` — the wLint static verification layer: one
  linear abstract-interpretation pass over the compiled artifact that
  proves constraint safety (shuttle order, trap occupancy, pulse-gate
  agreement, cost bounds) without simulation —
  ``repro.compile(..., analyze=...)``, ``result.analyze()``, ``weaver
  lint``, and ``lint`` service jobs; the cheapest tier of the evidence
  ladder (lint -> wChecker -> simulate);
* :mod:`repro.telemetry` — end-to-end observability: hierarchical span
  tracing across compile, service, and sim (``weaver trace``, Chrome
  trace-event export for Perfetto), a metrics registry with
  exponential-bucket histograms (p50/p90/p99 quantiles), and Prometheus
  text exposition — off by default and nearly free when disabled.

The paper's three components remain available underneath:

* **wQasm** (paper section 4) -- :func:`parse_wqasm`, :class:`WQasmProgram`,
  and the OpenQASM front end in :mod:`repro.qasm`;
* **wOptimizer** (section 5) -- the ``"fpqa"`` target's clause-coloring,
  color-shuttling, and gate-compression passes (:mod:`repro.passes`);
* **wChecker** (section 6) -- :class:`WChecker` / :func:`check_program`.

Quickstart::

    import repro

    formula = repro.satlib_instance("uf20-01")
    result = repro.compile(formula, target="fpqa")
    report = repro.check_program(result.program)
    assert report.ok

    # Retarget: same workload, different backend.
    sc = repro.compile(formula, target="superconducting")

    # Redevice: same pipeline, different machine.
    aquila = repro.compile(formula, target="fpqa", device="aquila-256")

    # Batched throughput with budgets and caching.
    session = repro.CompilerSession(budgets={"dpqa": 60.0})
    rows = session.compile_many(
        [formula], targets=repro.available_targets(), parallel=4
    )

The pre-registry :func:`~repro.baselines.run_with_timeout` still works but
emits :class:`DeprecationWarning`.
"""

from .exceptions import (
    AnnotationError,
    CircuitError,
    ColoringError,
    CompilationError,
    CompilationTimeout,
    EquivalenceError,
    FPQAConstraintError,
    QasmSemanticError,
    QasmSyntaxError,
    RoutingError,
    SatError,
    SimulationError,
    TargetError,
    UnknownTargetError,
    VerificationError,
    WeaverError,
    WorkloadError,
)
from .circuits import (
    Gate,
    Instruction,
    QuantumCircuit,
    circuit_statevector,
    circuit_unitary,
    circuits_equivalent,
    measurement_distribution,
)
from .sat import (
    Clause,
    CnfFormula,
    formula_polynomial,
    parse_dimacs,
    random_ksat,
    satlib_instance,
    to_dimacs,
)
from .qaoa import QaoaParameters, qaoa_circuit
from .qasm import circuit_to_qasm, parse_qasm, qasm_to_circuit
from .wqasm import WQasmProgram, parse_wqasm
from .fpqa import FPQADevice, FPQAHardwareParams
from .passes import FPQACompiler, nativize_circuit
from .checker import CheckReport, WChecker, check_program
from .superconducting import SuperconductingTranspiler, washington_backend
from .metrics import program_duration_us, program_eps
from .devices import (
    DeviceProfile,
    FPQACostModel,
    cost_model_for,
    device_info,
    get_device,
    list_devices,
    register_device,
)
from .exceptions import DeviceError, DeviceSpecError, UnknownDeviceError
from .perf import format_profile_table
from .targets import (
    CompilationResult,
    CompileRequest,
    CompilerSession,
    Target,
    Workload,
    available_targets,
    coerce_workload,
    compile,
    get_target,
    register_target,
    target_info,
)

__version__ = "1.4.0"


def __getattr__(name: str):
    # The service layer (asyncio server, socket client, artifact store),
    # the execution simulator, and the static analyzer load lazily:
    # importing repro must stay cheap for one-shot compile scripts that
    # never touch them.
    if name in (
        "ArtifactStore",
        "CompilationService",
        "CompileJob",
        "ServiceClient",
        "ServiceServer",
    ):
        from . import service

        return getattr(service, name)
    if name in (
        "ExecutionResult",
        "NoiseModel",
        "StatevectorEngine",
        "simulate_circuit",
        "simulate_program",
        "simulate_result",
    ):
        from . import sim

        return getattr(sim, name)
    if name in (
        "AnalysisReport",
        "Diagnostic",
        "LintRule",
        "Severity",
        "SourceLocation",
        "analyze_circuit",
        "analyze_program",
        "analyze_result",
        "format_report",
    ):
        from . import analysis

        return getattr(analysis, name)
    if name == "telemetry":
        from . import telemetry

        return telemetry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisReport",
    "AnnotationError",
    "ArtifactStore",
    "CheckReport",
    "CircuitError",
    "Clause",
    "CnfFormula",
    "ColoringError",
    "CompilationError",
    "CompilationResult",
    "CompilationService",
    "CompilationTimeout",
    "CompileRequest",
    "CompileJob",
    "CompilerSession",
    "DeviceError",
    "DeviceProfile",
    "DeviceSpecError",
    "Diagnostic",
    "EquivalenceError",
    "ExecutionResult",
    "FPQACostModel",
    "FPQACompiler",
    "FPQAConstraintError",
    "FPQADevice",
    "FPQAHardwareParams",
    "Gate",
    "Instruction",
    "LintRule",
    "NoiseModel",
    "QaoaParameters",
    "QasmSemanticError",
    "QasmSyntaxError",
    "QuantumCircuit",
    "RoutingError",
    "SatError",
    "ServiceClient",
    "ServiceServer",
    "Severity",
    "SimulationError",
    "SourceLocation",
    "StatevectorEngine",
    "SuperconductingTranspiler",
    "Target",
    "TargetError",
    "UnknownDeviceError",
    "UnknownTargetError",
    "VerificationError",
    "WChecker",
    "WQasmProgram",
    "WeaverError",
    "Workload",
    "WorkloadError",
    "analyze_circuit",
    "analyze_program",
    "analyze_result",
    "available_targets",
    "check_program",
    "circuit_statevector",
    "circuit_to_qasm",
    "circuit_unitary",
    "circuits_equivalent",
    "coerce_workload",
    "compile",
    "cost_model_for",
    "device_info",
    "format_profile_table",
    "format_report",
    "formula_polynomial",
    "get_device",
    "get_target",
    "list_devices",
    "measurement_distribution",
    "nativize_circuit",
    "parse_dimacs",
    "parse_qasm",
    "parse_wqasm",
    "program_duration_us",
    "program_eps",
    "qaoa_circuit",
    "qasm_to_circuit",
    "random_ksat",
    "register_device",
    "register_target",
    "satlib_instance",
    "simulate_circuit",
    "simulate_program",
    "simulate_result",
    "target_info",
    "telemetry",
    "to_dimacs",
    "washington_backend",
]
