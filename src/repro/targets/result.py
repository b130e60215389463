"""The common result record every target returns.

:class:`CompilationResult` is the one JSON-serializable record behind
``repro.compile``, :class:`~repro.CompilerSession`, the compilation
service and the evaluation harness, so user code, the artifact store and
the paper's figures all consume the same shape regardless of backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..qasm.loader import qasm_to_circuit
from ..telemetry.trace import span as _span
from ..wqasm.program import WQasmProgram, parse_wqasm

#: Schema version stamped into serialized results; bump when the dict
#: layout changes so stale cache entries are ignored rather than misread.
RESULT_SCHEMA_VERSION = 1


def jsonify(value: Any) -> Any:
    """Best-effort conversion of metric payloads into JSON-safe values.

    Shared by every serializer in the framework (results, request keys).
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [jsonify(v) for v in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return repr(value)


_NONE = type(None)

#: The type(s) each decoded artifact field may hold.  A field that
#: holds anything else makes the artifact corrupt: ``from_dict`` raises
#: ``ValueError``, so the store purges it and counts a miss.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "target": (str,),
    "workload": (str,),
    "num_qubits": (int,),
    "num_clauses": (int, _NONE),
    "device": (str, _NONE),
    "device_profile": (dict, _NONE),
    "compile_seconds": (int, float),
    "execution_seconds": (int, float, _NONE),
    "eps": (int, float, _NONE),
    "num_pulses": (int, _NONE),
    "timed_out": (bool,),
    "error": (str, _NONE),
    "stats": (dict,),
    "profile": (dict, _NONE),
    "execution": (dict, _NONE),
    "analysis": (dict, _NONE),
    "program_wqasm": (str, _NONE),
    "native_qasm": (str, _NONE),
}

#: The value of a field an artifact leaves out, where not ``None``
#: (``stats`` defaults to a fresh dict per result).
_DEFAULTS: dict[str, Any] = {"compile_seconds": 0.0, "timed_out": False}


@dataclass
class CompilationResult:
    """One compilation of one workload for one target."""

    target: str
    workload: str
    num_qubits: int
    num_clauses: int | None = None
    #: Name of the device profile compiled for (``None`` = target default).
    device: str | None = None
    #: JSON snapshot of that profile (result provenance: a stored result
    #: reconstructs the exact machine via ``DeviceProfile.from_dict``).
    device_profile: dict | None = None
    compile_seconds: float = 0.0
    execution_seconds: float | None = None
    eps: float | None = None
    num_pulses: int | None = None
    timed_out: bool = False
    error: str | None = None
    #: The emitted wQasm program, for targets that produce one (FPQA).
    program: WQasmProgram | None = None
    #: The hardware-agnostic reference circuit, when the target builds one.
    native_circuit: Any = None
    #: Per-pass statistics and backend-specific extras.
    stats: dict = field(default_factory=dict)
    #: Per-pass / per-primitive performance profile (see
    #: :mod:`repro.perf`); ``None`` for targets without instrumentation.
    profile: dict | None = None
    #: JSON payload of a simulated execution (see :mod:`repro.sim`);
    #: populated by ``repro.compile(..., simulate=...)`` and the
    #: service's ``sim`` jobs.  Decode with ``ExecutionResult.from_dict``.
    execution: dict | None = None
    #: JSON payload of a static-analysis report (see
    #: :mod:`repro.analysis`); populated by
    #: ``repro.compile(..., analyze=...)`` and the service's ``lint``
    #: jobs.  Decode with ``AnalysisReport.from_dict``.
    analysis: dict | None = None
    cached: bool = False

    @property
    def succeeded(self) -> bool:
        return not self.timed_out and self.error is None

    # ------------------------------------------------------------------
    # JSON round trip (the artifact bytes of the session's and the
    # service's ArtifactStore)
    # ------------------------------------------------------------------
    def to_dict(self, include_program: bool = True) -> dict:
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "target": self.target,
            "workload": self.workload,
            "num_qubits": self.num_qubits,
            "num_clauses": self.num_clauses,
            "device": self.device,
            "device_profile": jsonify(self.device_profile)
            if self.device_profile is not None
            else None,
            "compile_seconds": self.compile_seconds,
            "execution_seconds": self.execution_seconds,
            "eps": self.eps,
            "num_pulses": self.num_pulses,
            "timed_out": self.timed_out,
            "error": self.error,
            "stats": jsonify(self.stats),
            "profile": jsonify(self.profile) if self.profile is not None else None,
            "execution": jsonify(self.execution)
            if self.execution is not None
            else None,
            "analysis": jsonify(self.analysis)
            if self.analysis is not None
            else None,
        }
        if include_program and self.program is not None:
            payload["program_wqasm"] = self.program.to_wqasm()
        if include_program and self.native_circuit is not None:
            # Preserve the verification reference across the cache, so a
            # disk hit can still be checked against the original circuit.
            try:
                from ..qasm import circuit_to_qasm

                payload["native_qasm"] = circuit_to_qasm(self.native_circuit)
            except Exception:  # noqa: BLE001 — cache stays usable without it
                pass
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CompilationResult":
        """The result ``payload`` encodes; ``ValueError`` for an artifact
        of another schema, with a field of the wrong type, or with a
        ``device_profile`` that is no device profile."""
        if not isinstance(payload, dict):
            raise ValueError(f"artifact holds {type(payload).__name__}, not an object")
        if payload.get("schema") != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema {payload.get('schema')!r}"
            )
        fields = {name: payload.get(name, _DEFAULTS.get(name)) for name in _FIELD_TYPES}
        fields["stats"] = payload.get("stats", {})
        for name, types in _FIELD_TYPES.items():
            value = fields[name]
            # bool is an int subclass: accept it only where bool is named.
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                expected = " or ".join(
                    "null" if kind is _NONE else kind.__name__ for kind in types
                )
                raise ValueError(
                    f"artifact field {name!r} holds {type(value).__name__}, "
                    f"not {expected}"
                )
        if fields["device_profile"] is not None:
            # A dict that is no profile would decode and fail later, in
            # ``simulate``; decoding it here makes it a store miss.
            from ..devices.profile import DeviceProfile
            from ..exceptions import DeviceSpecError

            try:
                DeviceProfile.from_dict(fields["device_profile"])
            except DeviceSpecError as exc:
                raise ValueError(f"artifact field 'device_profile': {exc}") from exc
        text = fields.pop("program_wqasm")
        native_text = fields.pop("native_qasm")
        with _span("targets.decode"):
            program = None
            if text:
                with _span("wqasm.decode"):
                    program = parse_wqasm(text, name=fields["workload"])
            native_circuit = None
            if native_text:
                with _span("qasm.decode"):
                    native_circuit = qasm_to_circuit(native_text, name=fields["workload"])
        return cls(
            **fields, program=program, native_circuit=native_circuit, cached=True
        )

    # ------------------------------------------------------------------
    # Execution views
    # ------------------------------------------------------------------
    def as_circuit(self):
        """The canonical executable circuit of this result.

        For wQasm-producing targets the circuit is reconstructed from
        the compiled *annotation stream* (pulse-to-gate replay on the
        result's device profile) — the artifact, not the logical
        circuit it claims — so simulating or inspecting it exercises
        what the compiler actually emitted.  Gate-level targets return
        their native circuit.  The returned circuit carries no
        measurements; append them if needed.

        This is the one supported way to get a circuit view of a
        result; reaching into ``repro.checker`` internals for ad-hoc
        reconstruction is deprecated.
        """
        if self.program is not None:
            from ..checker.pulse_to_gate import reconstruct_circuit

            return reconstruct_circuit(self.program, self.fpqa_hardware())
        if self.native_circuit is not None:
            return self.native_circuit
        from ..exceptions import TargetError

        raise TargetError(
            f"target {self.target!r} produced neither a wQasm program nor "
            "a circuit; there is nothing to reconstruct"
        )

    def fpqa_hardware(self):
        """The FPQA hardware parameters this result was compiled for.

        Reconstructed from the ``device_profile`` provenance; ``None``
        when the result carries no profile (target defaults apply) or
        the profile is not an FPQA machine.  Public seam for metric and
        simulator code that re-evaluates a result on its own hardware.
        """
        if self.device_profile is None:
            return None
        from ..devices.profile import KIND_FPQA, DeviceProfile

        profile = DeviceProfile.from_dict(self.device_profile)
        return profile.hardware if profile.kind == KIND_FPQA else None

    def simulate(
        self,
        shots: int = 1024,
        noise=1.0,
        seed=0,
        formula=None,
        max_trajectories: int = 8,
        profiler=None,
    ):
        """Execute this result on the noise-aware simulator.

        Returns an :class:`~repro.sim.ExecutionResult`; see
        :func:`repro.sim.simulate_result` for the parameters.  Pass the
        workload's CNF ``formula`` to get solution-quality metrics.
        This method is pure — use ``repro.compile(..., simulate=...)``
        to record the execution on the result itself.
        """
        from ..sim import simulate_result

        return simulate_result(
            self,
            shots=shots,
            noise=noise,
            seed=seed,
            formula=formula,
            max_trajectories=max_trajectories,
            profiler=profiler,
        )

    def analyze(self):
        """Statically verify this result with the wLint analyzer.

        Returns an :class:`~repro.analysis.AnalysisReport`: one linear
        pass over the compiled artifact (the pulse IR for FPQA targets,
        the circuit IR otherwise) proving constraint safety without
        simulation — the cheapest tier of the evidence ladder (lint ->
        wChecker -> simulate).  This method is pure — use
        ``repro.compile(..., analyze=...)`` to record the report on the
        result itself.
        """
        from ..analysis import analyze_result

        return analyze_result(self)
