"""The wChecker: end-to-end verification of compiled FPQA programs.

Three layers of evidence, from cheap/scalable to exhaustive:

1. **Per-operation check** (O(N^2 M), the complexity the paper states):
   every wQasm operation's pulses are replayed on the device simulator and
   the implied gates are matched against the logical gates the program
   recorded — Rydberg clusters must agree in membership and arity, Raman
   angles must match their logical rotations (Figure 9's three conditions).
2. **Reconstructed-vs-logical** equivalence: the circuit rebuilt purely
   from annotations is compared against the program's logical circuit.
3. **Logical-vs-reference** equivalence: the logical circuit is compared
   against the original hardware-agnostic circuit the user submitted.

Layers 2 and 3 use dense unitaries or statevector probing depending on
size (see :mod:`repro.checker.unitary_check`).

Cost: compiled programs repeat a dozen (pulse, gate) pairs across
thousands of pulses, so the per-operation layer converts and matches each
distinct pair once; above the probe limit layers 2 and 3 build no
circuit.  What remains is mostly the device replay: on uf100 a check
costs ~0.2-0.4x a warm compile and ~1-1.5x ``weaver lint``.  The
``checker.check`` telemetry span splits into ``checker.replay`` (layer 1)
and ``checker.equivalence`` (layers 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits import Instruction, QuantumCircuit
from ..circuits.gates import Gate
from ..exceptions import EquivalenceError, FPQAConstraintError, VerificationError
from ..fpqa.hardware import FPQAHardwareParams
from ..linalg import allclose_up_to_global_phase
from ..telemetry.trace import span as _span
from ..wqasm.program import WQasmProgram
from .pulse_to_gate import PulseToGateConverter
from .unitary_check import EquivalenceMethod, equivalence_check, equivalence_method


@dataclass
class CheckReport:
    """Outcome of a wChecker run."""

    ok: bool
    operations_checked: int = 0
    operation_failures: list[str] = field(default_factory=list)
    reconstructed_equivalent: bool | None = None
    reconstructed_method: EquivalenceMethod | None = None
    reference_equivalent: bool | None = None
    reference_method: EquivalenceMethod | None = None

    def raise_on_failure(self) -> None:
        if not self.ok:
            details = "; ".join(self.operation_failures[:5]) or "equivalence check failed"
            raise EquivalenceError(details)


def _gates_by_qubits(gates: tuple[Instruction, ...] | list[Instruction]):
    table: dict[tuple[int, ...], list[Instruction]] = {}
    for gate in gates:
        table.setdefault(tuple(sorted(gate.qubits)), []).append(gate)
    return table


class WChecker:
    """Verifies that FPQA annotations implement the claimed logical circuit."""

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        atol: float = 1e-7,
        max_probe_qubits: int = 16,
    ):
        """``max_probe_qubits`` bounds the expensive statevector probing in
        layers 2/3; above it the checker relies on the per-operation layer
        (the paper's O(N^2 M) check), reporting ``None`` for those layers.
        """
        self.hardware = hardware or FPQAHardwareParams()
        self.atol = atol
        self.max_probe_qubits = max_probe_qubits

    # ------------------------------------------------------------------
    def check(
        self,
        program: WQasmProgram,
        reference: QuantumCircuit | None = None,
    ) -> CheckReport:
        """Run all checker layers; see the module docstring.

        Layers 2 and 3 pick their method from the width alone; when it is
        ``TOO_LARGE`` they read no gate, so neither the reconstructed nor
        the logical circuit is built and empty circuits of the program's
        width stand in (a reference of another width still fails).
        """
        report = CheckReport(ok=True)
        compared = (
            equivalence_method(program.num_qubits, self.max_probe_qubits)
            is not EquivalenceMethod.TOO_LARGE
        )
        with _span("checker.check", qubits=program.num_qubits):
            with _span("checker.replay"):
                reconstructed = self._check_operations(program, report, compared)
            if report.operation_failures:
                report.ok = False
            with _span("checker.equivalence"):
                if compared:
                    logical = program.logical_circuit()
                else:
                    logical = QuantumCircuit(program.num_qubits, name=program.name)
                self._check_equivalence(reconstructed, logical, reference, report)
        return report

    def _check_equivalence(
        self,
        reconstructed: QuantumCircuit,
        logical: QuantumCircuit,
        reference: QuantumCircuit | None,
        report: CheckReport,
    ) -> None:
        """Layers 2 and 3: reconstructed vs logical, logical vs reference."""
        verdict, method = equivalence_check(
            reconstructed,
            logical,
            atol=self.atol,
            max_probe_qubits=self.max_probe_qubits,
        )
        report.reconstructed_equivalent = verdict
        report.reconstructed_method = method
        if verdict is False:
            report.ok = False
            report.operation_failures.append(
                "reconstructed circuit differs from the logical circuit"
            )
        if reference is not None:
            ref_verdict, ref_method = equivalence_check(
                logical,
                reference,
                atol=self.atol,
                max_probe_qubits=self.max_probe_qubits,
            )
            report.reference_equivalent = ref_verdict
            report.reference_method = ref_method
            if ref_verdict is False:
                report.ok = False
                report.operation_failures.append(
                    "logical circuit differs from the reference circuit"
                )

    # ------------------------------------------------------------------
    def _check_operations(
        self, program: WQasmProgram, report: CheckReport, build: bool
    ) -> QuantumCircuit:
        """Layer 1: per-operation pulse-to-gate agreement.

        Returns the reconstructed circuit as a byproduct; with ``build``
        false it stays empty (no later layer would read it).
        """
        converter = PulseToGateConverter(program.num_qubits, self.hardware)
        reconstructed = QuantumCircuit(
            program.num_qubits, name=f"{program.name}-reconstructed"
        )
        # (implied gate, recorded gate) -> equal up to global phase.  The
        # pairs repeat across thousands of operations; the test is pure.
        matches: dict[tuple[Gate, Gate], bool] = {}
        for instruction in program.setup:
            try:
                converter.convert(instruction)
            except (FPQAConstraintError, VerificationError) as exc:
                report.operation_failures.append(f"setup: {exc}")
                report.ok = False
                return reconstructed
        for index, operation in enumerate(program.operations):
            report.operations_checked += 1
            recovered: list[Instruction] = []
            try:
                for instruction in operation.instructions:
                    recovered.extend(converter.convert(instruction))
            except (FPQAConstraintError, VerificationError) as exc:
                report.operation_failures.append(f"op {index}: {exc}")
                continue
            if build:
                for gate in recovered:
                    reconstructed.append(gate.gate, gate.qubits)
            self._match_gates(index, recovered, operation.gates, report, matches)
        return reconstructed

    def _match_gates(
        self,
        index: int,
        recovered: list[Instruction],
        recorded: tuple[Instruction, ...],
        report: CheckReport,
        matches: dict[tuple[Gate, Gate], bool],
    ) -> None:
        """Match pulses' implied gates against the recorded logical gates."""
        got = _gates_by_qubits(recovered)
        want = _gates_by_qubits(recorded)
        if set(got) != set(want):
            report.operation_failures.append(
                f"op {index}: pulses touch qubit groups {sorted(got)} but the "
                f"logical statement claims {sorted(want)}"
            )
            return
        for qubits, want_gates in want.items():
            got_gates = got[qubits]
            if len(got_gates) != len(want_gates):
                report.operation_failures.append(
                    f"op {index}: gate count mismatch on qubits {qubits}"
                )
                continue
            for got_gate, want_gate in zip(got_gates, want_gates):
                pair = (got_gate.gate, want_gate.gate)
                same = matches.get(pair)
                if same is None:
                    same = matches[pair] = self._same_gate(*pair)
                if not same:
                    report.operation_failures.append(
                        f"op {index}: pulse on qubits {qubits} implements "
                        f"{got_gate.gate} but the statement claims {want_gate.gate}"
                    )

    def _same_gate(self, got: Gate, want: Gate) -> bool:
        """Equal up to global phase; non-unitary markers always agree."""
        if not got.is_unitary or not want.is_unitary:
            return True
        return allclose_up_to_global_phase(got.matrix(), want.matrix(), atol=self.atol)


def check_program(
    program: WQasmProgram,
    reference: QuantumCircuit | None = None,
    hardware: FPQAHardwareParams | None = None,
) -> CheckReport:
    """Convenience wrapper: build a :class:`WChecker` and run it."""
    return WChecker(hardware=hardware).check(program, reference)
