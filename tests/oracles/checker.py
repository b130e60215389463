"""The wChecker as it was before its memos: every pulse converted, every gate matched.

``PulseToGateConverter``, ``WChecker`` and ``equivalence_check`` are kept
unchanged except for their imports (absolute ``repro`` paths; the report
record and the method enum are the package's own, so reports compare
with ``==``).  The differential test ``test_checker_differential.py``
checks that :class:`repro.checker.WChecker` returns an equal
:class:`~repro.checker.CheckReport` on every program it covers.
"""

from __future__ import annotations

from repro.checker import CheckReport, EquivalenceMethod
from repro.circuits import (
    Instruction,
    QuantumCircuit,
    circuit_statevector,
    circuit_unitary,
)
from repro.circuits.gates import gate_matrix, make_gate, u3_from_matrix
from repro.exceptions import FPQAConstraintError, VerificationError
from repro.fpqa.device import FPQADevice
from repro.fpqa.hardware import FPQAHardwareParams
from repro.fpqa.instructions import (
    AodInit,
    BindAtom,
    FPQAInstruction,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    SlmInit,
    Transfer,
)
from repro.linalg import (
    MAX_STATEVECTOR_QUBITS,
    MAX_UNITARY_QUBITS,
    allclose_up_to_global_phase,
    random_statevector,
)
from repro.rng import as_generator
from repro.wqasm.program import WQasmProgram


def equivalence_check(
    a: QuantumCircuit,
    b: QuantumCircuit,
    atol: float = 1e-7,
    probes: int = 3,
    seed: int = 11,
    max_probe_qubits: int = MAX_STATEVECTOR_QUBITS,
) -> tuple[bool | None, EquivalenceMethod]:
    """Check functional equivalence up to global phase.

    Returns ``(verdict, method)``; verdict is ``None`` when the circuits
    exceed the affordable methods, in which case callers should rely on
    the per-operation structural check instead.  ``max_probe_qubits``
    bounds the (expensive) statevector probing; set it below
    ``MAX_UNITARY_QUBITS`` to disable probing entirely.
    """
    if a.num_qubits != b.num_qubits:
        return (False, EquivalenceMethod.UNITARY)
    n = a.num_qubits
    a = a.without_measurements()
    b = b.without_measurements()
    if n <= MAX_UNITARY_QUBITS:
        same = allclose_up_to_global_phase(
            circuit_unitary(a), circuit_unitary(b), atol=atol
        )
        return (bool(same), EquivalenceMethod.UNITARY)
    if n <= min(max_probe_qubits, MAX_STATEVECTOR_QUBITS):
        rng = as_generator(seed)
        for _ in range(probes):
            probe = random_statevector(n, rng)
            out_a = circuit_statevector(a, probe)
            out_b = circuit_statevector(b, probe)
            if not allclose_up_to_global_phase(out_a, out_b, atol=max(atol, 1e-6)):
                return (False, EquivalenceMethod.STATEVECTOR_PROBE)
        return (True, EquivalenceMethod.STATEVECTOR_PROBE)
    return (None, EquivalenceMethod.TOO_LARGE)


class PulseToGateConverter:
    """Replays FPQA instructions and emits the logical gates they imply."""

    def __init__(self, num_qubits: int, hardware: FPQAHardwareParams | None = None):
        self.num_qubits = num_qubits
        self.device = FPQADevice(hardware)

    def convert(self, instruction: FPQAInstruction) -> list[Instruction]:
        """Apply one instruction; return the logical gates it produces.

        Setup and movement instructions produce no gates but mutate the
        simulated device state; pulses produce gates.
        """
        if isinstance(instruction, RamanLocal):
            self.device.apply(instruction)
            if not 0 <= instruction.qubit < self.num_qubits:
                raise VerificationError(
                    f"Raman pulse addresses qubit {instruction.qubit} outside the program"
                )
            matrix = gate_matrix(
                "raman", (instruction.x, instruction.y, instruction.z)
            )
            return [Instruction(u3_from_matrix(matrix), (instruction.qubit,))]
        if isinstance(instruction, RamanGlobal):
            self.device.apply(instruction)
            matrix = gate_matrix(
                "raman", (instruction.x, instruction.y, instruction.z)
            )
            gate = u3_from_matrix(matrix)
            return [
                Instruction(gate, (qubit,)) for qubit in sorted(self.device.qubit_location)
            ]
        if isinstance(instruction, RydbergPulse):
            clusters = self.device.apply(instruction)
            gates = []
            for cluster in clusters:
                name = (
                    "cz"
                    if cluster.size == 2
                    else ("ccz" if cluster.size == 3 else "mcz")
                )
                gates.append(
                    Instruction(
                        make_gate(name, num_qubits=cluster.size),
                        tuple(sorted(cluster.qubits)),
                    )
                )
            return gates
        if isinstance(
            instruction, (SlmInit, AodInit, BindAtom, Transfer, Shuttle, ParallelShuttle)
        ):
            self.device.apply(instruction)
            return []
        raise VerificationError(f"unknown FPQA instruction {instruction!r}")


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
        """Run all checker layers; see the module docstring."""
        report = CheckReport(ok=True)
        reconstructed = self._check_operations(program, report)
        if report.operation_failures:
            report.ok = False
        verdict, method = equivalence_check(
            reconstructed,
            program.logical_circuit(),
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
                program.logical_circuit(),
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
        return report

    # ------------------------------------------------------------------
    def _check_operations(
        self, program: WQasmProgram, report: CheckReport
    ) -> QuantumCircuit:
        """Layer 1: per-operation pulse-to-gate agreement.

        Returns the fully reconstructed circuit as a byproduct.
        """
        converter = PulseToGateConverter(program.num_qubits, self.hardware)
        reconstructed = QuantumCircuit(
            program.num_qubits, name=f"{program.name}-reconstructed"
        )
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
            for gate in recovered:
                reconstructed.append(gate.gate, gate.qubits)
            self._match_gates(index, recovered, operation.gates, report)
        return reconstructed

    def _match_gates(
        self,
        index: int,
        recovered: list[Instruction],
        recorded: tuple[Instruction, ...],
        report: CheckReport,
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
                if not got_gate.gate.is_unitary or not want_gate.gate.is_unitary:
                    continue
                if not allclose_up_to_global_phase(
                    got_gate.gate.matrix(), want_gate.gate.matrix(), atol=self.atol
                ):
                    report.operation_failures.append(
                        f"op {index}: pulse on qubits {qubits} implements "
                        f"{got_gate.gate} but the statement claims {want_gate.gate}"
                    )
