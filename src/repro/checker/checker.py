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
distinct pair once; it keeps implied gates as ``(gate, qubits)`` pairs and
matches the common one-pulse, one-gate operation without grouping tables.
Above the probe limit layers 2 and 3 build no circuit.  What remains is
mostly the device replay: on uf100 a check costs ~0.22x a warm compile
and ~0.8x ``weaver lint``.  The ``checker.check`` telemetry span splits
into ``checker.replay`` (layer 1) and ``checker.equivalence`` (layers 2
and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..circuits import Instruction, QuantumCircuit
from ..circuits.gates import Gate
from ..exceptions import EquivalenceError, FPQAConstraintError, VerificationError
from ..fpqa.hardware import FPQAHardwareParams
from ..linalg import allclose_up_to_global_phase
from ..telemetry.trace import span as _span
from ..wqasm.program import WQasmProgram
from .pulse_to_gate import ImpliedGate, PulseToGateConverter
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


def _groups_differ(
    index: int, got: list[tuple[int, ...]], want: list[tuple[int, ...]]
) -> str:
    return (
        f"op {index}: pulses touch qubit groups {got} but the "
        f"logical statement claims {want}"
    )


def _gates_differ(index: int, qubits: tuple[int, ...], pair: tuple[Gate, Gate]) -> str:
    return (
        f"op {index}: pulse on qubits {qubits} implements "
        f"{pair[0]} but the statement claims {pair[1]}"
    )


class WChecker:
    """Verifies that FPQA annotations implement the claimed logical circuit."""

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        atol: float = 1e-7,
        max_probe_qubits: int = 16,
    ) -> None:
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
        false it stays empty (no later layer would read it).  Implied
        gates stay ``(gate, qubits)`` pairs, and the common operation —
        one pulse implying one gate, one recorded gate — is matched
        without grouping tables.
        """
        converter = PulseToGateConverter(program.num_qubits, self.hardware)
        reconstructed = QuantumCircuit(
            program.num_qubits, name=f"{program.name}-reconstructed"
        )
        # (implied gate, recorded gate) -> equal up to global phase.  The
        # pairs repeat across thousands of operations; the test is pure.
        matches: dict[tuple[Gate, Gate], bool] = {}
        implied = converter.implied
        failures = report.operation_failures
        for instruction in program.setup:
            try:
                implied(instruction)
            except (FPQAConstraintError, VerificationError) as exc:
                failures.append(f"setup: {exc}")
                report.ok = False
                return reconstructed
        for index, operation in enumerate(program.operations):
            report.operations_checked += 1
            instructions = operation.instructions
            try:
                got = (
                    implied(instructions[0])
                    if len(instructions) == 1
                    else [gate for step in instructions for gate in implied(step)]
                )
            except (FPQAConstraintError, VerificationError) as exc:
                failures.append(f"op {index}: {exc}")
                continue
            if build:
                for gate, qubits in got:
                    reconstructed.append(gate, qubits)
            recorded = operation.gates
            if len(got) != 1 or len(recorded) != 1:
                if got or recorded:
                    self._match_gates(index, got, recorded, report, matches)
                continue
            (gate, qubits), want = got[0], recorded[0]
            claimed = tuple(sorted(want.qubits))
            if qubits != claimed:
                failures.append(_groups_differ(index, [qubits], [claimed]))
                continue
            pair = (gate, want.gate)
            same = matches.get(pair)
            if same is None:
                same = matches[pair] = self._same_gate(*pair)
            if not same:
                failures.append(_gates_differ(index, qubits, pair))
        return reconstructed

    def _match_gates(
        self,
        index: int,
        recovered: Sequence[ImpliedGate],
        recorded: tuple[Instruction, ...],
        report: CheckReport,
        matches: dict[tuple[Gate, Gate], bool],
    ) -> None:
        """Match pulses' implied gates against the recorded logical gates."""
        got: dict[tuple[int, ...], list[Gate]] = {}
        for gate, qubits in recovered:
            got.setdefault(qubits, []).append(gate)
        want: dict[tuple[int, ...], list[Gate]] = {}
        for instruction in recorded:
            want.setdefault(tuple(sorted(instruction.qubits)), []).append(instruction.gate)
        if set(got) != set(want):
            report.operation_failures.append(
                _groups_differ(index, sorted(got), sorted(want))
            )
            return
        for qubits, want_gates in want.items():
            got_gates = got[qubits]
            if len(got_gates) != len(want_gates):
                report.operation_failures.append(
                    f"op {index}: gate count mismatch on qubits {qubits}"
                )
                continue
            for pair in zip(got_gates, want_gates):
                same = matches.get(pair)
                if same is None:
                    same = matches[pair] = self._same_gate(*pair)
                if not same:
                    report.operation_failures.append(_gates_differ(index, qubits, pair))

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
