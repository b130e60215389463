"""Tests for the wChecker (paper §6): verification and bug detection."""

import copy
from collections import Counter

import pytest

import repro
from repro.checker import EquivalenceMethod, WChecker, check_program
from repro.checker.unitary_check import equivalence_check
from repro.circuits import QuantumCircuit, circuits_equivalent
from repro.fpqa.instructions import RamanLocal, RydbergPulse, ShuttleMove, Shuttle
from repro.wqasm.program import AnnotatedOperation, WQasmProgram


class TestHappyPath:
    def test_paper_example_verifies(self, compiled_paper_example):
        report = check_program(
            compiled_paper_example.program,
            reference=compiled_paper_example.native_circuit,
        )
        assert report.ok
        assert report.reconstructed_equivalent is True
        assert report.reference_equivalent is True
        assert report.reconstructed_method == EquivalenceMethod.UNITARY

    def test_ladder_mode_verifies(self, compiled_paper_example_ladder):
        report = check_program(
            compiled_paper_example_ladder.program,
            reference=compiled_paper_example_ladder.native_circuit,
        )
        assert report.ok

    def test_mixed_arity_verifies(self, compiled_mixed):
        report = check_program(
            compiled_mixed.program, reference=compiled_mixed.native_circuit
        )
        assert report.ok

    def test_roundtripped_program_verifies(self, compiled_paper_example):
        from repro.wqasm import parse_wqasm

        again = parse_wqasm(compiled_paper_example.program.to_wqasm())
        assert check_program(again).ok

    def test_uf20_structural_check(self, compiled_uf20):
        """20 qubits: exceeds dense unitaries; the per-op layer still runs."""
        checker = WChecker(max_probe_qubits=10)  # keep the test fast
        report = checker.check(compiled_uf20.program)
        assert not report.operation_failures
        assert report.operations_checked > 500
        assert report.reconstructed_method == EquivalenceMethod.TOO_LARGE

    def test_reconstruction_matches_logical(self, paper_formula):
        # The supported reconstruction seam is CompilationResult.as_circuit
        # (pulse-to-gate replay of the compiled artifact), not reaching
        # into repro.checker internals.
        result = repro.compile(paper_formula, target="fpqa", measure=False)
        rebuilt = result.as_circuit()
        assert circuits_equivalent(rebuilt, result.program.logical_circuit())


def _tamper_first(program, predicate, replace):
    """Replace the first instruction satisfying ``predicate``."""
    tampered = copy.deepcopy(program)
    for op_index, operation in enumerate(tampered.operations):
        new_instructions = []
        changed = False
        for instruction in operation.instructions:
            if not changed and predicate(instruction):
                instruction = replace(instruction)
                changed = True
            new_instructions.append(instruction)
        if changed:
            tampered.operations[op_index] = AnnotatedOperation(
                tuple(new_instructions), operation.gates
            )
            return tampered
    raise AssertionError("nothing to tamper with")


class TestBugDetection:
    def test_wrong_raman_angle_detected(self, compiled_paper_example):
        tampered = _tamper_first(
            compiled_paper_example.program,
            lambda i: isinstance(i, RamanLocal),
            lambda i: RamanLocal(i.qubit, i.x + 0.5, i.y, i.z),
        )
        report = check_program(tampered)
        assert not report.ok
        assert any("implements" in f for f in report.operation_failures)

    def test_missing_shuttle_detected(self, compiled_paper_example):
        """Dropping a movement step misplaces atoms: clusters go wrong."""
        tampered = _tamper_first(
            compiled_paper_example.program,
            lambda i: isinstance(i, Shuttle) and i.move.axis == "row",
            lambda i: Shuttle(ShuttleMove("row", 0, i.move.offset / 3.0)),
        )
        report = check_program(tampered)
        assert not report.ok

    def test_claimed_gate_without_pulse_detected(self, compiled_paper_example):
        tampered = copy.deepcopy(compiled_paper_example.program)
        for index, operation in enumerate(tampered.operations):
            if any(isinstance(i, RydbergPulse) for i in operation.instructions):
                without_pulse = tuple(
                    i
                    for i in operation.instructions
                    if not isinstance(i, RydbergPulse)
                )
                tampered.operations[index] = AnnotatedOperation(
                    without_pulse, operation.gates
                )
                break
        report = check_program(tampered)
        assert not report.ok

    def test_wrong_reference_detected(self, compiled_paper_example):
        wrong = QuantumCircuit(compiled_paper_example.program.num_qubits)
        wrong.x(0)
        report = check_program(compiled_paper_example.program, reference=wrong)
        assert not report.ok
        assert report.reference_equivalent is False

    def test_raise_on_failure(self, compiled_paper_example):
        from repro.exceptions import EquivalenceError

        tampered = _tamper_first(
            compiled_paper_example.program,
            lambda i: isinstance(i, RamanLocal),
            lambda i: RamanLocal(i.qubit, i.x + 1.0, i.y, i.z),
        )
        report = check_program(tampered)
        with pytest.raises(EquivalenceError):
            report.raise_on_failure()

    def test_ok_report_does_not_raise(self, compiled_paper_example):
        check_program(compiled_paper_example.program).raise_on_failure()


class TestEquivalenceCheck:
    def test_small_circuits_use_unitary(self):
        a = QuantumCircuit(2).h(0)
        verdict, method = equivalence_check(a, a.copy())
        assert verdict is True
        assert method == EquivalenceMethod.UNITARY

    def test_qubit_mismatch(self):
        verdict, _ = equivalence_check(QuantumCircuit(1), QuantumCircuit(2))
        assert verdict is False

    def test_probe_limit_respected(self):
        big = QuantumCircuit(18)
        verdict, method = equivalence_check(big, big.copy(), max_probe_qubits=10)
        assert verdict is None
        assert method == EquivalenceMethod.TOO_LARGE

    def test_probe_detects_difference(self):
        a = QuantumCircuit(14)
        b = QuantumCircuit(14).x(3)
        verdict, method = equivalence_check(a, b)
        assert verdict is False
        assert method == EquivalenceMethod.STATEVECTOR_PROBE


class TestAboveProbeLimit:
    """Programs too wide for either equivalence method (uf20: 20 qubits)."""

    def test_recurring_raman_fault_reports_exactly_its_operation(self, compiled_uf20):
        program = compiled_uf20.program
        sites = [
            (op_index, instruction)
            for op_index, operation in enumerate(program.operations)
            for instruction in operation.instructions
            if isinstance(instruction, RamanLocal)
        ]
        counts = Counter((i.x, i.y, i.z) for _, i in sites)
        recurring = [angles for angles, count in counts.items() if count > 1]
        assert len(recurring) >= 2
        # Move one pulse onto another triple the program also uses: the
        # memos then hold both triples, and only this operation pairs the
        # second triple with the first one's recorded gate.
        victim_op, victim = next(
            (op_index, i) for op_index, i in sites if (i.x, i.y, i.z) == recurring[0]
        )
        tampered = _tamper_first(
            program,
            lambda i: i == victim,
            lambda i: RamanLocal(i.qubit, *recurring[1]),
        )
        report = WChecker().check(tampered)
        assert not report.ok
        assert len(report.operation_failures) == 1
        assert report.operation_failures[0].startswith(f"op {victim_op}: ")
        assert "implements" in report.operation_failures[0]
        assert report.reconstructed_method is EquivalenceMethod.TOO_LARGE

    def test_wrong_width_reference_still_fails(self, compiled_uf20):
        program = compiled_uf20.program
        report = check_program(program, reference=QuantumCircuit(program.num_qubits + 1))
        assert report.reference_equivalent is False
        assert report.ok is False
        assert report.operation_failures == [
            "logical circuit differs from the reference circuit"
        ]

    def test_matching_reference_is_too_large(self, compiled_uf20):
        report = check_program(
            compiled_uf20.program, reference=compiled_uf20.native_circuit
        )
        assert report.ok
        assert report.reconstructed_equivalent is None
        assert report.reference_equivalent is None
        assert report.reconstructed_method is EquivalenceMethod.TOO_LARGE
        assert report.reference_method is EquivalenceMethod.TOO_LARGE

    def test_logical_circuit_built_only_when_compared(
        self, monkeypatch, compiled_uf20, compiled_paper_example
    ):
        calls = []
        build = WQasmProgram.logical_circuit

        def counting(program):
            calls.append(program.name)
            return build(program)

        monkeypatch.setattr(WQasmProgram, "logical_circuit", counting)
        check_program(compiled_uf20.program, reference=compiled_uf20.native_circuit)
        assert calls == []
        example = compiled_paper_example
        check_program(example.program, reference=example.native_circuit)
        assert calls == [example.program.name]
