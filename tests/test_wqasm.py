"""Tests for the wQasm annotation codec and program container (§4)."""

import pytest

from repro.circuits import circuits_equivalent
from repro.exceptions import AnnotationError
from repro.fpqa import (
    AodInit,
    BindAtom,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    ShuttleMove,
    SlmInit,
    Transfer,
)
from repro.qasm.ast import Annotation
from repro.wqasm import (
    annotation_to_instruction,
    instruction_to_annotation,
    parse_wqasm,
)

ROUNDTRIP_INSTRUCTIONS = [
    SlmInit(((0.0, 0.0), (12.5, -3.25))),
    AodInit((1.0, 9.0), (0.5,)),
    BindAtom(qubit=4, slm_index=2),
    BindAtom(qubit=5, aod_col=1, aod_row=0),
    Transfer(slm_index=3, aod_col=2, aod_row=0),
    Shuttle(ShuttleMove("row", 0, -17.5)),
    Shuttle(ShuttleMove("column", 3, 2.25)),
    Shuttle(ShuttleMove("column", 1, 8.0, loaded=False)),
    ParallelShuttle(
        (ShuttleMove("row", 2, 4.5), ShuttleMove("column", 0, -1.0, loaded=False))
    ),
    RamanLocal(7, 0.1, -0.2, 0.3),
    RamanGlobal(1.5707963, 0.0, -3.14159),
    RydbergPulse(),
]


class TestAnnotationCodec:
    @pytest.mark.parametrize("instruction", ROUNDTRIP_INSTRUCTIONS, ids=lambda i: type(i).__name__)
    def test_roundtrip(self, instruction):
        annotations = instruction_to_annotation(instruction)
        assert len(annotations) == 1
        decoded = annotation_to_instruction(annotations[0])
        assert decoded == instruction

    def test_parallel_shuttle_serializes_as_one_grouped_line(self):
        """Grouping is schedule semantics: one annotation, moves ;-joined."""
        group = ParallelShuttle(
            (ShuttleMove("column", 0, 1.0), ShuttleMove("column", 1, 2.0))
        )
        annotations = instruction_to_annotation(group)
        assert len(annotations) == 1
        assert annotations[0].keyword == "shuttle"
        assert ";" in annotations[0].content
        assert annotation_to_instruction(annotations[0]) == group

    def test_sequential_shuttles_stay_sequential(self):
        """Two bare @shuttle lines must NOT merge into a parallel group."""
        lines = [
            Annotation("shuttle", "column 0 1.0"),
            Annotation("shuttle", "column 1 2.0"),
        ]
        decoded = [annotation_to_instruction(a) for a in lines]
        assert all(isinstance(i, Shuttle) for i in decoded)

    def test_qubit_identifier_forms(self):
        plain = annotation_to_instruction(Annotation("raman", "local 3 0.1 0.2 0.3"))
        prefixed = annotation_to_instruction(Annotation("raman", "local q3 0.1 0.2 0.3"))
        assert plain == prefixed

    @pytest.mark.parametrize(
        "keyword,content",
        [
            ("slm", "not-a-list"),
            ("slm", "[(1.0,)]"),
            ("aod", "[1.0]"),
            ("bind", "q1 nowhere 3"),
            ("transfer", "1 2 3"),
            ("shuttle", "sideways 0 1.0"),
            ("raman", "nowhere 1 2 3"),
            ("rydberg", "unexpected"),
            ("mystery", ""),
        ],
    )
    def test_malformed_payloads_rejected(self, keyword, content):
        with pytest.raises(AnnotationError):
            annotation_to_instruction(Annotation(keyword, content))


class TestProgramSerialization:
    def test_full_roundtrip(self, compiled_paper_example):
        program = compiled_paper_example.program
        text = program.to_wqasm()
        again = parse_wqasm(text)
        assert again.num_qubits == program.num_qubits
        assert again.measured == program.measured
        assert circuits_equivalent(
            again.logical_circuit(), program.logical_circuit()
        )

    def test_pulse_counts_preserved(self, compiled_paper_example):
        program = compiled_paper_example.program
        again = parse_wqasm(program.to_wqasm())
        assert again.pulse_counts() == program.pulse_counts()

    def test_schedule_semantics_preserved(self, compiled_uf20):
        """Grouping and loaded flags round-trip: derived duration and EPS
        are exactly the recorded ones, so re-analyzing a deserialized
        artifact cannot raise WL051/WL052 cost-bound findings."""
        from repro.metrics import program_duration_us, program_eps

        program = compiled_uf20.program
        again = parse_wqasm(program.to_wqasm())
        assert program_duration_us(again) == program_duration_us(program)
        assert program_eps(again) == program_eps(program)

    def test_setup_preserved(self, compiled_paper_example):
        program = compiled_paper_example.program
        again = parse_wqasm(program.to_wqasm())
        kinds = [type(i).__name__ for i in again.setup]
        assert kinds[0] == "SlmInit"
        assert kinds[1] == "AodInit"
        assert kinds.count("BindAtom") == program.num_qubits

    def test_measured_program_roundtrip(self, compiled_uf20):
        program = compiled_uf20.program
        text = program.to_wqasm()
        again = parse_wqasm(text)
        assert again.measured
        assert again.pulse_counts() == program.pulse_counts()

    def test_wqasm_text_is_openqasm_superset(self, compiled_paper_example):
        """Stripping annotations must leave loadable plain OpenQASM (§4.2)."""
        from repro.qasm import qasm_to_circuit

        text = compiled_paper_example.program.to_wqasm()
        stripped = "\n".join(
            line for line in text.splitlines() if not line.startswith("@")
        )
        circuit = qasm_to_circuit(stripped)
        assert circuits_equivalent(
            circuit, compiled_paper_example.program.logical_circuit()
        )

    def test_logical_circuit_structure(self, compiled_paper_example):
        program = compiled_paper_example.program
        ops = program.logical_circuit().count_ops()
        assert "ccz" in ops and "cz" in ops and "u3" in ops


class TestConflictingShuttleGroup:
    """A group that moves one line twice parses; the device flags it (WL012)."""

    TEXT = (
        "OPENQASM 3.0;\n"
        "@slm [(0.0, 0.0)]\n"
        "@aod [0.0, 10.0] [0.0]\n"
        "@bind q0 slm 0\n"
        "qubit[1] q;\n"
        "@shuttle column 0 1.0; column 0 2.0\n"
        "@raman local q0 0.0 0.0 0.0\n"
        "u3(0.0, 0.0, 0.0) q[0];\n"
    )

    def test_parses_into_one_group(self):
        program = parse_wqasm(self.TEXT)
        (group, _) = program.operations[0].instructions
        assert group == ParallelShuttle(
            (ShuttleMove("column", 0, 1.0), ShuttleMove("column", 0, 2.0))
        )

    def test_lint_reports_exactly_one_wl012(self):
        from repro.analysis import analyze_program

        report = analyze_program(parse_wqasm(self.TEXT))
        codes = [d.code for d in report.diagnostics]
        assert codes.count("WL012") == 1

    def test_checker_reports_an_operation_failure(self):
        from repro.checker import check_program

        report = check_program(parse_wqasm(self.TEXT))
        assert not report.ok
        assert report.operation_failures == [
            "op 0: parallel shuttle moves the same column 0 twice"
        ]
