"""Tests for the OpenQASM front end: lexer, parser, loader, printer."""

import math

import pytest

from repro.circuits import QuantumCircuit, circuits_equivalent
from repro.exceptions import QasmSemanticError, QasmSyntaxError
from repro.qasm import (
    circuit_to_qasm,
    load_circuit,
    parse_qasm,
    program_to_qasm,
    qasm_to_circuit,
    tokenize,
)
from repro.qasm.ast import MeasureStmt, QubitDecl
from repro.qasm.lexer import TokenType


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("h q[0];")
        kinds = [t.type for t in tokens]
        assert kinds[0] == TokenType.IDENTIFIER
        assert kinds[-1] == TokenType.EOF

    def test_line_comments_stripped(self):
        tokens = tokenize("// comment\nh q;")
        assert tokens[0].value == "h"

    def test_block_comments_stripped(self):
        tokens = tokenize("/* multi\nline */ x q;")
        assert tokens[0].value == "x"

    def test_unterminated_block_comment(self):
        with pytest.raises(QasmSyntaxError):
            tokenize("/* forever")

    def test_annotation_token_consumes_line(self):
        tokens = tokenize("@rydberg\nh q;")
        assert tokens[0].type == TokenType.ANNOTATION
        assert tokens[0].value == "rydberg"

    def test_empty_annotation_rejected(self):
        with pytest.raises(QasmSyntaxError):
            tokenize("@\n")

    def test_string_literal(self):
        tokens = tokenize('include "stdgates.inc";')
        assert tokens[1].type == TokenType.STRING

    def test_unterminated_string(self):
        with pytest.raises(QasmSyntaxError):
            tokenize('include "oops')

    def test_scientific_notation(self):
        tokens = tokenize("rz(1.5e-3) q[0];")
        values = [t.value for t in tokens if t.type == TokenType.NUMBER]
        assert "1.5e-3" in values

    def test_arrow_token(self):
        tokens = tokenize("measure q[0] -> c[0];")
        assert any(t.type == TokenType.ARROW for t in tokens)

    def test_line_tracking(self):
        tokens = tokenize("h q;\nx q;")
        x_token = [t for t in tokens if t.value == "x"][0]
        assert x_token.line == 2

    def test_unexpected_character(self):
        with pytest.raises(QasmSyntaxError):
            tokenize("h q$;")


class TestParser:
    def test_version_header(self):
        program = parse_qasm("OPENQASM 3.0;\nqubit[2] q;")
        assert program.version == "3.0"

    def test_qasm2_registers(self):
        program = parse_qasm("qreg q[3];\ncreg c[3];")
        decls = [s for s in program.statements if isinstance(s, QubitDecl)]
        assert decls[0].size == 3

    def test_gate_call_params_folded(self):
        program = parse_qasm("qubit[1] q;\nrz(pi/2) q[0];")
        call = program.gate_calls()[0]
        assert call.params[0] == pytest.approx(math.pi / 2)

    def test_expression_arithmetic(self):
        program = parse_qasm("qubit[1] q;\nrz(2*(1+3)-0.5) q[0];")
        assert program.gate_calls()[0].params[0] == pytest.approx(7.5)

    def test_unary_minus(self):
        program = parse_qasm("qubit[1] q;\nrz(-pi) q[0];")
        assert program.gate_calls()[0].params[0] == pytest.approx(-math.pi)

    def test_division_by_zero_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse_qasm("qubit[1] q;\nrz(1/0) q[0];")

    def test_qasm2_measure(self):
        program = parse_qasm("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];")
        assert isinstance(program.statements[-1], MeasureStmt)

    def test_qasm3_measure(self):
        program = parse_qasm("qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];")
        assert isinstance(program.statements[-1], MeasureStmt)

    def test_barrier_without_operands(self):
        parse_qasm("qubit[1] q;\nbarrier;")

    def test_annotations_attach_to_next_statement(self):
        program = parse_qasm("qubit[1] q;\n@rydberg\n@raman global 1 2 3\nh q[0];")
        call = program.gate_calls()[0]
        assert [a.keyword for a in call.annotations] == ["rydberg", "raman"]

    def test_trailing_annotation_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse_qasm("qubit[1] q;\n@rydberg\n")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse_qasm("qubit[1] q;\nh q[0]")

    def test_include_statement(self):
        parse_qasm('include "stdgates.inc";\nqubit[1] q;')


class TestLoader:
    def test_flat_indexing_across_registers(self):
        source = "qubit[2] a;\nqubit[3] b;\ncx a[1], b[0];"
        circuit = qasm_to_circuit(source)
        assert circuit.num_qubits == 5
        assert circuit.instructions[0].qubits == (1, 2)

    def test_broadcast_gate(self):
        circuit = qasm_to_circuit("qubit[3] q;\nh q;")
        assert circuit.count_ops() == {"h": 3}

    def test_broadcast_annotations_on_first_only(self):
        loaded = load_circuit(parse_qasm("qubit[2] q;\n@rydberg\nh q;"))
        assert loaded.instruction_annotations[0]
        assert not loaded.instruction_annotations[1]

    def test_setup_annotations_collected(self):
        loaded = load_circuit(
            parse_qasm("@slm [(0.0, 0.0)]\nqubit[1] q;\nh q[0];")
        )
        assert loaded.setup_annotations[0].keyword == "slm"

    def test_unknown_register_rejected(self):
        with pytest.raises(QasmSemanticError):
            qasm_to_circuit("qubit[1] q;\nh r[0];")

    def test_index_out_of_range_rejected(self):
        with pytest.raises(QasmSemanticError):
            qasm_to_circuit("qubit[1] q;\nh q[4];")

    def test_duplicate_register_rejected(self):
        with pytest.raises(QasmSemanticError):
            qasm_to_circuit("qubit[1] q;\nqubit[1] q;")

    def test_measure_register_mismatch_rejected(self):
        with pytest.raises(QasmSemanticError):
            qasm_to_circuit("qubit[2] q;\nbit[1] c;\nc = measure q;")

    def test_gate_aliases_resolved(self):
        circuit = qasm_to_circuit("qubit[2] q;\ncnot q[0], q[1];")
        assert circuit.instructions[0].name == "cx"


class TestPrinter:
    def test_circuit_roundtrip_exact(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).rz(0.25, 2).ccz(0, 1, 2).u3(0.1, -0.2, 0.3, 1)
        qc.barrier((0, 1))
        qc.measure(2, 2)
        again = qasm_to_circuit(circuit_to_qasm(qc))
        assert again == qc

    def test_roundtrip_preserves_unitary(self):
        qc = QuantumCircuit(2).h(0).cp(1.234567, 0, 1).sx(1)
        again = qasm_to_circuit(circuit_to_qasm(qc))
        assert circuits_equivalent(qc, again)

    def test_program_roundtrip_with_annotations(self):
        source = (
            "OPENQASM 3.0;\n@slm [(0.0, 0.0)]\nqubit[2] q;\n"
            "@rydberg\ncz q[0], q[1];\n"
        )
        printed = program_to_qasm(parse_qasm(source))
        reparsed = parse_qasm(printed)
        assert reparsed.gate_calls()[0].annotations[0].keyword == "rydberg"

    def test_float_params_printed_losslessly(self):
        qc = QuantumCircuit(1).rz(0.1 + 0.2, 0)  # 0.30000000000000004
        again = qasm_to_circuit(circuit_to_qasm(qc))
        assert again.instructions[0].params == qc.instructions[0].params


class TestMalformedNumbers:
    """A number that does not convert is a located user error, never a raw
    ``ValueError`` / ``TypeError`` (which the CLI reports as a bug)."""

    @pytest.mark.parametrize(
        "statement", ["rz(1.2.3) q[0];", "rz(pi/1.2.3) q[0];", "u3(0.1, 2..5, 0) q[0];"]
    )
    def test_malformed_parameter_is_syntax_error(self, statement):
        with pytest.raises(QasmSyntaxError, match="malformed number") as excinfo:
            parse_qasm(f"OPENQASM 3.0;\nqubit[1] q;\n{statement}\n")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize(
        "annotation",
        [
            "@shuttle row 0 abc",
            "@shuttle column x 1.0",
            "@raman global 1 2 x",
            "@raman local q0 1 2 3e",
            "@bind q0 slm x",
            "@bind q0 aod 1 y",
            "@aod [1] ['a']",
            "@aod [[1]] [2]",
            "@slm [(1, [2])]",
            "@slm [('a', 2)]",
            "@bind qBIG slm 0",
            "@raman local qBIG 1 2 3",
            "@transfer BIG (0, 0)",
            "@slm [(1, 1BIG)]",
            "@slm [(1, 1WIDE)]",
        ],
    )
    def test_malformed_annotation_payload_is_annotation_error(self, annotation):
        from repro.exceptions import AnnotationError
        from repro.wqasm import parse_wqasm

        # BIG: an integer too long to convert; WIDE: one too large for a float.
        annotation = annotation.replace("BIG", "9" * 5000).replace("WIDE", "9" * 400)
        source = f"OPENQASM 3.0;\nqubit[1] q;\nh q[0];\n{annotation}\nbarrier;\n"
        keyword = annotation[1:].split()[0]
        with pytest.raises(AnnotationError, match=f"malformed @{keyword} payload") as excinfo:
            parse_wqasm(source)
        assert excinfo.value.line == 4
        assert str(excinfo.value).endswith("at line 4")

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            "[(0.0, -0.0), (1e-05, 1.5e+16), (.5, 3.), (1e999, -2.5E3)]",
            "[(01.5, 00e1), (-0.0, 12345678901234567890.5)]",
            "[(1, 2), (3.0, 4.0)]",
            "[(1.0,2.0)]",
            "[(1.0, 2.0),]",
            "((1.0, 2.0),)",
        ],
    )
    def test_slm_payload_reads_as_its_python_literal(self, payload):
        # The written form is scanned by a regex, anything else by
        # ast.literal_eval; both must give the literal's floats, sign of
        # zero included.
        import ast

        from repro.qasm.ast import Annotation
        from repro.wqasm import annotation_to_instruction

        expected = tuple((float(x), float(y)) for x, y in ast.literal_eval(payload))
        got = annotation_to_instruction(Annotation("slm", payload)).positions
        assert repr(got) == repr(expected)

    def test_constructor_type_error_is_not_reported_as_bad_payload(self, monkeypatch):
        # Only the payload's own numbers become AnnotationError; a fault in
        # the instruction classes stays a programming error.
        from repro.wqasm import annotations, parse_wqasm

        def broken(*args, **kwargs):
            raise TypeError("bug in the instruction class")

        monkeypatch.setattr(annotations, "RamanGlobal", broken)
        source = "OPENQASM 3.0;\nqubit[1] q;\n@raman global 1 2 3\nh q[0];\n"
        with pytest.raises(TypeError, match="bug in the instruction class"):
            parse_wqasm(source)

    def test_annotation_error_names_the_failing_line(self):
        from repro.exceptions import AnnotationError
        from repro.wqasm import parse_wqasm

        source = "OPENQASM 3.0;\nqubit[1] q;\n@rydberg\nh q[0];\n@rydberg now\nh q[0];\n"
        with pytest.raises(AnnotationError, match="takes no arguments") as excinfo:
            parse_wqasm(source)
        assert excinfo.value.line == 5


class TestScannerBacktracking:
    """Statements that fail after long parameter or operand lists parse or
    raise in linear time.  Each source runs in a child process, because a
    regex stuck backtracking holds the interpreter and cannot be stopped
    from inside it."""

    PARAMS = ",".join(["1234567890"] * 10)
    SOURCES = {
        "no space before operands": f"g({PARAMS})q[0];",
        "tab before operands": f"g({PARAMS})\tq[0];",
        "comment before semicolon": f"g({PARAMS}) q[0] /* c */;",
        "stray character": f"g({PARAMS}) q[0]$;",
        "exponents": "g(" + ",".join(["1e5"] * 40) + ") q[0]$;",
        "long operand list": "g " + ", ".join(["q[123456]"] * 500) + " $;",
        "long whitespace run": "h q[0]" + " " * 20000 + "$",
    }

    @pytest.mark.parametrize("label", sorted(SOURCES))
    def test_parses_or_raises_promptly(self, label):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        script = (
            "import sys\n"
            "from repro.exceptions import QasmSyntaxError\n"
            "from repro.qasm import parse_qasm\n"
            "try:\n"
            "    parse_qasm(sys.stdin.read())\n"
            "except QasmSyntaxError:\n"
            "    pass\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=self.SOURCES[label],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("source", ["h q[%s];", "qubit[%s] q;", "qreg q[%s];"])
    def test_integer_too_long_to_convert_is_syntax_error(self, source):
        with pytest.raises(QasmSyntaxError, match="expected integer"):
            parse_qasm(source % ("9" * 5000))
