"""Differential test: the regex-scanner front end against the old one.

``tests/oracles`` keeps the character-at-a-time lexer and the token-list
parser the front end used before.  On every source below the current
``parse_qasm`` must build the same :class:`Program` (compared by ``repr``,
so ``-0.0`` and ``0.0`` differ), ``load_circuit`` the same
:class:`LoadedProgram`, and ``tokenize`` the same token stream; a source
the oracle rejects must be rejected with the same exception type at the
same line.  The one intended difference: a number that does not convert
(``rz(1.2.3) q[0];``) escaped the oracle as a raw ``ValueError`` and is
now a located :class:`QasmSyntaxError`.  Two oracle miscounts are left
out of the comparison rather than reproduced: it did not count the
newlines inside a string literal (so the splice sweep runs on a program
without one), and it did not advance the column over a ``//`` comment.

Sources: FPQA wQasm and reference QASM for uf20/uf50 at three (gamma,
beta) pairs, superconducting QASM output, every QASM-like string literal
in ``tests/``, every prefix of a program that uses each construct, and
that program with a stray character, quote or comment opener spliced in
at every offset.  A program that repeats every statement kind checks the
per-call tables that decode each distinct statement text once.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from oracles.lexer import tokenize as oracle_tokenize
from oracles.parser import parse_qasm as oracle_parse
from repro.exceptions import AnnotationError, QasmSyntaxError, WeaverError
from repro.qasm import Annotation, load_circuit, parse_qasm, tokenize
from repro.wqasm import parse_wqasm

TESTS = Path(__file__).resolve().parent

ANGLES = [(0.4, 0.2), (0.9, 0.35), (1.15, 0.55)]

#: Every construct of the grammar, each on its own line, with comments in
#: and between statements.
EVERYTHING = """\
OPENQASM 2.0;
include "qelib1.inc"; // the standard library
qreg q[3];
creg c[3];
/* a block
   comment */
gate rot(theta, phi) a, b { rz(theta / 2 + phi) a; cx a, b; rz(-theta) b; }
@rydberg
@raman global 0.5 -1.25 3.0
rot(pi/4, 1.5e-3) q[0], q[1];
u3(0.1, -0.0, 2) q[2];
rz(tau - euler*2) q[0];
cx q[0], /* inline */ q[1];
h q;
barrier q[0], q[1];
barrier;
measure q[0] -> c[0];
c[1] = measure q[1];
c = measure q;
"""

#: Every statement kind twice or more, with near twins that differ only
#: in the sign of a zero or in trailing whitespace, broadcast calls, and
#: a ``gate`` that redefines ``h`` after repeated library ``h`` calls.
REPEATED = """\
OPENQASM 3.0;
@rydberg
qubit[2] q;
@rydberg
qubit[1] r;
bit[2] c;
@raman global 0.5 -1.25 3.0
u3(0.1, -0.0, 2.0) q[0];
u3(0.1, 0.0, 2.0) q[0];
@raman global 0.5 -1.25 3.0\t
u3(0.1, -0.0, 2.0) q[0];
u3(0.1, -0.0, 2.0) q[0];
cz q[0], q[1];
@rydberg
cz q[0], q[1];
cz q[0], r[0];
cz q[0], r;
h q[0];
h q;
h q;
h q[0];
barrier;
barrier;
barrier q[0], q[1];
barrier q[0], q[1];
c[0] = measure q[0];
c[0] = measure q[0];
c = measure q;
c = measure q;
gate h a { rz(pi) a; }
h q[0];
h q;
h q[0];
cz q[0], q[1];
"""

#: Spliced in at every offset of :data:`EVERYTHING` without its string
#: literal, so an inserted quote or newline never opens a multi-line one.
SPLICES = ["$", '"', '"x"', "/*", "*/", "//", "@", "}", ";", "-", "1.2.3", "\n"]
SPLICE_BASE = EVERYTHING.replace('include "qelib1.inc"; ', "")


def outcome(source: str, parse) -> tuple:
    """What parsing and loading ``source`` gives: the AST and the loaded
    program, or the exception type and line."""
    try:
        program = parse(source)
    except Exception as exc:  # noqa: BLE001 — the type is what is compared
        return ("error", type(exc), getattr(exc, "line", None))
    try:
        loaded = load_circuit(program)
    except WeaverError as exc:
        return ("ast", repr(program), type(exc))
    return ("ok", repr(program), loaded_fingerprint(loaded))


def loaded_fingerprint(loaded) -> tuple:
    circuit = loaded.circuit
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        repr([(i.gate, i.qubits, i.clbits) for i in circuit.instructions]),
        repr(loaded.instruction_annotations),
        repr(loaded.setup_annotations),
        loaded.qubit_registers,
        loaded.clbit_registers,
    )


def tokens(source: str, lex) -> tuple:
    """The token stream, or the error location.  The end-of-file token's
    column is left out: the oracle did not advance the column over a
    ``//`` comment, so after a trailing comment it reported a column
    inside the comment."""
    try:
        stream = [(t.type.value, t.value, t.line, t.column) for t in lex(source)]
    except QasmSyntaxError as exc:
        return ("error", exc.line, exc.column)
    return ("ok", stream[:-1], stream[-1][:3])


def assert_same_front_end(source: str, lex: bool = True) -> None:
    expected = outcome(source, oracle_parse)
    got = outcome(source, parse_qasm)
    if expected[0] == "error" and expected[1] is ValueError:
        # The oracle let an unconvertible number escape as ValueError.
        assert got[0] == "error" and got[1] is QasmSyntaxError, (source, got)
        assert got[2] is not None
    else:
        assert got == expected, source
    if lex:
        assert tokens(source, tokenize) == tokens(source, oracle_tokenize), source


def qasm_literals() -> list[str]:
    """Every string literal in ``tests/`` that could be QASM text."""
    found: set[str] = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
                if ";" in text or text.startswith(("@", "OPENQASM", "/*", "//")):
                    found.add(text)
    return sorted(found)


@pytest.fixture(scope="module", params=["uf20-01", "uf50-01"])
def fpqa_results(request):
    formula = repro.satlib_instance(request.param)
    return [
        repro.compile(formula, target="fpqa", parameters=repro.QaoaParameters((g,), (b,)))
        for g, b in ANGLES
    ]


def test_fpqa_artifacts(fpqa_results):
    # Token streams of one angle pair suffice: the others differ only in
    # parameter digits.
    for i, result in enumerate(fpqa_results):
        payload = result.to_dict()
        assert_same_front_end(payload["program_wqasm"], lex=i == 0)
        assert_same_front_end(payload["native_qasm"], lex=i == 0)


def test_superconducting_output():
    result = repro.compile(repro.satlib_instance("uf20-01"), target="superconducting")
    assert_same_front_end(result.to_dict()["native_qasm"])


def test_every_qasm_literal_in_tests():
    literals = qasm_literals()
    assert any("gate " in text for text in literals)
    assert any("->" in text for text in literals)
    assert any("include" in text for text in literals)
    assert any("//" in text or "/*" in text for text in literals)
    for text in literals:
        assert_same_front_end(text)


def test_every_prefix():
    for cut in range(len(EVERYTHING) + 1):
        assert_same_front_end(EVERYTHING[:cut])


@pytest.mark.parametrize("splice", SPLICES)
def test_splice_at_every_offset(splice):
    assert '"' not in SPLICE_BASE
    for at in range(len(SPLICE_BASE) + 1):
        assert_same_front_end(SPLICE_BASE[:at] + splice + SPLICE_BASE[at:])


@pytest.mark.parametrize(
    "source",
    [
        "OPENQASM 3.0;\nqubit[2] q;\nh q[0] $;",
        "OPENQASM 3.0;\nqubit[1] q;\nrz(1/0) q[0];\n$",
        'OPENQASM 2.0;\ninclude "never closed;\nqreg q[1];',
        "OPENQASM 3.0;\n/* never closed\nqubit[1] q;",
        "OPENQASM 3.0;\nqubit[1] q;\n@\nh q[0];",
        "OPENQASM 3.0;\nqubit[1] q;\n@rydberg\n",
        "OPENQASM 3.0;\nqubit[1] q;\nrz(1.2.3) q[0];",
        "OPENQASM 3.0;\nqubit[1.5] q;",
        "OPENQASM;\nqubit[1] q;",
        "qubit[1] q;\nOPENQASM 3.0;",
        "qubit[2] q;\nbit[2] c;\nqubit[0] = measure q[0];",
        "qubit[2] q;\nbit c;\nc = measure q[0];\nqubit r;",
        "qubit[2] q;\nh q[0] ;\nrz( 0.5 ) q[1];\ncx q[0],q[1];\nh\tq[1];",
        "qubit[1] q;\nrz(-.5e+3) q[0];\nrz(5.) q[0];\nrz(+1) q[0];\nrz(--1) q[0];\nrz(1_0) q[0];",
        "qubit[1] q;\nrz(inf) q[0];",
        "qubit[1] q;\r\n@rydberg\r\nh q[0];\r\n",
    ],
)
def test_malformed_and_unusual_sources(source):
    assert_same_front_end(source)


def test_repeated_statements():
    assert_same_front_end(REPEATED)
    circuit = load_circuit(parse_qasm(REPEATED)).circuit
    gates = [(i.name, i.params, i.qubits) for i in circuit.instructions]
    assert [repr(params) for name, params, _ in gates if name == "u3"] == [
        "(0.1, -0.0, 2.0)", "(0.1, 0.0, 2.0)", "(0.1, -0.0, 2.0)", "(0.1, -0.0, 2.0)",
    ]
    # Library h before the definition, the macro's rz after it.
    cut = len(gates) - 5
    assert [name for name, _, _ in gates[:cut] if name in ("h", "rz")] == ["h"] * 6
    assert [(name, qubits) for name, _, qubits in gates[cut:]] == [
        ("rz", (0,)), ("rz", (0,)), ("rz", (1,)), ("rz", (0,)), ("cz", (0, 1)),
    ]


def test_textual_twins_are_separate_statements():
    program = parse_qasm("qubit[1] q;\nh q[0];\nh q[0];\n")
    first, twin = program.statements[1:]
    assert first == twin and first is not twin
    first.annotations = (Annotation("rydberg", ""),)
    assert twin.annotations == ()


def test_repeated_malformed_annotation_reports_its_first_line():
    bad = "@shuttle row 0 abc\n"
    source = "OPENQASM 3.0;\nqubit[1] q;\n" + (bad + "h q[0];\n") * 3
    with pytest.raises(AnnotationError) as excinfo:
        parse_wqasm(source)
    assert excinfo.value.line == 3
