"""Parser for the OpenQASM 3 subset.

Supported statements (enough for the paper's workloads and both dialects
Qiskit emits):

* ``OPENQASM 2.0; / 3.0;`` version headers and ``include`` directives
* ``qreg q[n];`` / ``qubit[n] q;`` and ``creg c[n];`` / ``bit[n] c;``
* gate calls with constant-folded parameter expressions (``pi``, ``tau``,
  arithmetic, unary minus)
* ``measure q[i] -> c[i];`` (QASM2) and ``c[i] = measure q[i];`` (QASM3)
* ``barrier``
* ``gate name(params) q0, q1 { body }`` definitions
* annotations ``@keyword ...`` attached to the next statement

The parser reads the source text directly.  A canonical statement, as the
printers and the wQasm encoder emit it, is taken whole from one match of
:data:`_STATEMENT`: an annotation line, a ``qubit``/``bit`` declaration,
``name(params) q[i], q[j];`` with numeric literal parameters,
``c[i] = measure q[i];`` or ``barrier;``.  Everything else goes through
the recursive-descent grammar of :class:`_Parser`, fed token by token by
the same scanner (:mod:`.lexer`): parameter expressions (``pi/2``, the
formal parameters of a ``gate`` body), ``gate`` definitions, ``include``,
QASM2 registers and measurements, statements with comments inside them,
and every malformed statement, so errors carry the grammar's message and
location.  Both paths build the same AST for the same statement.

A canonical statement's pieces are decoded once per call for each
distinct text: textual twins share one frozen :class:`Annotation`, one
parameter tuple and one operand tuple, while every statement stays its
own object (``annotations`` is assigned after construction).
"""

from __future__ import annotations

import math
import re

from ..exceptions import QasmSyntaxError
from .ast import (
    Annotation,
    BarrierStmt,
    BinOp,
    ClbitDecl,
    Expr,
    GateCall,
    GateDefinition,
    IncludeStmt,
    MeasureStmt,
    Neg,
    Num,
    Operand,
    Program,
    QubitDecl,
    Statement,
    Sym,
)
from .lexer import RawToken, location, scan, scan_all, syntax_error

_CONSTANTS = {"pi": math.pi, "tau": 2.0 * math.pi, "euler": math.e}

#: Words that open a statement of their own; a gate-call-shaped match
#: that starts with one of them is left to the grammar.
_KEYWORDS = frozenset(
    {"include", "qreg", "creg", "qubit", "bit", "measure", "barrier", "gate"}
)

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
#: An index or register size short enough for ``int(text)``; a longer one
#: is left to the grammar, which reports it.
_INT = r"[0-9]{1,18}"
_OPERAND = _ID + rf"(?:\[{_INT}\])?"
#: A numeric literal with an optional sign: exactly the texts for which
#: ``float(text)`` equals what the grammar folds from the tokens.  Each
#: text matches in one way only, so a statement that fails after its
#: parameters backtracks in linear time.
_LITERAL = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

_STATEMENT = re.compile(
    rf"""[ \t\r\n]*(?:
        @(?P<annotation>[^\n]*)
      | (?P<call>(?P<name>{_ID})
          (?:\((?P<params>{_LITERAL}(?:,[ ]*{_LITERAL})*)\))?
          (?:[ ]+(?P<operands>{_OPERAND}(?:,[ ]*{_OPERAND})*))?[ ]*;)
      | (?P<measure>(?P<clbit>{_OPERAND})[ ]*=[ ]*measure[ ]+(?P<qubit>{_OPERAND})[ ]*;)
      | (?P<declaration>(?P<type>qubit|bit)\[(?P<size>{_INT})\][ ]+(?P<register>{_ID})[ ]*;)
    )""",
    re.VERBOSE,
)
_OPERAND_RE = re.compile(rf"({_ID})(?:\[({_INT})\])?")


def _operands(text: str) -> tuple[Operand, ...]:
    return tuple(
        [(name, int(index) if index else None) for name, index in _OPERAND_RE.findall(text)]
    )


def _annotation(raw: str) -> Annotation:
    keyword, _, content = raw.partition(" ")
    return Annotation(keyword, content.strip())


class _Parser:
    def __init__(self, source: str):
        self.source = source
        #: Tokens scanned for the statement being parsed by the grammar.
        self.tokens: list[RawToken] = []
        self.index = 0
        #: Source offset just past the last consumed token.
        self.end = 0
        #: Formal parameter names in scope (inside a gate definition body);
        #: identifiers in this set parse as symbolic expressions.
        self._symbols: set[str] = set()
        #: Decoded pieces of canonical statements by text.  They hold only
        #: values the statements keep anyway, so a text seen once costs
        #: one entry and no extra object for the garbage collector.
        self._annotation_of: dict[str, Annotation] = {}
        self._params_of: dict[str, tuple[float, ...]] = {}
        self._operands_of: dict[str, tuple[Operand, ...]] = {}

    # Token helpers -----------------------------------------------------
    def peek(self, ahead: int = 0) -> RawToken:
        tokens = self.tokens
        while len(tokens) <= self.index + ahead:
            tokens.append(scan(self.source, tokens[-1][3] if tokens else self.end))
        return tokens[self.index + ahead]

    def advance(self) -> RawToken:
        token = self.peek()
        if token[0] != "eof":
            self.index += 1
            self.end = token[3]
        return token

    def error(self, message: str, token: RawToken) -> QasmSyntaxError:
        return syntax_error(self.source, message, token[2])

    def expect_symbol(self, symbol: str) -> RawToken:
        token = self.peek()
        if token[0] != "symbol" or token[1] != symbol:
            raise self.error(f"expected {symbol!r}, found {token[1]!r}", token)
        return self.advance()

    def expect_identifier(self) -> RawToken:
        token = self.peek()
        if token[0] != "identifier":
            raise self.error(f"expected identifier, found {token[1]!r}", token)
        return self.advance()

    def at_symbol(self, symbol: str) -> bool:
        token = self.peek()
        return token[0] == "symbol" and token[1] == symbol

    # Canonical statements ----------------------------------------------
    def _param_list(self, text: str) -> tuple[float, ...]:
        params = self._params_of.get(text)
        if params is None:
            params = self._params_of[text] = tuple(map(float, text.split(",")))
        return params

    def _operand_list(self, text: str) -> tuple[Operand, ...]:
        operands = self._operands_of.get(text)
        if operands is None:
            operands = self._operands_of[text] = _operands(text)
        return operands

    def _canonical(self, match: re.Match) -> Statement | None:
        """The statement a :data:`_STATEMENT` match spells, or None when
        the grammar must read it (a keyword in gate-call position)."""
        kind = match.lastgroup
        if kind == "call":
            name, params, operands = match.group("name", "params", "operands")
            if name not in _KEYWORDS and operands:
                return GateCall(
                    name=name,
                    params=self._param_list(params) if params else (),
                    operands=self._operand_list(operands),
                )
            if name == "barrier" and params is None:
                return BarrierStmt(operands=self._operand_list(operands) if operands else ())
            return None
        if kind == "measure":
            clbit, qubit = match.group("clbit", "qubit")
            if clbit.partition("[")[0] in _KEYWORDS:
                return None
            return MeasureStmt(
                qubit=self._operand_list(qubit)[0], clbit=self._operand_list(clbit)[0]
            )
        cls = QubitDecl if match.group("type") == "qubit" else ClbitDecl
        return cls(name=match.group("register"), size=int(match.group("size")))

    # Grammar -----------------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        token = self.peek()
        if token[0] == "identifier" and token[1] == "OPENQASM":
            self.advance()
            version = self.peek()
            if version[0] != "number":
                raise self.error("expected version number after OPENQASM", version)
            program.version = self.advance()[1]
            self.expect_symbol(";")
        source = self.source
        statements = program.statements
        annotations: list[Annotation] = []
        annotation_of = self._annotation_of
        pos = self.end
        while True:
            match = _STATEMENT.match(source, pos)
            statement = None
            if match is not None:
                if match.lastgroup == "annotation":
                    raw = match.group("annotation")
                    annotation = annotation_of.get(raw)
                    if annotation is None and raw.rstrip():
                        annotation = annotation_of[raw] = _annotation(raw.rstrip())
                    if annotation is not None:
                        annotations.append(annotation)
                        pos = match.end()
                        continue
                else:
                    statement, end = self._canonical(match), match.end()
            if statement is None:
                self.tokens, self.index, self.end = [], 0, pos
                statement = self.parse_statement(annotations)
                if statement is None:
                    return program
                end = self.end
            if annotations:
                statement.annotations = tuple(annotations)
                annotations = []
            statements.append(statement)
            pos = end

    def parse_statement(self, annotations: list[Annotation]) -> Statement | None:
        """The next statement with ``annotations`` (and any further ones)
        attached; None at the end of the text."""
        while self.peek()[0] == "annotation":
            annotations.append(_annotation(self.advance()[1]))
        token = self.peek()
        if token[0] == "eof":
            if annotations:
                raise self.error("annotations at end of file have no statement", token)
            return None
        if token[0] != "identifier":
            raise self.error(f"expected statement, found {token[1]!r}", token)
        return self._parse_statement_body(token)

    def _parse_statement_body(self, token: RawToken) -> Statement:
        keyword = token[1]
        if keyword == "include":
            self.advance()
            path = self.peek()
            if path[0] != "string":
                raise self.error("expected string after include", path)
            self.advance()
            self.expect_symbol(";")
            return IncludeStmt(path=path[1])
        if keyword in ("qreg", "creg"):
            self.advance()
            name = self.expect_identifier()[1]
            self.expect_symbol("[")
            size = self._parse_int()
            self.expect_symbol("]")
            self.expect_symbol(";")
            cls = QubitDecl if keyword == "qreg" else ClbitDecl
            return cls(name=name, size=size)
        if keyword in ("qubit", "bit"):
            self.advance()
            size = 1
            if self.at_symbol("["):
                self.advance()
                size = self._parse_int()
                self.expect_symbol("]")
            name = self.expect_identifier()[1]
            self.expect_symbol(";")
            cls = QubitDecl if keyword == "qubit" else ClbitDecl
            return cls(name=name, size=size)
        if keyword == "measure":
            # QASM2 style: measure q[i] -> c[i];
            self.advance()
            qubit = self._parse_operand()
            arrow = self.peek()
            if arrow[0] != "arrow":
                raise self.error("expected '->' in measure", arrow)
            self.advance()
            clbit = self._parse_operand()
            self.expect_symbol(";")
            return MeasureStmt(qubit=qubit, clbit=clbit)
        if keyword == "barrier":
            self.advance()
            operands: list[Operand] = []
            if not self.at_symbol(";"):
                operands.append(self._parse_operand())
                while self.at_symbol(","):
                    self.advance()
                    operands.append(self._parse_operand())
            self.expect_symbol(";")
            return BarrierStmt(operands=tuple(operands))
        if keyword == "gate":
            return self._parse_gate_definition()
        # QASM3 style measurement: c[i] = measure q[i];
        if self._looks_like_assignment_measure():
            clbit = self._parse_operand()
            self.expect_symbol("=")
            measure = self.expect_identifier()
            if measure[1] != "measure":
                raise self.error("only 'measure' may appear on the right of '='", measure)
            qubit = self._parse_operand()
            self.expect_symbol(";")
            return MeasureStmt(qubit=qubit, clbit=clbit)
        return self._parse_gate_call()

    def _looks_like_assignment_measure(self) -> bool:
        """Lookahead for ``ident[expr] = measure`` / ``ident = measure``."""
        if self.peek()[0] != "identifier":
            return False
        ahead = 1
        if self.peek(ahead)[:2] == ("symbol", "["):
            depth = 1
            ahead += 1
            while depth and self.peek(ahead)[0] != "eof":
                kind, value = self.peek(ahead)[:2]
                if kind == "symbol":
                    if value == "[":
                        depth += 1
                    elif value == "]":
                        depth -= 1
                ahead += 1
        return self.peek(ahead)[:2] == ("symbol", "=")

    def _parse_gate_definition(self) -> GateDefinition:
        """``gate name(p0, p1) q0, q1 { body }`` (OpenQASM 2-style macro)."""
        self.advance()  # 'gate'
        name = self.expect_identifier()[1]
        params: list[str] = []
        if self.at_symbol("("):
            self.advance()
            if not self.at_symbol(")"):
                params.append(self.expect_identifier()[1])
                while self.at_symbol(","):
                    self.advance()
                    params.append(self.expect_identifier()[1])
            self.expect_symbol(")")
        qubits = [self.expect_identifier()[1]]
        while self.at_symbol(","):
            self.advance()
            qubits.append(self.expect_identifier()[1])
        self.expect_symbol("{")
        previous_symbols = self._symbols
        self._symbols = set(params)
        body: list[GateCall] = []
        try:
            while not self.at_symbol("}"):
                token = self.peek()
                if token[0] == "eof":
                    raise self.error("unterminated gate body", token)
                statement = self._parse_gate_call()
                for reg, index in statement.operands:
                    if index is not None or reg not in qubits:
                        raise self.error(
                            f"gate body may only reference formal qubits, got "
                            f"{reg}{'' if index is None else f'[{index}]'}",
                            token,
                        )
                body.append(statement)
        finally:
            self._symbols = previous_symbols
        self.expect_symbol("}")
        return GateDefinition(
            name=name, params=tuple(params), qubits=tuple(qubits), body=tuple(body)
        )

    def _parse_gate_call(self) -> GateCall:
        name = self.expect_identifier()[1]
        params: tuple[float, ...] = ()
        if self.at_symbol("("):
            self.advance()
            values = []
            if not self.at_symbol(")"):
                values.append(self._parse_expression())
                while self.at_symbol(","):
                    self.advance()
                    values.append(self._parse_expression())
            self.expect_symbol(")")
            params = tuple(values)
        operands = [self._parse_operand()]
        while self.at_symbol(","):
            self.advance()
            operands.append(self._parse_operand())
        self.expect_symbol(";")
        return GateCall(name=name, params=params, operands=tuple(operands))

    def _parse_operand(self) -> Operand:
        name = self.expect_identifier()[1]
        index: int | None = None
        if self.at_symbol("["):
            self.advance()
            index = self._parse_int()
            self.expect_symbol("]")
        return (name, index)

    def _parse_int(self) -> int:
        token = self.peek()
        if token[0] != "number":
            raise self.error(f"expected integer, found {token[1]!r}", token)
        self.advance()
        try:
            return int(token[1])
        except ValueError as exc:
            raise self.error(f"expected integer, found {token[1]!r}", token) from exc

    # Expression parsing ---------------------------------------------------
    # Constants fold eagerly; identifiers bound as formal gate parameters
    # produce symbolic Expr trees evaluated at macro-expansion time.
    def _combine(self, op: str, lhs, rhs, token: RawToken):
        if isinstance(lhs, Expr) or isinstance(rhs, Expr):
            left = lhs if isinstance(lhs, Expr) else Num(float(lhs))
            right = rhs if isinstance(rhs, Expr) else Num(float(rhs))
            return BinOp(op, left, right)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0:
            raise self.error("division by zero", token)
        return lhs / rhs

    def _parse_expression(self):
        value = self._parse_term()
        while self.at_symbol("+") or self.at_symbol("-"):
            token = self.advance()
            rhs = self._parse_term()
            value = self._combine(token[1], value, rhs, token)
        return value

    def _parse_term(self):
        value = self._parse_factor()
        while self.at_symbol("*") or self.at_symbol("/"):
            token = self.advance()
            rhs = self._parse_factor()
            value = self._combine(token[1], value, rhs, token)
        return value

    def _parse_factor(self):
        token = self.peek()
        kind, value = token[:2]
        if self.at_symbol("-"):
            self.advance()
            inner = self._parse_factor()
            return Neg(inner) if isinstance(inner, Expr) else -inner
        if self.at_symbol("+"):
            self.advance()
            return self._parse_factor()
        if self.at_symbol("("):
            self.advance()
            result = self._parse_expression()
            self.expect_symbol(")")
            return result
        if kind == "number":
            self.advance()
            try:
                return float(value)
            except ValueError as exc:
                raise self.error(f"malformed number {value!r}", token) from exc
        if kind == "identifier" and value in _CONSTANTS:
            self.advance()
            return _CONSTANTS[value]
        if kind == "identifier" and value in self._symbols:
            self.advance()
            return Sym(value)
        raise self.error(f"expected expression, found {value!r}", token)


def parse_qasm(source: str) -> Program:
    """Parse OpenQASM/wQasm source text into a :class:`Program`."""
    try:
        return _Parser(source).parse_program()
    except QasmSyntaxError:
        # A lexical error anywhere in the text is reported ahead of a
        # grammar error, as if the whole text were tokenized up front.
        for _ in scan_all(source):
            pass
        raise


def annotation_line(source: str, annotation: Annotation) -> int | None:
    """The line of the first annotation in ``source`` that reads as
    ``annotation``, for errors found after parsing."""
    for kind, value, start, _ in scan_all(source):
        if kind == "annotation" and _annotation(value) == annotation:
            return location(source, start)[0]
    return None
