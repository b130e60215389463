"""Convert parsed OpenQASM programs into circuits (and keep annotations)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits import Instruction, QuantumCircuit
from ..circuits.gates import GATE_ALIASES, Gate, make_gate
from ..exceptions import QasmSemanticError
from .ast import (
    Annotation,
    BarrierStmt,
    ClbitDecl,
    GateCall,
    GateDefinition,
    IncludeStmt,
    MeasureStmt,
    Program,
    QubitDecl,
    evaluate_param,
)
from .parser import parse_qasm

_MAX_MACRO_DEPTH = 32

#: Declared register sizes beyond this are user errors, not honest
#: workloads: the framework targets machines of a few hundred qubits,
#: and an absurd declaration would otherwise explode broadcast expansion
#: into a MemoryError (an internal crash) instead of a clear message.
_MAX_REGISTER_SIZE = 100_000


def _expand_macro(
    definition: GateDefinition,
    params: tuple[float, ...],
    qubits: list[int],
    macros: dict[str, GateDefinition],
    depth: int = 0,
) -> list[tuple[Gate, tuple[int, ...]]]:
    """Flatten a user-defined gate call into concrete library gates."""
    if depth > _MAX_MACRO_DEPTH:
        raise QasmSemanticError(
            f"gate {definition.name!r} expands too deeply (recursive definition?)"
        )
    if len(params) != len(definition.params):
        raise QasmSemanticError(
            f"gate {definition.name!r} takes {len(definition.params)} "
            f"parameter(s), got {len(params)}"
        )
    if len(qubits) != len(definition.qubits):
        raise QasmSemanticError(
            f"gate {definition.name!r} acts on {len(definition.qubits)} "
            f"qubit(s), got {len(qubits)}"
        )
    env = dict(zip(definition.params, params))
    binding = dict(zip(definition.qubits, qubits))
    expanded: list[tuple[Gate, tuple[int, ...]]] = []
    for call in definition.body:
        name = GATE_ALIASES.get(call.name, call.name)
        args = tuple(evaluate_param(p, env) for p in call.params)
        call_qubits = tuple(binding[reg] for reg, _ in call.operands)
        if name in macros:
            expanded.extend(
                _expand_macro(macros[name], args, list(call_qubits), macros, depth + 1)
            )
        else:
            expanded.append(
                (make_gate(name, args, num_qubits=len(call_qubits)), call_qubits)
            )
    return expanded


@dataclass
class LoadedProgram:
    """Result of lowering a QASM AST: circuit plus annotation bookkeeping.

    ``instruction_annotations[i]`` holds the annotations that preceded the
    statement producing circuit instruction ``i``.  ``setup_annotations``
    holds annotations attached to declarations (wQasm puts ``@slm``/``@aod``
    /``@bind`` there).  This preserves the wQasm association between FPQA
    steps and logical gates (§4.2).
    """

    circuit: QuantumCircuit
    instruction_annotations: list[tuple[Annotation, ...]] = field(default_factory=list)
    setup_annotations: list[Annotation] = field(default_factory=list)
    qubit_registers: dict[str, tuple[int, int]] = field(default_factory=dict)
    clbit_registers: dict[str, tuple[int, int]] = field(default_factory=dict)


def load_circuit(program: Program, name: str = "qasm") -> LoadedProgram:
    """Lower an AST into a flat-indexed :class:`QuantumCircuit`.

    Registers are flattened into consecutive integer indices in declaration
    order; broadcast gate calls (``h q;``) expand to one instruction per
    qubit with the annotations attached to the first expansion only.

    Each distinct library call on single qubits is validated once per
    call: its textual twins (which share their parameter tuple, see
    :func:`parse_qasm`) append the same frozen :class:`Instruction`.  No
    call is shared once a ``gate`` definition is in scope.
    """
    qubit_regs: dict[str, tuple[int, int]] = {}
    clbit_regs: dict[str, tuple[int, int]] = {}
    num_qubits = 0
    num_clbits = 0
    for statement in program.statements:
        if isinstance(statement, (QubitDecl, ClbitDecl)):
            if statement.size > _MAX_REGISTER_SIZE:
                raise QasmSemanticError(
                    f"register {statement.name!r} declares {statement.size} "
                    f"wires; the supported maximum is {_MAX_REGISTER_SIZE}"
                )
        if isinstance(statement, QubitDecl):
            if statement.name in qubit_regs:
                raise QasmSemanticError(f"duplicate qubit register {statement.name!r}")
            qubit_regs[statement.name] = (num_qubits, statement.size)
            num_qubits += statement.size
        elif isinstance(statement, ClbitDecl):
            if statement.name in clbit_regs:
                raise QasmSemanticError(f"duplicate bit register {statement.name!r}")
            clbit_regs[statement.name] = (num_clbits, statement.size)
            num_clbits += statement.size

    circuit = QuantumCircuit(num_qubits, num_clbits, name=name)
    annotations: list[tuple[Annotation, ...]] = []
    setup: list[Annotation] = []

    def resolve(regs: dict[str, tuple[int, int]], operand, kind: str) -> list[int]:
        reg_name, index = operand
        if reg_name not in regs:
            raise QasmSemanticError(f"unknown {kind} register {reg_name!r}")
        offset, size = regs[reg_name]
        if index is None:
            return list(range(offset, offset + size))
        if not 0 <= index < size:
            raise QasmSemanticError(
                f"index {index} out of range for {kind} register "
                f"{reg_name!r} of size {size}"
            )
        return [offset + index]

    macros: dict[str, GateDefinition] = {}
    # (name, params, operands) -> Instruction.  Equal params are not
    # enough for a hit (-0.0 == 0.0, 1 == 1.0, and the gate keeps the
    # values it is given): it needs the very tuple the gate holds, which
    # textual twins share through the parser's table.
    lowered: dict[tuple, Instruction] = {}
    for statement in program.statements:
        if isinstance(statement, (QubitDecl, ClbitDecl, IncludeStmt)):
            setup.extend(statement.annotations)
            continue
        if isinstance(statement, GateDefinition):
            if statement.name in macros:
                raise QasmSemanticError(f"gate {statement.name!r} redefined")
            macros[statement.name] = statement
            continue
        if isinstance(statement, GateCall):
            key = (statement.name, statement.params, statement.operands)
            if not macros:
                instruction = lowered.get(key)
                if instruction is not None and instruction.gate.params is statement.params:
                    circuit.instructions.append(instruction)
                    annotations.append(statement.annotations)
                    continue
            gate_name = GATE_ALIASES.get(statement.name, statement.name)
            operand_lists = [
                resolve(qubit_regs, op, "qubit") for op in statement.operands
            ]
            broadcast = max(len(ops) for ops in operand_lists)
            for ops in operand_lists:
                if len(ops) not in (1, broadcast):
                    raise QasmSemanticError(
                        f"mismatched broadcast in gate {statement.name!r}"
                    )
            for rep in range(broadcast):
                qubits = [
                    ops[rep] if len(ops) > 1 else ops[0] for ops in operand_lists
                ]
                if gate_name in macros:
                    params = tuple(float(p) for p in statement.params)
                    first = len(annotations)
                    for gate, macro_qubits in _expand_macro(
                        macros[gate_name], params, qubits, macros
                    ):
                        circuit.append(gate, macro_qubits)
                        annotations.append(())
                    if statement.annotations and rep == 0 and first < len(annotations):
                        # Attach the call's annotations to its first gate.
                        annotations[first] = statement.annotations
                    continue
                gate = make_gate(gate_name, statement.params, num_qubits=len(qubits))
                circuit.append(gate, qubits)
                annotations.append(statement.annotations if rep == 0 else ())
            if broadcast == 1 and not macros:
                lowered[key] = circuit.instructions[-1]
            continue
        if isinstance(statement, MeasureStmt):
            qubits = resolve(qubit_regs, statement.qubit, "qubit")
            clbits = resolve(clbit_regs, statement.clbit, "bit")
            if len(qubits) != len(clbits):
                raise QasmSemanticError("measure register size mismatch")
            for pos, (q, c) in enumerate(zip(qubits, clbits)):
                circuit.measure(q, c)
                annotations.append(statement.annotations if pos == 0 else ())
            continue
        if isinstance(statement, BarrierStmt):
            if statement.operands:
                barrier_qubits: list[int] = []
                for op in statement.operands:
                    barrier_qubits.extend(resolve(qubit_regs, op, "qubit"))
                circuit.barrier(barrier_qubits)
            else:
                circuit.barrier()
            annotations.append(statement.annotations)
            continue
        raise QasmSemanticError(f"unsupported statement {statement!r}")

    return LoadedProgram(
        circuit=circuit,
        instruction_annotations=annotations,
        setup_annotations=setup,
        qubit_registers=qubit_regs,
        clbit_registers=clbit_regs,
    )


def qasm_to_circuit(source: str, name: str = "qasm") -> QuantumCircuit:
    """One-step parse + load returning only the circuit."""
    return load_circuit(parse_qasm(source), name=name).circuit
