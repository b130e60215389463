"""The wQasm program artifact: logical circuit + FPQA instruction stream.

A :class:`WQasmProgram` is what the wOptimizer emits and the wChecker
consumes.  It deliberately contains *redundant* information, as §4.2
describes: the logical gate statements (portable OpenQASM) and the FPQA
annotations that implement them.  Consistency between the two views is not
assumed — checking it is exactly the wChecker's job.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..circuits import Instruction, QuantumCircuit
from ..exceptions import AnnotationError
from ..fpqa.instructions import (
    FPQAInstruction,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    ShuttleMove,
    Transfer,
)
from ..qasm.ast import Annotation
from ..qasm.loader import load_circuit
from ..qasm.parser import annotation_line, parse_qasm
from .annotations import annotation_to_instruction, instruction_to_annotation


@dataclass(frozen=True)
class AnnotatedOperation:
    """One wQasm step: FPQA instructions plus the logical gates they realize.

    ``instructions`` lists movement steps and the pulse, in execution
    order; ``gates`` lists the logical instructions the pulse implements
    (several for a Rydberg pulse acting on many clusters, none for pure
    movement/parking steps).
    """

    instructions: tuple[FPQAInstruction, ...]
    gates: tuple[Instruction, ...] = ()


@dataclass
class WQasmProgram:
    """A complete compiled FPQA program."""

    num_qubits: int
    setup: tuple[FPQAInstruction, ...] = ()
    operations: list[AnnotatedOperation] = field(default_factory=list)
    measured: bool = False
    name: str = "wqasm"

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def logical_circuit(self) -> QuantumCircuit:
        """The portable OpenQASM view (annotations stripped)."""
        circuit = QuantumCircuit(self.num_qubits, name=self.name)
        for operation in self.operations:
            for gate in operation.gates:
                circuit.append(gate.gate, gate.qubits)
        if self.measured:
            circuit.measure_all()
        return circuit

    def fpqa_instructions(self) -> list[FPQAInstruction]:
        """The full FPQA instruction stream, setup included."""
        stream: list[FPQAInstruction] = list(self.setup)
        for operation in self.operations:
            stream.extend(operation.instructions)
        return stream

    def pulse_counts(self) -> dict[str, int]:
        """Histogram of FPQA instruction kinds (the Fig. 10(b) metric).

        Shuttles are counted as elementary row/column moves so the metric
        is independent of how moves are grouped into parallel batches.
        """
        counts = {
            "raman_local": 0,
            "raman_global": 0,
            "rydberg": 0,
            "shuttle": 0,
            "transfer": 0,
        }
        for instruction in self.fpqa_instructions():
            if isinstance(instruction, RamanLocal):
                counts["raman_local"] += 1
            elif isinstance(instruction, RamanGlobal):
                counts["raman_global"] += 1
            elif isinstance(instruction, RydbergPulse):
                counts["rydberg"] += 1
            elif isinstance(instruction, Shuttle):
                counts["shuttle"] += 1
            elif isinstance(instruction, ParallelShuttle):
                counts["shuttle"] += len(instruction.moves)
            elif isinstance(instruction, Transfer):
                counts["transfer"] += 1
        return counts

    @property
    def total_pulses(self) -> int:
        return sum(self.pulse_counts().values())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_wqasm(self) -> str:
        """Serialize to wQasm text (OpenQASM 3 + annotations)."""
        lines = ["OPENQASM 3.0;"]
        for instruction in self.setup:
            for annotation in instruction_to_annotation(instruction):
                lines.append(f"@{annotation.keyword} {annotation.content}".rstrip())
        lines.append(f"qubit[{self.num_qubits}] q;")
        if self.measured:
            lines.append(f"bit[{self.num_qubits}] c;")
        for operation in self.operations:
            for instruction in operation.instructions:
                for annotation in instruction_to_annotation(instruction):
                    lines.append(f"@{annotation.keyword} {annotation.content}".rstrip())
            if operation.gates:
                for gate in operation.gates:
                    params = ""
                    if gate.params:
                        params = "(" + ", ".join(repr(p) for p in gate.params) + ")"
                    operands = ", ".join(f"q[{q}]" for q in gate.qubits)
                    lines.append(f"{gate.name}{params} {operands};")
            else:
                # Pure-movement step: annotations must attach to a statement.
                lines.append("barrier;")
        if self.measured:
            for qubit in range(self.num_qubits):
                lines.append(f"c[{qubit}] = measure q[{qubit}];")
        return "\n".join(lines) + "\n"


def parse_wqasm(source: str, name: str = "wqasm") -> WQasmProgram:
    """Parse wQasm text back into a :class:`WQasmProgram`.

    Statements without annotations join the preceding operation (e.g. the
    extra gates applied by the same Rydberg pulse); annotated statements
    start a new operation.  Parallel shuttle groups arrive as single
    ``@shuttle`` annotations with ``;``-joined moves, so the parsed
    instruction stream — and therefore the derived schedule, duration,
    and EPS — matches the serialized program exactly.

    Each distinct statement text is decoded once per call: the parser,
    the loader and the annotation codec each keep a table for the call
    (the codec a second one for ``@shuttle`` moves, which recur across
    batches), and textual twins share the frozen values those tables
    hold.

    A malformed annotation raises :class:`AnnotationError` naming its line.
    """
    instructions_of: dict[Annotation, FPQAInstruction] = {}
    moves_of: dict[str, ShuttleMove] = {}

    def decode(annotations: Iterable[Annotation]) -> list[FPQAInstruction]:
        instructions = []
        for annotation in annotations:
            instruction = instructions_of.get(annotation)
            if instruction is None:
                try:
                    instruction = annotation_to_instruction(annotation, moves_of)
                except AnnotationError as exc:
                    raise AnnotationError(str(exc), annotation_line(source, annotation)) from exc
                instructions_of[annotation] = instruction
            instructions.append(instruction)
        return instructions

    loaded = load_circuit(parse_qasm(source), name=name)
    setup = tuple(decode(loaded.setup_annotations))
    program = WQasmProgram(
        num_qubits=loaded.circuit.num_qubits, setup=setup, name=name
    )
    current_instructions: list[FPQAInstruction] = []
    current_gates: list[Instruction] = []
    measured = False

    def flush() -> None:
        nonlocal current_instructions, current_gates
        if current_instructions or current_gates:
            program.operations.append(
                AnnotatedOperation(tuple(current_instructions), tuple(current_gates))
            )
            current_instructions = []
            current_gates = []

    for inst, annotations in zip(
        loaded.circuit.instructions, loaded.instruction_annotations
    ):
        if annotations:
            flush()
            current_instructions = decode(annotations)
        if inst.name == "measure":
            measured = True
            continue
        if inst.name == "barrier":
            # Barrier statements only exist to host annotations.
            continue
        current_gates.append(inst)
    flush()
    program.measured = measured
    return program
