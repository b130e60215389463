"""Circuit-IR checks for gate-level targets.

Targets that emit no pulse program (superconducting, baseline adapters)
still produce a circuit; these structural checks give them the same
admission gate.  They are deliberately conservative — transpiled
backends legitimately leave ancilla qubits idle, so idleness is not
flagged here — to keep the analyzer's zero-false-positive contract.
"""

from __future__ import annotations

from . import registry as R
from .diagnostics import Sink, SourceLocation

CIRCUIT_RULES = (
    R.CIRCUIT_QUBIT_RANGE,
    R.CIRCUIT_DUPLICATE_OPERAND,
    R.CIRCUIT_GATE_AFTER_MEASURE,
    R.CIRCUIT_EMPTY,
)


def check_circuit(circuit, sink: Sink) -> dict:
    """Walk a :class:`~repro.circuits.QuantumCircuit` once."""
    instructions = getattr(circuit, "instructions", [])
    num_qubits = getattr(circuit, "num_qubits", 0)
    if not instructions:
        sink(
            R.CIRCUIT_EMPTY.diagnostic(
                "circuit contains no instructions", location=SourceLocation()
            )
        )
        return {"circuit_instructions": 0}
    measured: set[int] = set()
    for index, instruction in enumerate(instructions):
        location = SourceLocation(operation=index)
        name = instruction.name
        seen: set[int] = set()
        for qubit in instruction.qubits:
            if not 0 <= qubit < num_qubits:
                sink(
                    R.CIRCUIT_QUBIT_RANGE.diagnostic(
                        f"{name} references qubit {qubit} outside the "
                        f"{num_qubits}-qubit register",
                        location=location,
                        qubits=(qubit,),
                    )
                )
            if qubit in seen:
                sink(
                    R.CIRCUIT_DUPLICATE_OPERAND.diagnostic(
                        f"{name} lists qubit {qubit} twice",
                        location=location,
                        qubits=(qubit,),
                    )
                )
            seen.add(qubit)
        if name == "measure":
            measured.update(instruction.qubits)
        elif name != "barrier":
            stale = measured.intersection(instruction.qubits)
            if stale:
                sink(
                    R.CIRCUIT_GATE_AFTER_MEASURE.diagnostic(
                        f"{name} acts on already-measured qubit(s) "
                        f"{sorted(stale)}",
                        location=location,
                        qubits=tuple(sorted(stale)),
                    )
                )
    return {"circuit_instructions": len(instructions)}
