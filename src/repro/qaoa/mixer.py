"""QAOA initialization and mixer layers (paper §5: "QAOA Init/Mixer")."""

from __future__ import annotations

from ..circuits import Gate, QuantumCircuit

#: The one ``h`` every initialization layer shares (gates are frozen values).
_H = Gate("h", 1)


def append_initialization(circuit: QuantumCircuit) -> None:
    """Append a Hadamard on every qubit of ``circuit``."""
    for qubit in range(circuit.num_qubits):
        circuit.append(_H, (qubit,))


def append_mixer(circuit: QuantumCircuit, beta: float) -> None:
    """Append ``RX(2*beta)`` on every qubit of ``circuit`` (one shared gate)."""
    rx = Gate("rx", 1, (2.0 * beta,))
    for qubit in range(circuit.num_qubits):
        circuit.append(rx, (qubit,))


def initialization_circuit(num_qubits: int) -> QuantumCircuit:
    """Uniform superposition: Hadamard on every qubit (mixer ground state)."""
    circuit = QuantumCircuit(num_qubits, name="qaoa-init")
    append_initialization(circuit)
    return circuit


def mixer_circuit(num_qubits: int, beta: float) -> QuantumCircuit:
    """Transverse-field mixer ``exp(-i*beta*sum X_i)``: ``RX(2*beta)`` each."""
    circuit = QuantumCircuit(num_qubits, name="qaoa-mixer")
    append_mixer(circuit, beta)
    return circuit
