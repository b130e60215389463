"""Reference statevector engines for the simulator's differential tests.

``NaiveStatevectorEngine`` (one dense ``2^n x 2^n`` operator per gate)
moved out of ``repro.sim.engine`` unchanged except for its imports
(absolute ``repro`` paths).  ``test_sim.py`` checks that
:class:`repro.sim.StatevectorEngine` produces the same states, and
``benchmarks/test_sim_throughput.py`` times the two against each other.

``UnfusedStatevectorEngine`` applies every gate and every Pauli insert
on its own, so ``test_sim_replay.py`` can check the plan's fused
blocks and branch forks at widths the naive engine cannot reach.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.gates import gate_matrix
from repro.exceptions import SimulationError
from repro.linalg import apply_gate_to_state, expand_gate
from repro.sim.engine import _instruction_list


class NaiveStatevectorEngine:
    """Reference engine: full ``2^n x 2^n`` operator per gate, then matmul.

    Quadratically more memory traffic per gate than the vectorized
    engine; exists as the differential-testing oracle and the benchmark
    baseline (``benchmarks/test_sim_throughput.py`` pins the >= 5x gap).
    """

    name = "naive"

    def __init__(self, num_qubits: int):
        from repro.linalg import MAX_UNITARY_QUBITS

        if num_qubits > MAX_UNITARY_QUBITS:
            raise SimulationError(
                f"the naive engine builds dense operators; {num_qubits} "
                f"qubits exceeds the {MAX_UNITARY_QUBITS}-qubit limit"
            )
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits

    def run(self, circuit, initial_state: np.ndarray | None = None) -> np.ndarray:
        instructions = _instruction_list(circuit)
        if initial_state is None:
            state = np.zeros(self.dim, dtype=complex)
            state[0] = 1.0
        else:
            state = np.array(initial_state, dtype=complex)
        for inst in instructions:
            if not inst.gate.is_unitary:
                continue
            operator = expand_gate(inst.gate.matrix(), inst.qubits, self.num_qubits)
            state = operator @ state
        return state


class UnfusedStatevectorEngine:
    """Reference engine: one ``apply_gate_to_state`` per gate, no plan.

    ``inserts`` are ``(position, qubit, pauli)`` triples, each applied
    as its own gate just before the instruction at ``position`` (after
    the last one when ``position`` is the stream's length), in sorted
    order, as :meth:`repro.sim.StatevectorEngine.replay` applies them.
    """

    name = "unfused"

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits

    def run(self, circuit, inserts=()) -> np.ndarray:
        instructions = _instruction_list(circuit)
        paulis: dict[int, list] = {}
        for position, qubit, pauli in sorted(inserts):
            paulis.setdefault(position, []).append((qubit, pauli))
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        for position in range(len(instructions) + 1):
            for qubit, pauli in paulis.get(position, ()):
                state = apply_gate_to_state(
                    gate_matrix(pauli), [qubit], state, self.num_qubits
                )
            if position < len(instructions) and instructions[position].gate.is_unitary:
                inst = instructions[position]
                state = apply_gate_to_state(
                    inst.gate.matrix(), inst.qubits, state, self.num_qubits
                )
        return state
