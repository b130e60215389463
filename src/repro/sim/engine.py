"""Dense statevector execution engine.

:class:`StatevectorEngine` is the production engine: the gate-application
hot loop works on the state reshaped as a rank-``n`` tensor, so a
``k``-qubit gate costs ``O(2^n)`` vectorized numpy work instead of a
``2^n x 2^n`` matmul.  Three specializations carry compiled FPQA replays
(which are almost entirely ``u3`` + ``cz``/``ccz``):

* adjacent single-qubit gates on the same qubit fuse into one 2x2 matrix
  before touching the state (single-qubit gates commute past anything
  that does not share their qubit);
* single-qubit matrices apply through an axis reshape
  (``(..., 2, 2**q)``) with two fused multiply-adds;
* diagonal multi-qubit gates (``cz``/``ccz``/``mcz``/``rzz``/``cp``)
  multiply basis-state slices in place and never build a matrix.

The dense ``expand_gate``-then-matmul engine it replaced lives on only
as a test oracle (``tests/oracles/sim.py``), for the differential tests
and the ``benchmarks/test_sim_throughput.py`` speedup floor.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import gate_matrix
from ..exceptions import SimulationError
from ..linalg import (
    MAX_STATEVECTOR_QUBITS,
    apply_gate_to_state,
)

#: Multi-qubit gates whose matrix is diagonal in the computational basis;
#: they apply as in-place slice phase multiplications.  (Single-qubit
#: diagonals don't appear here: every 1q gate goes through the fusion
#: path, which is cheaper still.)
DIAGONAL_GATES = frozenset({"cz", "ccz", "mcz", "rzz", "cp"})

#: One insertion into a gate stream: apply ``pauli`` on ``qubit`` just
#: before the instruction at ``position`` (``position == len`` appends).
PauliInsert = tuple[int, int, str]

_PAULI_MATRICES = {
    "x": gate_matrix("x"),
    "y": gate_matrix("y"),
    "z": gate_matrix("z"),
}


def _instruction_list(circuit) -> list[Instruction]:
    if isinstance(circuit, QuantumCircuit):
        return circuit.instructions
    return list(circuit)


class StatevectorEngine:
    """Vectorized statevector simulator for up to
    :data:`repro.linalg.MAX_STATEVECTOR_QUBITS` qubits."""

    name = "statevector"

    def __init__(self, num_qubits: int, profiler=None):
        if num_qubits < 1:
            raise SimulationError("simulation needs at least one qubit")
        if num_qubits > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(
                f"cannot simulate a statevector for {num_qubits} qubits "
                f"(limit {MAX_STATEVECTOR_QUBITS})"
            )
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits
        self.profiler = profiler

    # ------------------------------------------------------------------
    # States
    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        state = np.zeros(self.dim, dtype=complex)
        state[0] = 1.0
        return state

    def run(
        self,
        circuit,
        initial_state: np.ndarray | None = None,
        inserts: Sequence[PauliInsert] = (),
    ) -> np.ndarray:
        """Run a circuit (or instruction list), returning the final state.

        ``inserts`` lists Pauli-error insertions as ``(position, qubit,
        pauli)``; this is how the Monte-Carlo noise layer realizes one
        sampled error trajectory without rewriting the instruction list.
        """
        instructions = _instruction_list(circuit)
        if initial_state is None:
            state = self.initial_state()
        else:
            state = np.array(initial_state, dtype=complex)
            if state.shape != (self.dim,):
                raise SimulationError(
                    f"initial state has shape {state.shape}, expected ({self.dim},)"
                )
        return self.apply_segment(
            state, instructions, 0, len(instructions), inserts
        )

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------
    def apply_segment(
        self,
        state: np.ndarray,
        instructions: Sequence[Instruction],
        start: int,
        stop: int,
        inserts: Sequence[PauliInsert] = (),
    ) -> np.ndarray:
        """Apply ``instructions[start:stop]`` to ``state`` in place.

        Exposed separately from :meth:`run` so the executor can share a
        common prefix across many error trajectories: advance one base
        state once, then branch copies at each trajectory's first error.
        Returns the state array (same object unless a dense fallback
        reallocated it).
        """
        pending: dict[int, np.ndarray] = {}
        insert_queue = [
            item for item in sorted(inserts) if start <= item[0] <= stop
        ]
        insert_index = 0
        counts = {"fused": 0, "one_qubit": 0, "diagonal": 0, "dense": 0}

        def flush(qubits: Iterable[int] | None = None) -> None:
            nonlocal state
            targets = sorted(pending) if qubits is None else [
                q for q in qubits if q in pending
            ]
            for q in targets:
                state = self._apply_1q(state, pending.pop(q), q)
                counts["one_qubit"] += 1

        for index in range(start, stop):
            while (
                insert_index < len(insert_queue)
                and insert_queue[insert_index][0] == index
            ):
                _, qubit, pauli = insert_queue[insert_index]
                flush()
                state = self._apply_1q(state, _PAULI_MATRICES[pauli], qubit)
                counts["one_qubit"] += 1
                insert_index += 1
            inst = instructions[index]
            gate = inst.gate
            if not gate.is_unitary:
                continue
            qubits = inst.qubits
            if len(qubits) == 1:
                q = qubits[0]
                matrix = gate.matrix()
                held = pending.get(q)
                if held is not None:
                    pending[q] = matrix @ held
                    counts["fused"] += 1
                else:
                    pending[q] = matrix
                continue
            flush(qubits)
            if gate.name in DIAGONAL_GATES:
                self._apply_diagonal(state, gate, qubits)
                counts["diagonal"] += 1
            else:
                state = apply_gate_to_state(
                    gate.matrix(), qubits, state, self.num_qubits
                )
                counts["dense"] += 1
        while insert_index < len(insert_queue):
            _, qubit, pauli = insert_queue[insert_index]
            flush()
            state = self._apply_1q(state, _PAULI_MATRICES[pauli], qubit)
            counts["one_qubit"] += 1
            insert_index += 1
        flush()
        if self.profiler is not None:
            for kind, count in counts.items():
                if count:
                    self.profiler.add(f"sim.gates.{kind}", 0.0, count=count)
        return state

    def _apply_1q(self, state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
        """Apply a 2x2 matrix on qubit ``q`` via an axis reshape.

        Little-endian layout: bit ``q`` of a basis index has stride
        ``2**q``, so reshaping to ``(-1, 2, 2**q)`` isolates it on the
        middle axis and the gate is one batched BLAS matmul over the
        whole state — a single memory pass, no operator embedding.  For
        small strides the batch shape degenerates (millions of tiny
        matmuls), so the gate is instead expanded over the stride
        (``kron(m, I)``, at most 32x32) and applied as one tall-skinny
        matmul on contiguous chunks.
        """
        length = 1 << q
        if length >= 32:
            return np.matmul(
                matrix, state.reshape(-1, 2, length)
            ).reshape(self.dim)
        expanded = np.kron(matrix, np.eye(length, dtype=complex))
        return (state.reshape(-1, 2 * length) @ expanded.T).reshape(self.dim)

    def _apply_diagonal(self, state: np.ndarray, gate, qubits) -> None:
        """Multiply a diagonal gate's phases onto basis-state slices."""
        n = self.num_qubits
        tensor = state.reshape((2,) * n)
        if gate.name in ("cz", "ccz", "mcz"):
            # Single -1 phase on the all-ones subspace of ``qubits``.
            index = [slice(None)] * n
            for q in qubits:
                index[n - 1 - q] = 1
            tensor[tuple(index)] *= -1.0
            return
        diag = np.diagonal(gate.matrix())
        k = len(qubits)
        for b in range(1 << k):
            phase = diag[b]
            if phase == 1.0:
                continue
            index = [slice(None)] * n
            for j, q in enumerate(qubits):
                # Gate-local big-endian: qubits[0] is the MSB of ``b``.
                index[n - 1 - q] = (b >> (k - 1 - j)) & 1
            tensor[tuple(index)] *= phase

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def probabilities(self, state: np.ndarray) -> np.ndarray:
        probs = np.abs(state) ** 2
        total = probs.sum()
        if total <= 0:
            raise SimulationError("state has zero norm; cannot sample")
        return probs / total

    def sample(
        self, state: np.ndarray, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``shots`` basis indices from ``|state|^2``."""
        if shots < 0:
            raise SimulationError("shots must be non-negative")
        if shots == 0:
            return np.empty(0, dtype=np.int64)
        probs = self.probabilities(state)
        return rng.choice(self.dim, size=shots, p=probs).astype(np.int64)


def bitstring(basis: int, num_qubits: int) -> str:
    """Little-endian bitstring of a basis index (qubit 0 leftmost).

    Matches :func:`repro.circuits.measurement_distribution` keys.
    """
    return "".join(
        "1" if (basis >> q) & 1 else "0" for q in range(num_qubits)
    )
