"""Dense statevector execution engine.

:class:`StatevectorEngine` works on the state reshaped as a rank-``n``
tensor, so a ``k``-qubit gate costs ``O(2^n)`` vectorized numpy work
instead of a ``2^n x 2^n`` matmul.  It never walks an instruction list
directly: :meth:`StatevectorEngine.plan` compiles the stream once into
a :class:`Plan`, and :meth:`StatevectorEngine.replay` is the one
gate-application loop.  A compiled FPQA replay is almost entirely
``u3`` + ``cz``/``ccz``, so a plan step is one of:

* a fused single-qubit block: adjacent single-qubit gates on the same
  qubit multiply into one 2x2 matrix (they commute past anything that
  does not share their qubit), and when one qubit's matrix must be
  applied, every pending matrix in its block of neighbouring qubits
  goes with it as one Kronecker product.  Qubits 0-4 (strides below
  32) form one block, stored already expanded over the stride
  (``kron(M, I)``, at most 32x32) for one tall-skinny matmul; higher
  qubits form fixed blocks of four (5-8, 9-12, ...), each one batched
  matmul of an at most 16x16 matrix over the ``(..., 2**k, 2**lo)``
  axis reshape;
* a precomputed basis-state slice for ``cz``/``ccz``/``mcz``, negated
  in place; other diagonal gates (``rzz``/``cp``) keep a slice per
  non-unit phase;
* a dense fallback for any other multi-qubit gate.

One plan serves many walks.  The executor builds it once per run with
a fusion break at every ``(position, qubit)`` where an error trajectory
inserts a Pauli, then replays it once for the ideal state, which is
also the shared prefix, and once per branch from where it forks off.
:meth:`~StatevectorEngine.run` and
:meth:`~StatevectorEngine.apply_segment` build a plan per call.

The dense ``expand_gate``-then-matmul engine this replaced lives on only
as a test oracle (``tests/oracles/sim.py``), for the differential tests
and the ``benchmarks/test_sim_throughput.py`` speedup floor.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

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
#: diagonals don't appear here: every 1q gate goes through fusion,
#: which is cheaper still.)
DIAGONAL_GATES = frozenset({"cz", "ccz", "mcz", "rzz", "cp"})

#: Diagonal gates whose only non-unit phase is -1 on the all-ones
#: subspace of their qubits.
_NEGATED_GATES = frozenset({"cz", "ccz", "mcz"})

#: One insertion into a gate stream: apply ``pauli`` on ``qubit`` just
#: before the instruction at ``position`` (``position == len`` appends).
PauliInsert = tuple[int, int, str]

_PAULI_MATRICES = {
    "x": gate_matrix("x"),
    "y": gate_matrix("y"),
    "z": gate_matrix("z"),
}

# Plan step opcodes: the first field of a ``(op, arg, matrix)`` step.
_MATMUL = 0    # matrix @ state.reshape(arg); strides >= 32
_EXPANDED = 1  # state.reshape(arg) @ matrix; matrix is kron(M, I).T
_NEGATE = 2    # tensor[arg] *= -1, in place
_PHASES = 3    # tensor[index] *= phase, in place, for (index, phase) in arg
_DENSE = 4     # apply_gate_to_state(matrix, arg, ...)

#: Qubits below this one have a stride under 32 and share one block;
#: the qubits above it form blocks of :data:`_BLOCK_WIDTH`.
_LOW_QUBITS = 5
_BLOCK_WIDTH = 4

#: Identity blocks for the single-qubit strides below 32.
_EYES = {1 << q: np.eye(1 << q, dtype=complex) for q in range(_LOW_QUBITS)}

#: The ``sim.gates.*`` counters, in plan tally column order.
_GATE_COUNTERS = ("fused", "one_qubit", "diagonal", "dense")


def _scale(block: np.ndarray, factor) -> None:
    """Multiply a view of the state in place (see the replay loop)."""
    block *= factor


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` by one broadcast product, without kron's
    generic shape handling (a plan builds hundreds)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _block(q: int) -> range:
    """The neighbouring qubits whose pending matrices apply with ``q``'s."""
    if q < _LOW_QUBITS:
        return range(_LOW_QUBITS)
    lo = q - (q - _LOW_QUBITS) % _BLOCK_WIDTH
    return range(lo, lo + _BLOCK_WIDTH)


def _instruction_list(circuit) -> list[Instruction]:
    if isinstance(circuit, QuantumCircuit):
        return circuit.instructions
    return list(circuit)


@dataclass(frozen=True, eq=False)
class Plan:
    """An instruction stream compiled for replay.

    ``cut[p]`` is the step where instruction ``p`` begins (``cut[-1]``
    is ``len(steps)``).  Ranges of steps compose: replaying
    ``steps[cut[a]:cut[b]]`` then ``steps[cut[b]:cut[c]]`` is replaying
    ``steps[cut[a]:cut[c]]``, and ``steps`` as a whole applies the
    stream.  No fused single-qubit run on ``q`` straddles a declared
    insert ``(p, q, pauli)``, so that Pauli applies exactly at step
    ``cut[p]``, as the step ``paulis[(q, pauli)]``.  ``tally[i]`` holds
    the cumulative ``sim.gates.*`` counts of ``steps[:i]``.
    """

    steps: list[tuple]
    cut: list[int]
    inserts: frozenset[PauliInsert]
    paulis: dict[tuple[int, str], tuple]
    tally: np.ndarray

    @property
    def length(self) -> int:
        """Number of instructions the plan was compiled from."""
        return len(self.cut) - 1


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
        self._tensor_shape = (2,) * num_qubits

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

    def apply_segment(
        self,
        state: np.ndarray,
        instructions: Sequence[Instruction],
        start: int,
        stop: int,
        inserts: Sequence[PauliInsert] = (),
    ) -> np.ndarray:
        """Apply ``instructions[start:stop]`` to ``state`` in place.

        Only the inserts inside the half-open window ``start <= position
        < stop`` apply, plus ``position == stop`` when ``stop`` is the
        end of the stream; so splitting a stream into segments applies
        each insert once.  Returns the state array (same object unless a
        gate reallocated it).
        """
        end = len(instructions)
        window = [
            (position - start, qubit, pauli)
            for position, qubit, pauli in inserts
            if start <= position < stop or position == stop == end
        ]
        plan = self.plan(instructions[start:stop], window)
        return self.replay(state, plan, 0, plan.length, window)

    # ------------------------------------------------------------------
    # Plan: compile once, replay per walk
    # ------------------------------------------------------------------
    def plan(
        self,
        instructions: Sequence[Instruction],
        inserts: Iterable[PauliInsert] = (),
    ) -> Plan:
        """Compile ``instructions`` into a :class:`Plan`.

        ``inserts`` are the Pauli inserts any replay of the plan may
        apply: single-qubit fusion on ``qubit`` breaks before the
        instruction at ``position``.  Flushing one qubit's pending
        matrix flushes its whole block (:func:`_block`): a pending
        matrix commutes with every instruction since its qubit was last
        touched, so applying it early changes nothing.
        """
        declared = frozenset(inserts)
        flush_at: dict[int, list[int]] = {}
        for position, qubit in sorted({item[:2] for item in declared}):
            flush_at.setdefault(position, []).append(qubit)
        paulis = {
            (qubit, pauli): self._block_step({qubit: _PAULI_MATRICES[pauli]})
            for _, qubit, pauli in declared
        }
        steps: list[tuple] = []
        rows: list[tuple[int, int, int, int]] = []
        cut: list[int] = []
        pending: dict[int, list] = {}  # qubit -> [fused matrix, gates fused]

        def flush(qubits: Iterable[int]) -> None:
            for q in qubits:
                if q not in pending:
                    continue
                held = {r: pending.pop(r) for r in _block(q) if r in pending}
                steps.append(self._block_step({r: m for r, (m, _) in held.items()}))
                rows.append((sum(n - 1 for _, n in held.values()), len(held), 0, 0))

        for index, inst in enumerate(instructions):
            if index in flush_at:
                flush(flush_at[index])
            cut.append(len(steps))
            gate = inst.gate
            if not gate.is_unitary:
                continue
            qubits = inst.qubits
            if len(qubits) == 1:
                q = qubits[0]
                matrix = gate.matrix()
                held = pending.get(q)
                if held is not None:
                    held[0] = matrix @ held[0]
                    held[1] += 1
                else:
                    pending[q] = [matrix, 1]
                continue
            flush(qubits)
            if gate.name in _NEGATED_GATES:
                steps.append((_NEGATE, self._slice(qubits, (1,) * len(qubits)), None))
                rows.append((0, 0, 1, 0))
            elif gate.name in DIAGONAL_GATES:
                steps.append((_PHASES, self._phase_slices(gate.matrix(), qubits), None))
                rows.append((0, 0, 1, 0))
            else:
                steps.append((_DENSE, qubits, gate.matrix()))
                rows.append((0, 0, 0, 1))
        flush(sorted(pending))
        cut.append(len(steps))
        tally = np.zeros((len(steps) + 1, len(_GATE_COUNTERS)), dtype=np.int64)
        if rows:
            np.cumsum(rows, axis=0, out=tally[1:])
        return Plan(steps, cut, declared, paulis, tally)

    def replay(
        self,
        state: np.ndarray,
        plan: Plan,
        start: int,
        stop: int,
        inserts: Sequence[PauliInsert] = (),
    ) -> np.ndarray:
        """Apply the plan's instructions ``[start, stop)`` to ``state``.

        Each insert must lie in the half-open window (or at ``stop`` when
        that is the end of the stream) and be declared by the plan.
        Returns the state array (same object unless a gate reallocated
        it).
        """
        cut, steps = plan.cut, plan.steps
        pieces = []
        at = cut[start]
        for position, qubit, pauli in sorted(inserts):
            if not (
                start <= position < stop or position == stop == plan.length
            ) or (position, qubit, pauli) not in plan.inserts:
                raise SimulationError(
                    f"insert {(position, qubit, pauli)!r} is not declared by "
                    f"this plan inside [{start}, {stop})"
                )
            pieces.append(steps[at:cut[position]])
            pieces.append((plan.paulis[(qubit, pauli)],))
            at = cut[position]
        pieces.append(steps[at:cut[stop]])

        # The hot loop.  Views of the state go through _scale so that no
        # local outlives a step: a replaced state array is freed at once
        # and the next single-qubit step reuses its buffer.
        dim, shape = self.dim, self._tensor_shape
        for op, arg, matrix in chain.from_iterable(pieces):
            if op == _MATMUL:
                state = np.matmul(matrix, state.reshape(arg)).reshape(dim)
            elif op == _EXPANDED:
                state = (state.reshape(arg) @ matrix).reshape(dim)
            elif op == _NEGATE:
                _scale(state.reshape(shape)[arg], -1.0)
            elif op == _PHASES:
                for index, phase in arg:
                    _scale(state.reshape(shape)[index], phase)
            else:
                state = apply_gate_to_state(matrix, arg, state, self.num_qubits)

        if self.profiler is not None:
            counts = (plan.tally[cut[stop]] - plan.tally[cut[start]]).tolist()
            counts[1] += len(inserts)
            for kind, count in zip(_GATE_COUNTERS, counts):
                if count:
                    self.profiler.add(f"sim.gates.{kind}", 0.0, count=count)
        return state

    def _block_step(self, matrices: dict[int, np.ndarray]) -> tuple:
        """2x2 matrices on qubits of one :func:`_block` as one plan step.

        Little-endian layout: bits ``lo..hi`` of a basis index are the
        middle axis of the ``(-1, 2**k, 2**lo)`` reshape (``k = hi - lo +
        1``), where ``kron(m_hi, ..., m_lo)`` (identity on a qubit with
        no matrix) is one batched BLAS matmul over the whole state — a
        single memory pass, no operator embedding.  For strides below 32
        the batch shape degenerates (millions of tiny matmuls), so the
        block's matrix is instead expanded over the stride (``kron(M,
        I)``, at most 32x32) and applied as one tall-skinny matmul on
        contiguous chunks.
        """
        lo, hi = min(matrices), max(matrices)
        block = matrices[hi]
        for r in range(hi - 1, lo - 1, -1):
            block = _kron(block, matrices.get(r, _EYES[2]))
        if hi >= _LOW_QUBITS:
            return (_MATMUL, (-1, block.shape[0], 1 << lo), block)
        expanded = _kron(block, _EYES[1 << lo]) if lo else block
        return (_EXPANDED, (-1, expanded.shape[0]), expanded.T)

    def _slice(self, qubits: Sequence[int], bits: Sequence[int]) -> tuple:
        """The tensor index fixing each of ``qubits`` to its ``bits``.

        The trailing ``...`` keeps the result a view even when every
        axis is fixed, so it can be written in place.
        """
        n = self.num_qubits
        index: list = [slice(None)] * n
        for q, bit in zip(qubits, bits):
            index[n - 1 - q] = bit
        return (*index, ...)

    def _phase_slices(self, matrix: np.ndarray, qubits: Sequence[int]) -> tuple:
        """``(index, phase)`` for every non-unit phase of a diagonal gate."""
        diag = np.diagonal(matrix)
        k = len(qubits)
        return tuple(
            # Gate-local big-endian: qubits[0] is the MSB of ``b``.
            (self._slice(qubits, [(b >> (k - 1 - j)) & 1 for j in range(k)]), diag[b])
            for b in range(1 << k)
            if diag[b] != 1.0
        )

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
        return self.draw(self.probabilities(state), rng.random(shots))

    @staticmethod
    def draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Basis indices for uniforms drawn in advance (inverse CDF).

        This is exactly what ``Generator.choice(len(probs), k, p=probs)``
        returns for the ``Generator.random(k)`` it consumes, so the
        uniforms can be drawn before the distribution exists.
        """
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        return cdf.searchsorted(uniforms, side="right").astype(np.int64, copy=False)


def bitstring(basis: int, num_qubits: int) -> str:
    """Little-endian bitstring of a basis index (qubit 0 leftmost).

    Matches :func:`repro.circuits.measurement_distribution` keys.
    """
    return "".join(
        "1" if (basis >> q) & 1 else "0" for q in range(num_qubits)
    )
