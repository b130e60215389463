"""Cost-Hamiltonian circuits for MAX-3SAT QAOA.

Two lowerings are implemented:

* :func:`clause_cost_circuit` — the textbook CNOT-ladder form of Figure 6:
  each Z-monomial of the clause polynomial becomes ``CX``-ladder + ``RZ``.
* :func:`compressed_clause_circuit` — the 3-qubit gate compression of §5.4
  and Figure 7: two ``CCX`` (native ``CCZ`` on FPQAs) plus two ``CX``
  implement the cubic and target-adjacent terms, with the control-control
  quadratic term and the linear terms completed by one ``CX`` ladder and
  single-qubit ``RZ`` pulses.

Angle derivation for the compressed form (verified by unit tests against
``exp(-i*gamma*P_C)``): with literal signs ``s_a, s_b, s_t`` (``+1`` for a
positive literal) the sandwich ``CCX . RZ(phi)_t . CCX`` applies
``exp(-i(phi/4)(Z_t + f_a Z_a Z_t + f_b Z_b Z_t - f_a f_b Z_a Z_b Z_t))``
after conjugating control ``i`` with ``X`` when ``f_i = -1``.  Matching the
clause polynomial ``P_C = (1/8) * prod_i (1 + s_i z_i)`` fixes
``phi = -gamma * s_t / 2`` and ``f_i = -s_i``; the residual terms are
``RZ(gamma*s_t/2)`` on the target, ``RZ(gamma*s_i/4)`` on each control, and
a ``CX . RZ(gamma*s_a*s_b/4) . CX`` ladder between the controls.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..exceptions import CircuitError
from ..linalg import projector_phase_polynomial
from ..sat.cnf import Clause
from ..sat.polynomial import IsingPolynomial, clause_polynomial


#: The one ``cx`` every cost ladder shares (gates are frozen values).
_CX = Gate("cx", 2)


def monomial_rotation(
    circuit: QuantumCircuit, qubits: tuple[int, ...], coefficient: float, gamma: float
) -> None:
    """Append ``exp(-i * gamma * coefficient * Z...Z)`` on ``qubits``.

    Uses the CNOT-ladder construction of Figure 6: entangle down the ladder,
    rotate the last qubit by ``RZ(2 * gamma * coefficient)``, unentangle.
    """
    if qubits:  # the constant term is a global phase, not compiled
        _append_ladder(circuit, qubits, Gate("rz", 1, (2.0 * gamma * coefficient,)))


def _append_ladder(circuit: QuantumCircuit, qubits: tuple[int, ...], rz: Gate) -> None:
    append = circuit.append
    if len(qubits) == 1:
        append(rz, qubits)
        return
    pairs = list(zip(qubits, qubits[1:]))
    for pair in pairs:
        append(_CX, pair)
    append(rz, qubits[-1:])
    for pair in reversed(pairs):
        append(_CX, pair)


def append_cost(circuit: QuantumCircuit, polynomial: IsingPolynomial, gamma: float) -> None:
    """Append the phase separator ``exp(-i*gamma*H)`` onto ``circuit``.

    The one emission path of :func:`cost_circuit` and
    :func:`~repro.qaoa.builder.qaoa_circuit`.  Monomials with equal
    rotation angles share one ``rz`` gate (keyed with the angle's sign,
    so ``-0.0`` keeps its own).
    """
    rotations: dict[tuple[float, float], Gate] = {}
    for monomial, coefficient in polynomial.terms(min_degree=1):
        angle = 2.0 * gamma * coefficient
        key = (angle, math.copysign(1.0, angle))
        rz = rotations.get(key)
        if rz is None:
            rz = rotations[key] = Gate("rz", 1, (angle,))
        _append_ladder(circuit, monomial, rz)


def cost_circuit(polynomial: IsingPolynomial, gamma: float) -> QuantumCircuit:
    """Phase-separator circuit ``exp(-i*gamma*H)`` for a full polynomial."""
    circuit = QuantumCircuit(polynomial.num_vars, name="cost")
    append_cost(circuit, polynomial, gamma)
    return circuit


def clause_cost_circuit(clause: Clause, num_vars: int, gamma: float) -> QuantumCircuit:
    """Uncompressed CNOT-ladder fragment ``exp(-i*gamma*P_C)`` (Figure 6)."""
    return cost_circuit(clause_polynomial(clause, num_vars), gamma)


def compressed_clause_circuit(
    clause: Clause, num_vars: int, gamma: float
) -> QuantumCircuit:
    """Compressed 3-qubit fragment of §5.4 / Figure 7.

    Only 3-literal clauses benefit from compression; smaller clauses fall
    back to the ladder form.  The last listed variable acts as the CCX
    target, the first two as controls (the roles are symmetric for the
    cubic term).
    """
    if len(clause) != 3:
        return clause_cost_circuit(clause, num_vars, gamma)
    circuit = QuantumCircuit(num_vars, name="compressed-clause")
    gamma = gamma * clause.weight  # weighted MAX-SAT scales every angle
    lits = sorted(clause.literals, key=abs)
    (qa, sa), (qb, sb), (qt, st) = (
        (abs(lit) - 1, 1.0 if lit > 0 else -1.0) for lit in lits
    )
    if max(qa, qb, qt) >= num_vars:
        raise CircuitError("clause variable out of range")
    # X-conjugation of controls whose effective sign must flip (f_i = -s_i).
    for qubit, sign in ((qa, sa), (qb, sb)):
        if sign > 0:
            circuit.x(qubit)
    circuit.ccx(qa, qb, qt)
    circuit.rz(-gamma * st / 2.0, qt)
    circuit.ccx(qa, qb, qt)
    for qubit, sign in ((qa, sa), (qb, sb)):
        if sign > 0:
            circuit.x(qubit)
    # Residual single-variable terms.
    circuit.rz(gamma * st / 2.0, qt)
    circuit.rz(gamma * sa / 4.0, qa)
    circuit.rz(gamma * sb / 4.0, qb)
    # Control-control quadratic term via a 2-qubit ladder.
    circuit.cx(qa, qb)
    circuit.rz(gamma * sa * sb / 4.0, qb)
    circuit.cx(qa, qb)
    return circuit


def cost_unitary_diagonal(polynomial: IsingPolynomial, gamma: float) -> np.ndarray:
    """Exact diagonal of ``exp(-i*gamma*H)`` including the constant term.

    Reference implementation for equivalence tests: evaluates the
    polynomial on every computational basis state directly.
    """
    n = polynomial.num_vars
    z = projector_phase_polynomial(n)  # (2**n, n) of +-1
    energies = np.zeros(2**n)
    for monomial, coefficient in polynomial.coefficients.items():
        if monomial:
            energies += coefficient * np.prod(z[:, list(monomial)], axis=1)
        else:
            energies += coefficient
    return np.exp(-1j * gamma * energies)
