"""Unitary equivalence checking with size-adaptive strategies.

The challenge (§3.1 #3) is the exponential cost of representing quantum
states classically.  The checker therefore picks the strongest affordable
method: exact dense unitaries for small circuits, random-statevector
probing for medium ones, and reports the method used so callers can judge
the evidence.
"""

from __future__ import annotations

import enum

from ..circuits import QuantumCircuit, circuit_statevector, circuit_unitary
from ..rng import as_generator
from ..linalg import (
    MAX_STATEVECTOR_QUBITS,
    MAX_UNITARY_QUBITS,
    allclose_up_to_global_phase,
    random_statevector,
)


class EquivalenceMethod(enum.Enum):
    UNITARY = "unitary"
    STATEVECTOR_PROBE = "statevector-probe"
    TOO_LARGE = "too-large"


def equivalence_method(
    num_qubits: int, max_probe_qubits: int = MAX_STATEVECTOR_QUBITS
) -> EquivalenceMethod:
    """The method :func:`equivalence_check` uses at ``num_qubits`` qubits.

    It depends on the width alone, so a caller can learn it before
    building any circuit, and build none when it is ``TOO_LARGE``.
    """
    if num_qubits <= MAX_UNITARY_QUBITS:
        return EquivalenceMethod.UNITARY
    if num_qubits <= min(max_probe_qubits, MAX_STATEVECTOR_QUBITS):
        return EquivalenceMethod.STATEVECTOR_PROBE
    return EquivalenceMethod.TOO_LARGE


def equivalence_check(
    a: QuantumCircuit,
    b: QuantumCircuit,
    atol: float = 1e-7,
    probes: int = 3,
    seed: int = 11,
    max_probe_qubits: int = MAX_STATEVECTOR_QUBITS,
) -> tuple[bool | None, EquivalenceMethod]:
    """Check functional equivalence up to global phase.

    Returns ``(verdict, method)``; verdict is ``None`` when the circuits
    exceed the affordable methods, in which case callers should rely on
    the per-operation structural check instead.  ``max_probe_qubits``
    bounds the (expensive) statevector probing; set it below
    ``MAX_UNITARY_QUBITS`` to disable probing entirely.
    """
    if a.num_qubits != b.num_qubits:
        return (False, EquivalenceMethod.UNITARY)
    n = a.num_qubits
    method = equivalence_method(n, max_probe_qubits)
    if method is EquivalenceMethod.TOO_LARGE:
        return (None, method)
    a = a.without_measurements()
    b = b.without_measurements()
    if method is EquivalenceMethod.UNITARY:
        same = allclose_up_to_global_phase(
            circuit_unitary(a), circuit_unitary(b), atol=atol
        )
        return (bool(same), method)
    rng = as_generator(seed)
    for _ in range(probes):
        probe = random_statevector(n, rng)
        out_a = circuit_statevector(a, probe)
        out_b = circuit_statevector(b, probe)
        if not allclose_up_to_global_phase(out_a, out_b, atol=max(atol, 1e-6)):
            return (False, method)
    return (True, method)
