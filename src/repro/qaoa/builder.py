"""End-to-end QAOA circuit assembly for a MAX-3SAT formula."""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import QuantumCircuit
from ..exceptions import CircuitError
from ..sat.cnf import CnfFormula
from ..sat.polynomial import formula_polynomial
from .cost import append_cost
from .mixer import append_initialization, append_mixer


@dataclass(frozen=True)
class QaoaParameters:
    """QAOA angles: one ``(gamma, beta)`` pair per layer.

    Default is the single-layer heuristic angle pair commonly used for
    MAX-SAT demonstrations; the classical outer-loop optimizer is out of
    scope (DESIGN.md §7) apart from the example in ``examples/``.
    """

    gammas: tuple[float, ...] = (0.7,)
    betas: tuple[float, ...] = (0.35,)

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.betas):
            raise CircuitError("gammas and betas must have equal length")
        if not self.gammas:
            raise CircuitError("QAOA needs at least one layer")

    @property
    def num_layers(self) -> int:
        return len(self.gammas)


def qaoa_circuit(
    formula: CnfFormula,
    parameters: QaoaParameters | None = None,
    measure: bool = False,
) -> QuantumCircuit:
    """Full QAOA circuit for ``formula``: init, then per-layer cost+mixer.

    One qubit per variable (qubit ``i`` is variable ``i+1``), exactly the
    encoding of the paper's Figure 1 example.  Every instruction is
    emitted once, straight into the returned circuit.
    """
    parameters = parameters or QaoaParameters()
    polynomial = formula_polynomial(formula)
    circuit = QuantumCircuit(formula.num_vars, name=f"qaoa-{formula.name}")
    append_initialization(circuit)
    for gamma, beta in zip(parameters.gammas, parameters.betas):
        append_cost(circuit, polynomial, gamma)
        append_mixer(circuit, beta)
    if measure:
        circuit.measure_all()
    return circuit
