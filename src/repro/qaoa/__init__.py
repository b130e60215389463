"""QAOA circuit construction for MAX-3SAT cost Hamiltonians (paper §2.1, §5).

Builds the three QAOA parts the paper describes: the mixer-eigenstate
initialization, the time evolution of the cost Hamiltonian (the part
wOptimizer targets), and the mixer evolution.
"""

from .cost import (
    clause_cost_circuit,
    compressed_clause_circuit,
    cost_circuit,
    cost_unitary_diagonal,
    monomial_rotation,
)
from .mixer import initialization_circuit, mixer_circuit
from .builder import QaoaParameters, QaoaReference, qaoa_circuit
from .energy import expected_unsatisfied, formula_energies, sample_best_assignment
from .optimizer import (
    OptimizationResult,
    coordinate_descent,
    grid_search,
    optimize_angles,
)

__all__ = [
    "OptimizationResult",
    "QaoaParameters",
    "QaoaReference",
    "clause_cost_circuit",
    "compressed_clause_circuit",
    "coordinate_descent",
    "cost_circuit",
    "cost_unitary_diagonal",
    "expected_unsatisfied",
    "formula_energies",
    "grid_search",
    "initialization_circuit",
    "mixer_circuit",
    "monomial_rotation",
    "optimize_angles",
    "qaoa_circuit",
    "sample_best_assignment",
]
