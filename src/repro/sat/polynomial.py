"""Boolean-to-Ising polynomial conversion for MAX-3SAT cost Hamiltonians.

The paper (§5, Figure 5) represents each clause's objective as a Boolean
polynomial of degree at most three; the QAOA phase separator then turns each
monomial into a Z-rotation surrounded by a CNOT ladder (Figure 6).

Derivation.  A clause ``C`` with literals ``l_i`` over variables ``v_i`` is
*unsatisfied* iff every literal is false, so its penalty indicator is

    P_C(x) = prod_i (1 - l_i(x)).

Substituting ``x = (1 - z) / 2`` (with ``z = ±1`` the eigenvalue of ``Z``)
each factor becomes ``(1 + s_i z_i)/2`` where ``s_i = +1`` for a positive
literal and ``-1`` for a negated one.  Expanding the product yields a
polynomial over Z-monomials with coefficients ``±1/2^k``.  The cost
Hamiltonian minimized by QAOA is ``H = sum_C P_C``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..exceptions import SatError
from .cnf import Clause, CnfFormula

#: A monomial key: sorted tuple of 0-based qubit/variable indices.
Monomial = tuple[int, ...]

#: Coefficients smaller than this in magnitude are dropped as zero.
_ZERO = 1e-15


@dataclass
class IsingPolynomial:
    """A real polynomial over Z-monomials, ``sum_m coeff[m] * prod Z_i``.

    Keys are sorted tuples of 0-based variable indices; the empty tuple is
    the constant term (a global phase in QAOA, tracked but not compiled).
    """

    num_vars: int
    coefficients: dict[Monomial, float] = field(default_factory=dict)

    def add_term(self, variables: Sequence[int], coefficient: float) -> None:
        """Accumulate ``coefficient`` onto the monomial over ``variables``."""
        key = tuple(sorted(variables))
        if len(set(key)) != len(key):
            raise SatError(f"monomial {variables} repeats a variable")
        if key and max(key) >= self.num_vars:
            raise SatError(f"monomial {key} out of range for {self.num_vars} vars")
        new = self.coefficients.get(key, 0.0) + coefficient
        if abs(new) < _ZERO:
            self.coefficients.pop(key, None)
        else:
            self.coefficients[key] = new

    def terms(self, min_degree: int = 0) -> list[tuple[Monomial, float]]:
        """Monomial/coefficient pairs sorted by (degree, indices)."""
        items = [
            (mono, coeff)
            for mono, coeff in self.coefficients.items()
            if len(mono) >= min_degree
        ]
        items.sort(key=lambda kv: (len(kv[0]), kv[0]))
        return items

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.coefficients), default=0)

    @property
    def constant(self) -> float:
        return self.coefficients.get((), 0.0)

    def evaluate(self, assignment: Sequence[bool]) -> float:
        """Evaluate at a Boolean assignment (``True`` -> ``z = -1``)."""
        if len(assignment) != self.num_vars:
            raise SatError(
                f"assignment length {len(assignment)} != num_vars {self.num_vars}"
            )
        z = [(-1.0 if bit else 1.0) for bit in assignment]
        total = 0.0
        for mono, coeff in self.coefficients.items():
            prod = coeff
            for var in mono:
                prod *= z[var]
            total += prod
        return total

    def __add__(self, other: "IsingPolynomial") -> "IsingPolynomial":
        if other.num_vars != self.num_vars:
            raise SatError("cannot add polynomials over different variable counts")
        out = IsingPolynomial(self.num_vars, dict(self.coefficients))
        for mono, coeff in other.coefficients.items():
            out.add_term(mono, coeff)
        return out

    def __len__(self) -> int:
        return len(self.coefficients)


def clause_polynomial(clause: Clause, num_vars: int) -> IsingPolynomial:
    """Penalty polynomial ``w_C * P_C`` of one clause.

    ``P_C`` is 1 iff the clause is unsatisfied; the clause weight scales
    the whole polynomial (plain MAX-3SAT has weight 1).  For the paper's
    example clause ``(¬x0 ∨ ¬x1 ∨ ¬x2)`` this returns the expansion of
    ``x0*x1*x2`` in Z variables.
    """
    poly = IsingPolynomial(num_vars)
    for monomial, coefficient in _clause_terms(clause):
        poly.add_term(monomial, coefficient)
    return poly


def _clause_terms(clause: Clause):
    """The ``(monomial, coefficient)`` expansion of ``w_C * P_C``, one
    term per subset of the clause's variables, in expansion order."""
    signs = {abs(lit) - 1: (1.0 if lit > 0 else -1.0) for lit in clause.literals}
    variables = sorted(signs)
    k = len(variables)
    scale = clause.weight * 0.5**k
    for r in range(k + 1):
        for subset in itertools.combinations(variables, r):
            coeff = scale
            for var in subset:
                coeff *= signs[var]
            yield subset, coeff


def formula_polynomial(formula: CnfFormula) -> IsingPolynomial:
    """Cost Hamiltonian ``H = sum_C P_C`` counting unsatisfied clauses.

    ``H`` evaluated at an assignment equals the number of unsatisfied
    clauses, so minimizing ``H`` maximizes satisfied clauses.
    """
    # Accumulate in place, each clause's terms straight into the sum:
    # folding ``total + clause_polynomial(...)`` copied the whole sum
    # once per clause.  The terms arrive in the order that fold added
    # them, minus those ``clause_polynomial`` drops as zero, so every
    # coefficient is bit-identical to it.
    total = IsingPolynomial(formula.num_vars)
    add_term = total.add_term
    for clause in formula.clauses:
        for monomial, coefficient in _clause_terms(clause):
            if not abs(coefficient) < _ZERO:
                add_term(monomial, coefficient)
    return total
