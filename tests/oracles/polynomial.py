"""The fold-style cost Hamiltonian builder ``formula_polynomial`` replaced.

``formula_polynomial_fold`` is :func:`repro.sat.polynomial.formula_polynomial`
from before it accumulated in place: it folds ``total + clause_polynomial``,
which copies the whole running sum once per clause.  It moved out of
``repro.sat.polynomial`` unchanged except for its imports (absolute
``repro`` paths).  ``test_sat.py::TestPolynomialDifferential`` checks that
the current builder returns the same coefficient dict, key for key and
bit for bit, on every formula it covers.
"""

from __future__ import annotations

from repro.sat.cnf import CnfFormula
from repro.sat.polynomial import IsingPolynomial, clause_polynomial


def formula_polynomial_fold(formula: CnfFormula) -> IsingPolynomial:
    """Cost Hamiltonian ``H = sum_C P_C`` by folding clause polynomials."""
    total = IsingPolynomial(formula.num_vars)
    for clause in formula.clauses:
        total = total + clause_polynomial(clause, formula.num_vars)
    return total
