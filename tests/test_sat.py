"""Unit and property tests for the SAT substrate."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.polynomial import formula_polynomial_fold

from repro.exceptions import SatError
from repro.sat import (
    Clause,
    CnfFormula,
    SATLIB_SHAPES,
    brute_force_max_sat,
    clause_polynomial,
    clause_shares_variable,
    dpll_satisfiable,
    formula_polynomial,
    parse_dimacs,
    random_ksat,
    satlib_instance,
    to_dimacs,
    walksat,
)
from repro.sat.generator import satlib_suite


class TestClause:
    def test_empty_clause_rejected(self):
        with pytest.raises(SatError):
            Clause(())

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            Clause((1, 0))

    def test_repeated_variable_rejected(self):
        with pytest.raises(SatError):
            Clause((1, -1))

    def test_variables(self):
        assert Clause((-3, 1, 2)).variables == {1, 2, 3}

    def test_satisfaction_positive_literal(self):
        assert Clause((1,)).is_satisfied([True])
        assert not Clause((1,)).is_satisfied([False])

    def test_satisfaction_negative_literal(self):
        assert Clause((-1,)).is_satisfied([False])

    def test_shares_variable(self):
        assert clause_shares_variable(Clause((1, 2)), Clause((-2, 3)))
        assert not clause_shares_variable(Clause((1, 2)), Clause((3, 4)))


class TestFormula:
    def test_from_lists_infers_num_vars(self):
        formula = CnfFormula.from_lists([[1, -2], [3]])
        assert formula.num_vars == 3

    def test_clause_variable_out_of_range(self):
        with pytest.raises(SatError):
            CnfFormula(num_vars=2, clauses=[Clause((3,))])

    def test_num_satisfied(self):
        formula = CnfFormula.from_lists([[1], [-1]], num_vars=1)
        assert formula.num_satisfied([True]) == 1

    def test_assignment_length_checked(self):
        formula = CnfFormula.from_lists([[1]], num_vars=2)
        with pytest.raises(SatError):
            formula.num_satisfied([True])

    def test_is_3sat(self):
        assert CnfFormula.from_lists([[1, 2, 3]]).is_3sat()
        assert not CnfFormula.from_lists([[1, 2, 3, 4]]).is_3sat()

    def test_variables_used(self):
        formula = CnfFormula.from_lists([[1, -5]], num_vars=6)
        assert formula.variables_used() == {1, 5}


class TestDimacs:
    EXAMPLE = """c a comment
p cnf 3 2
1 -2 3 0
-1 2 0
"""

    def test_parse_basic(self):
        formula = parse_dimacs(self.EXAMPLE)
        assert formula.num_vars == 3
        assert formula.num_clauses == 2

    def test_roundtrip(self):
        formula = parse_dimacs(self.EXAMPLE)
        again = parse_dimacs(to_dimacs(formula, comment="roundtrip"))
        assert [c.literals for c in again.clauses] == [
            c.literals for c in formula.clauses
        ]

    def test_satlib_percent_trailer(self):
        text = self.EXAMPLE + "%\n0\n"
        assert parse_dimacs(text).num_clauses == 2

    def test_multiline_clause(self):
        text = "p cnf 3 1\n1 -2\n3 0\n"
        formula = parse_dimacs(text)
        assert formula.clauses[0].literals == (1, -2, 3)

    def test_missing_header_rejected(self):
        with pytest.raises(SatError):
            parse_dimacs("1 2 0\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(SatError):
            parse_dimacs("p cnf 1 0\np cnf 1 0\n")

    def test_clause_count_mismatch_rejected(self):
        with pytest.raises(SatError):
            parse_dimacs("p cnf 2 5\n1 0\n")

    def test_bad_token_rejected(self):
        with pytest.raises(SatError):
            parse_dimacs("p cnf 1 1\nfoo 0\n")


class TestGenerator:
    def test_satlib_shapes(self):
        assert SATLIB_SHAPES[20] == 91
        assert SATLIB_SHAPES[250] == 1065

    def test_instance_shape(self):
        formula = satlib_instance("uf20-01")
        assert formula.num_vars == 20
        assert formula.num_clauses == 91
        assert formula.is_3sat()

    def test_instances_deterministic(self):
        a = satlib_instance("uf20-03")
        b = satlib_instance("uf20-03")
        assert [c.literals for c in a.clauses] == [c.literals for c in b.clauses]

    def test_instances_differ_by_name(self):
        a = satlib_instance("uf20-01")
        b = satlib_instance("uf20-02")
        assert [c.literals for c in a.clauses] != [c.literals for c in b.clauses]

    def test_unknown_size_rejected(self):
        with pytest.raises(SatError):
            satlib_instance("uf33-01")

    def test_malformed_name_rejected(self):
        with pytest.raises(SatError):
            satlib_instance("blorp")

    def test_distinct_clauses(self):
        formula = random_ksat(10, 40, seed=5)
        literal_sets = [c.literals for c in formula.clauses]
        assert len(set(literal_sets)) == len(literal_sets)

    def test_k_larger_than_vars_rejected(self):
        with pytest.raises(SatError):
            random_ksat(2, 1, k=3)

    def test_suite_size(self):
        assert len(satlib_suite(20, count=4)) == 4


class TestPolynomial:
    @pytest.mark.parametrize(
        "literals",
        [(-1, -2, -3), (1, 2, 3), (1, -2, 3), (-1, 2), (2,), (-3,)],
    )
    def test_penalty_matches_truth_table(self, literals):
        clause = Clause(literals)
        poly = clause_polynomial(clause, 3)
        for bits in itertools.product([False, True], repeat=3):
            expected = 0.0 if clause.is_satisfied(list(bits)) else 1.0
            assert poly.evaluate(list(bits)) == pytest.approx(expected)

    def test_formula_polynomial_counts_violations(self):
        formula = CnfFormula.from_lists([[1, 2], [-1, 2], [-2]], num_vars=2)
        poly = formula_polynomial(formula)
        for bits in itertools.product([False, True], repeat=2):
            expected = formula.num_clauses - formula.num_satisfied(list(bits))
            assert poly.evaluate(list(bits)) == pytest.approx(expected)

    def test_degree_bounded_by_clause_size(self):
        poly = clause_polynomial(Clause((1, -2, 3)), 3)
        assert poly.degree == 3

    def test_terms_sorted_by_degree(self):
        poly = clause_polynomial(Clause((1, -2)), 2)
        degrees = [len(m) for m, _ in poly.terms()]
        assert degrees == sorted(degrees)

    def test_add_term_accumulates_and_cancels(self):
        poly = clause_polynomial(Clause((1,)), 1)
        poly.add_term((0,), -poly.coefficients[(0,)])
        assert (0,) not in poly.coefficients

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_clause_penalty_property(self, seed):
        formula = random_ksat(5, 1, seed=seed)
        clause = formula.clauses[0]
        poly = clause_polynomial(clause, 5)
        for bits in itertools.product([False, True], repeat=5):
            expected = 0.0 if clause.is_satisfied(list(bits)) else 1.0
            assert poly.evaluate(list(bits)) == pytest.approx(expected)


class TestPolynomialDifferential:
    """``formula_polynomial`` accumulates in place; the oracle folds
    ``total + clause_polynomial``.  Both must give the same coefficient
    dict: the same keys in the same order, each float bit for bit."""

    @staticmethod
    def _random_formula(rng):
        num_vars = rng.randint(3, 12)
        clauses = []
        for _ in range(rng.randint(1, 40)):
            size = rng.choice((1, 2, 3, 3))
            variables = rng.sample(range(1, num_vars + 1), size)
            literals = [v if rng.random() < 0.5 else -v for v in variables]
            # 1e-16 puts every term of the clause below the zero threshold.
            weight = rng.choice((1.0, 1.0, 0.1, 0.3, 2.5, 1e-16, rng.uniform(0.01, 5.0)))
            clauses.append(Clause(tuple(literals), weight))
            if rng.random() < 0.3:
                # A sign-flipped twin cancels its partner's odd terms.
                clauses.append(Clause(tuple(-lit for lit in literals), weight))
        rng.shuffle(clauses)
        return CnfFormula(num_vars, clauses, name="random")

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fold_oracle(self, seed):
        formula = self._random_formula(random.Random(seed))
        fast = formula_polynomial(formula).coefficients
        slow = formula_polynomial_fold(formula).coefficients
        assert list(fast) == list(slow)
        assert [c.hex() for c in fast.values()] == [c.hex() for c in slow.values()]

    def test_cancelling_pair_drops_terms_like_the_oracle(self):
        formula = CnfFormula.from_lists([[1, 2], [-1, -2], [3], [-3]], num_vars=3)
        fast = formula_polynomial(formula).coefficients
        assert fast == formula_polynomial_fold(formula).coefficients
        assert set(fast) == {(), (0, 1)}


class TestSolvers:
    def test_dpll_sat(self):
        formula = CnfFormula.from_lists([[1, 2], [-1, 2], [1, -2]], num_vars=2)
        model = dpll_satisfiable(formula)
        assert model is not None
        assert formula.num_satisfied(model) == formula.num_clauses

    def test_dpll_unsat(self):
        formula = CnfFormula.from_lists([[1], [-1]], num_vars=1)
        assert dpll_satisfiable(formula) is None

    def test_dpll_on_satlib_instance(self):
        # Uniform random 3-SAT at ratio 4.55 is usually satisfiable at n=20.
        formula = satlib_instance("uf20-01")
        model = dpll_satisfiable(formula)
        if model is not None:
            assert formula.num_satisfied(model) == formula.num_clauses

    def test_walksat_reaches_brute_force_optimum(self):
        formula = random_ksat(8, 30, seed=11)
        _, best = brute_force_max_sat(formula)
        _, found = walksat(formula, max_flips=4000, seed=3)
        assert found >= best - 1  # local search may miss by at most a little

    def test_walksat_noise_validated(self):
        formula = CnfFormula.from_lists([[1]], num_vars=1)
        with pytest.raises(SatError):
            walksat(formula, noise=1.5)

    def test_brute_force_limits(self):
        formula = CnfFormula.from_lists([[1]], num_vars=1)
        assignment, score = brute_force_max_sat(formula)
        assert score == 1
        with pytest.raises(SatError):
            brute_force_max_sat(random_ksat(23, 10, seed=0))
