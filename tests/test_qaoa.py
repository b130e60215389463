"""Tests for QAOA circuit construction — the fragment equivalences here are
the mathematical core of the 3-qubit gate compression (paper Figure 7)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Instruction, QuantumCircuit, circuit_unitary, circuits_equivalent
from repro.exceptions import CircuitError
from repro.linalg import allclose_up_to_global_phase
from repro.qasm import circuit_to_qasm
from repro.qaoa import (
    QaoaParameters,
    clause_cost_circuit,
    compressed_clause_circuit,
    cost_circuit,
    cost_unitary_diagonal,
    expected_unsatisfied,
    initialization_circuit,
    mixer_circuit,
    monomial_rotation,
    qaoa_circuit,
    sample_best_assignment,
)
from repro.sat import (
    CnfFormula,
    clause_polynomial,
    formula_polynomial,
    random_ksat,
    satlib_instance,
)
from repro.sat.cnf import Clause

ALL_SIGN_PATTERNS = list(itertools.product([1, -1], repeat=3))


class TestMonomialRotation:
    def test_single_variable_is_rz(self):
        qc = QuantumCircuit(1)
        monomial_rotation(qc, (0,), 0.5, 0.8)
        assert qc.count_ops() == {"rz": 1}
        assert qc.instructions[0].params[0] == pytest.approx(2 * 0.8 * 0.5)

    def test_empty_monomial_is_noop(self):
        qc = QuantumCircuit(1)
        monomial_rotation(qc, (), 1.0, 1.0)
        assert len(qc) == 0

    def test_quadratic_ladder_structure(self):
        qc = QuantumCircuit(2)
        monomial_rotation(qc, (0, 1), 1.0, 0.3)
        assert [i.name for i in qc.instructions] == ["cx", "rz", "cx"]

    def test_cubic_ladder_matches_exact_exponential(self):
        gamma, coeff = 0.4, -0.7
        qc = QuantumCircuit(3)
        monomial_rotation(qc, (0, 1, 2), coeff, gamma)
        z = np.array([1, -1])
        diag = np.ones(8, dtype=complex)
        for basis in range(8):
            z0, z1, z2 = ((-1) ** ((basis >> k) & 1) for k in range(3))
            diag[basis] = np.exp(-1j * gamma * coeff * z0 * z1 * z2)
        assert allclose_up_to_global_phase(circuit_unitary(qc), np.diag(diag))


class TestClauseFragments:
    @pytest.mark.parametrize("signs", ALL_SIGN_PATTERNS)
    def test_ladder_fragment_equals_exact_diagonal(self, signs):
        clause = Clause(tuple(s * v for s, v in zip(signs, (1, 2, 3))))
        gamma = 0.9
        circuit = clause_cost_circuit(clause, 3, gamma)
        exact = cost_unitary_diagonal(clause_polynomial(clause, 3), gamma)
        assert allclose_up_to_global_phase(circuit_unitary(circuit), np.diag(exact))

    @pytest.mark.parametrize("signs", ALL_SIGN_PATTERNS)
    def test_compressed_fragment_equals_exact_diagonal(self, signs):
        """Figure 7: the CCX-sandwich compression is exactly equivalent."""
        clause = Clause(tuple(s * v for s, v in zip(signs, (1, 2, 3))))
        gamma = 1.1
        circuit = compressed_clause_circuit(clause, 3, gamma)
        exact = cost_unitary_diagonal(clause_polynomial(clause, 3), gamma)
        assert allclose_up_to_global_phase(circuit_unitary(circuit), np.diag(exact))

    def test_compressed_uses_ccx_gates(self):
        circuit = compressed_clause_circuit(Clause((-1, -2, -3)), 3, 0.5)
        assert circuit.count_ops()["ccx"] == 2
        assert circuit.count_ops()["cx"] == 2

    def test_compressed_falls_back_for_two_literals(self):
        circuit = compressed_clause_circuit(Clause((1, -2)), 2, 0.5)
        assert "ccx" not in circuit.count_ops()

    def test_compressed_and_ladder_agree(self):
        clause = Clause((1, -4, 2))
        a = compressed_clause_circuit(clause, 4, 0.37)
        b = clause_cost_circuit(clause, 4, 0.37)
        assert circuits_equivalent(a, b)

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(CircuitError):
            compressed_clause_circuit(Clause((1, 2, 5)), 3, 0.1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 3.0))
    def test_compression_property_random_clauses(self, seed, gamma):
        formula = random_ksat(6, 1, seed=seed)
        clause = formula.clauses[0]
        a = compressed_clause_circuit(clause, 6, gamma)
        exact = cost_unitary_diagonal(clause_polynomial(clause, 6), gamma)
        assert allclose_up_to_global_phase(circuit_unitary(a), np.diag(exact))


class TestFullCost:
    def test_cost_circuit_matches_diagonal(self):
        formula = CnfFormula.from_lists([[1, -2, 3], [-1, 2, -3]], num_vars=3)
        poly = formula_polynomial(formula)
        gamma = 0.62
        circuit = cost_circuit(poly, gamma)
        exact = cost_unitary_diagonal(poly, gamma)
        assert allclose_up_to_global_phase(circuit_unitary(circuit), np.diag(exact))

    def test_init_layer_is_hadamards(self):
        circuit = initialization_circuit(4)
        assert circuit.count_ops() == {"h": 4}

    def test_mixer_layer_is_rx(self):
        circuit = mixer_circuit(3, 0.4)
        assert circuit.count_ops() == {"rx": 3}
        assert circuit.instructions[0].params[0] == pytest.approx(0.8)


class TestQaoaAssembly:
    def test_parameter_validation(self):
        with pytest.raises(CircuitError):
            QaoaParameters(gammas=(0.1,), betas=())
        with pytest.raises(CircuitError):
            QaoaParameters(gammas=(), betas=())

    def test_layer_count(self):
        params = QaoaParameters(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        assert params.num_layers == 2

    def test_circuit_qubits_match_variables(self):
        formula = CnfFormula.from_lists([[1, -2]], num_vars=4)
        assert qaoa_circuit(formula).num_qubits == 4

    def test_measurement_flag(self):
        formula = CnfFormula.from_lists([[1]], num_vars=1)
        assert "measure" in qaoa_circuit(formula, measure=True).count_ops()
        assert "measure" not in qaoa_circuit(formula, measure=False).count_ops()

    def test_two_layer_structure(self):
        formula = CnfFormula.from_lists([[1, 2]], num_vars=2)
        one = qaoa_circuit(formula, QaoaParameters((0.5,), (0.2,)))
        two = qaoa_circuit(formula, QaoaParameters((0.5, 0.5), (0.2, 0.2)))
        assert len(two) > len(one)

    @pytest.mark.parametrize("gammas", [(0.7, 0.4), (0.0, -0.3)])
    def test_matches_term_by_term_emission(self, gammas):
        """The shared-gate emission prints exactly what emitting each cost
        term alone does; at gamma 0 the ``rz`` angles are zeros of both
        signs, which must not share one gate."""
        formula = random_ksat(8, 30, seed=5)
        params = QaoaParameters(gammas, (0.35, 0.2))
        expected = initialization_circuit(8)
        expected.name = f"qaoa-{formula.name}"
        for gamma, beta in zip(params.gammas, params.betas):
            for monomial, coefficient in formula_polynomial(formula).terms(min_degree=1):
                monomial_rotation(expected, monomial, coefficient, gamma)
            expected.compose(mixer_circuit(8, beta))
        assert circuit_to_qasm(qaoa_circuit(formula, params)) == circuit_to_qasm(expected)

    def test_reference_build_constructs_each_instruction_once(self, monkeypatch):
        """The reference circuit is emitted straight into the result: one
        ``Instruction`` per instruction kept (building the cost and mixer
        layers apart and composing them made 11,106 for 5,603)."""
        built = 0
        post_init = Instruction.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        formula = satlib_instance("uf100-01")
        monkeypatch.setattr(Instruction, "__post_init__", counting)
        circuit = qaoa_circuit(formula)
        assert built == len(circuit) == 5603


class TestEnergy:
    def test_uniform_superposition_expectation(self):
        # Over the uniform superposition, E[unsatisfied] = m / 8 for 3-SAT.
        formula = CnfFormula.from_lists([[1, 2, 3], [-1, -2, -3]], num_vars=3)
        circuit = initialization_circuit(3)
        value = expected_unsatisfied(formula, circuit)
        assert value == pytest.approx(2 / 8)

    def test_qaoa_improves_over_random_guessing(self):
        formula = CnfFormula.from_lists(
            [[1, 2, 3], [-1, 2, 3], [1, -2, 3], [1, 2, -3]], num_vars=3
        )
        random_baseline = expected_unsatisfied(formula, initialization_circuit(3))
        # A coarse angle sweep stands in for the classical outer loop.
        best = min(
            expected_unsatisfied(
                formula, qaoa_circuit(formula, QaoaParameters((gamma,), (beta,)))
            )
            for gamma in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)
            for beta in (0.2, 0.4, 0.6)
        )
        assert best < random_baseline

    def test_sampling_returns_valid_assignment(self):
        formula = CnfFormula.from_lists([[1, -2], [2]], num_vars=2)
        assignment, score = sample_best_assignment(
            formula, qaoa_circuit(formula), shots=256, seed=1
        )
        assert len(assignment) == 2
        assert score == formula.num_satisfied(assignment)
        assert score == 2  # tiny instance: optimum should be sampled
