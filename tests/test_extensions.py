"""Tests for extension features: weighted MAX-SAT, random circuits,
the DPQA interchange format, and the artifact runner."""

import itertools
import json

import pytest

from repro.baselines.dpqa_format import circuit_to_dpqa_json, dpqa_json_to_pairs
from repro.circuits import QuantumCircuit, circuits_equivalent
from repro.circuits.random_circuits import random_circuit, random_diagonal_circuit
from repro.exceptions import CompilationError, SatError
from repro.passes import FPQACompiler, nativize_circuit
from repro.qaoa import qaoa_circuit
from repro.sat import CnfFormula, formula_polynomial
from repro.sat.cnf import Clause


class TestWeightedMaxSat:
    def test_weight_validation(self):
        with pytest.raises(SatError):
            Clause((1,), weight=0.0)
        with pytest.raises(SatError):
            Clause((1,), weight=-2.0)

    def test_weighted_objective(self):
        formula = CnfFormula(
            num_vars=1,
            clauses=[Clause((1,), weight=3.0), Clause((-1,), weight=1.0)],
        )
        assert formula.weighted_satisfied([True]) == 3.0
        assert formula.weighted_satisfied([False]) == 1.0

    def test_weighted_polynomial_counts_weighted_violations(self):
        formula = CnfFormula(
            num_vars=2,
            clauses=[Clause((1, 2), weight=2.0), Clause((-2,), weight=5.0)],
        )
        poly = formula_polynomial(formula)
        for bits in itertools.product([False, True], repeat=2):
            total_weight = sum(c.weight for c in formula.clauses)
            expected = total_weight - formula.weighted_satisfied(list(bits))
            assert poly.evaluate(list(bits)) == pytest.approx(expected)

    @pytest.mark.parametrize("compression", [True, False])
    def test_weighted_pipeline_equivalence(self, compression):
        formula = CnfFormula(
            num_vars=4,
            clauses=[
                Clause((-1, -2, -3), weight=2.5),
                Clause((2, 4), weight=0.5),
                Clause((3,), weight=3.0),
            ],
            name="weighted",
        )
        result = FPQACompiler(compression=compression).compile(formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_weighted_qaoa_differs_from_unweighted(self):
        heavy = CnfFormula(num_vars=2, clauses=[Clause((1, 2), weight=4.0)])
        light = CnfFormula(num_vars=2, clauses=[Clause((1, 2), weight=1.0)])
        assert not circuits_equivalent(qaoa_circuit(heavy), qaoa_circuit(light))


class TestRandomCircuits:
    def test_deterministic_for_seed(self):
        assert random_circuit(4, 20, seed=9) == random_circuit(4, 20, seed=9)

    def test_differs_across_seeds(self):
        assert random_circuit(4, 20, seed=1) != random_circuit(4, 20, seed=2)

    def test_gate_count(self):
        assert len(random_circuit(5, 33, seed=0)) == 33

    def test_max_arity_respected(self):
        circuit = random_circuit(5, 40, seed=3, max_arity=2)
        assert all(len(i.qubits) <= 2 for i in circuit.instructions)

    def test_measure_flag(self):
        circuit = random_circuit(3, 5, seed=0, measure=True)
        assert circuit.count_ops()["measure"] == 3

    def test_diagonal_circuit_is_diagonal(self):
        import numpy as np

        from repro.circuits import circuit_unitary

        circuit = random_diagonal_circuit(4, 15, seed=4)
        unitary = circuit_unitary(circuit)
        off_diagonal = unitary - np.diag(np.diag(unitary))
        assert np.allclose(off_diagonal, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_nativize_preserves_random_circuits(self, seed):
        """Fuzz: native synthesis must preserve arbitrary circuits."""
        circuit = random_circuit(4, 25, seed=seed)
        assert circuits_equivalent(circuit, nativize_circuit(circuit))


class TestDpqaFormat:
    def test_roundtrip(self):
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3).cz(0, 2).h(1)
        text = circuit_to_dpqa_json(circuit, name="demo")
        num_qubits, sets = dpqa_json_to_pairs(text)
        assert num_qubits == 4
        assert sum(len(s) for s in sets) == 3

    def test_sets_are_disjoint(self):
        circuit = QuantumCircuit(4)
        for a, b in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)]:
            circuit.cz(a, b)
        _, sets = dpqa_json_to_pairs(circuit_to_dpqa_json(circuit))
        for gate_set in sets:
            qubits: set[int] = set()
            for pair in gate_set:
                assert not (set(pair) & qubits)
                qubits |= set(pair)

    def test_metadata_counts(self):
        circuit = QuantumCircuit(3).h(0).cz(0, 1).h(2)
        payload = json.loads(circuit_to_dpqa_json(circuit))
        assert payload["metadata"]["num_1q_gates"] == 2
        assert payload["metadata"]["num_2q_gates"] == 1

    def test_three_qubit_gate_rejected(self):
        circuit = QuantumCircuit(3).ccz(0, 1, 2)
        with pytest.raises(CompilationError):
            circuit_to_dpqa_json(circuit)

    def test_malformed_json_rejected(self):
        with pytest.raises(CompilationError):
            dpqa_json_to_pairs("{not json")

    def test_overlapping_set_rejected(self):
        bad = json.dumps(
            {"num_qubits": 3, "gate_sets": [[[0, 1], [1, 2]]]}
        )
        with pytest.raises(CompilationError):
            dpqa_json_to_pairs(bad)


class TestArtifactRunner:
    def test_quick_artifact_run(self):
        from repro.evaluation import EvaluationConfig
        from repro.evaluation.artifact import run_artifact

        config = EvaluationConfig(
            compilers=("weaver", "atomique"),
            fixed_instances=("uf20-01",),
            scaling_sizes=(20,),
            instances_per_size=1,
        )
        report = run_artifact(config, include_ccz_sweep=False, verbose=False)
        assert set(report.figures) >= {"fig8a", "fig11a", "fig12a", "table2"}
        rendered = report.render()
        assert "Figure 8(a)" in rendered
        assert "Figure 12(b)" in rendered
