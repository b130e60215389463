"""The simulator's compiled-plan replay: bit-identical output per seed,
and one gate-matrix build per instruction however many trajectories run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro
from repro.circuits.gates import Gate
from repro.sim import run_schedule, schedule_for_result, simulate_result


def _digest(execution) -> str:
    """sha256 of everything seed-determined in an execution but its
    ``profile`` (whose ``sim.gates.*`` counters follow the engine)."""
    payload = {
        "counts": execution.counts,
        "error_free_shots": execution.error_free_shots,
        "eps_sampled": execution.eps_sampled,
        "stats": execution.stats,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def compiled_12():
    formula = repro.random_ksat(12, 51, seed=3)
    return formula, repro.compile(formula, target="fpqa")


#: Digests taken with the engine that walked the instruction list anew
#: for the ideal run, the prefix and every branch; the plan replay must
#: reproduce them bit for bit.
GOLDEN_12 = {
    0: "1955f49085639393d6a6c58a5a1fbb80b0f9bd6b8ef602cf0a90dcdd0682f386",
    1: "d602b54afe3e0f95c5a11f062208e6df281edb1f85aa146e03c5f702a5b651a4",
    2: "eed13f6db0f36b793fd3b6149633c559f5d229e9845d1afbfcd6ff27d7247b94",
    3: "b28f4f561f51e92b0f307905eebaafa0465e1c095a60e9e6f72f370d151dda02",
    4: "756c6d66b60c8701a3ce96368c7e198874fba04446a4e8664511d7e927e1302a",
}
GOLDEN_16 = "fd189605f2661a9d0880761301fe100a6749630818036954a3c6d29a421c9cbe"


class TestGoldenOutput:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_12))
    def test_12_variables_500_shots(self, compiled_12, seed):
        formula, result = compiled_12
        execution = simulate_result(result, shots=500, seed=seed, formula=formula)
        assert execution.stats["exact_trajectories"] == 8
        assert _digest(execution) == GOLDEN_12[seed]

    def test_16_variables_1000_shots(self):
        formula = repro.random_ksat(16, 68, seed=5)
        result = repro.compile(formula, target="fpqa")
        execution = simulate_result(result, shots=1000, seed=0, formula=formula)
        assert execution.stats["exact_trajectories"] == 8
        assert _digest(execution) == GOLDEN_16


class TestPlanIsBuiltOnce:
    def test_one_matrix_per_single_qubit_gate(self, compiled_12, monkeypatch):
        formula, result = compiled_12
        schedule = schedule_for_result(result)
        one_qubit = sum(
            1 for inst in schedule.instructions
            if inst.gate.is_unitary and len(inst.qubits) == 1
        )
        calls = []
        original = Gate.matrix

        def counted(gate):
            calls.append(gate.name)
            return original(gate)

        monkeypatch.setattr(Gate, "matrix", counted)
        for max_trajectories in (0, 8):
            calls.clear()
            execution = run_schedule(
                schedule, shots=500, seed=0, formula=formula,
                max_trajectories=max_trajectories,
            )
            assert execution.stats["exact_trajectories"] == max_trajectories
            assert len(calls) <= one_qubit, (max_trajectories, len(calls), one_qubit)
