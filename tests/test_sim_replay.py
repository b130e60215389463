"""The simulator's compiled-plan replay: bit-identical output per seed,
one gate-matrix build per instruction however many trajectories run,
fused blocks that match an unfused reference, one ideal walk that every
branch forks off, and the numpy sampling identities the run loop rests
on.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from oracles.sim import NaiveStatevectorEngine, UnfusedStatevectorEngine

import repro
from repro.circuits import QuantumCircuit
from repro.circuits.gates import Gate
from repro.sim import (
    StatevectorEngine,
    run_schedule,
    schedule_for_result,
    simulate_result,
)


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


class TestSamplingIdentity:
    """The run loop draws its uniforms before the distributions exist and
    turns them into outcomes with :meth:`StatevectorEngine.draw`; that is
    bit-identical to ``Generator.choice`` only while numpy keeps these
    identities."""

    @pytest.mark.parametrize("dim", [2, 16, 4096])
    @pytest.mark.parametrize("size", [0, 1, 7, 500])
    def test_choice_is_inverse_cdf_of_random(self, dim, size):
        weights = np.random.default_rng(dim).random(dim) ** 4
        weights[::3] = 0.0
        probs = weights / weights.sum()
        by_choice, by_uniforms = np.random.default_rng(11), np.random.default_rng(11)
        expected = by_choice.choice(dim, size=size, p=probs)
        drawn = StatevectorEngine.draw(probs, by_uniforms.random(size))
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, expected)
        assert by_uniforms.bit_generator.state == by_choice.bit_generator.state

    def test_integers_of_one_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == before


def _random_stream(num_qubits: int, seed: int) -> list:
    """``u3``-heavy ``u3`` + ``cz``/``ccz`` stream, so single-qubit
    matrices pile up on several qubits of a block between flushes."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(8 * num_qubits):
        kind = int(rng.integers(6))
        if kind < 4 or num_qubits == 1:
            theta, phi, lam = rng.uniform(-np.pi, np.pi, size=3)
            circuit.u3(theta, phi, lam, int(rng.integers(num_qubits)))
        elif kind == 4 or num_qubits == 2:
            circuit.cz(*(int(q) for q in rng.choice(num_qubits, 2, replace=False)))
        else:
            circuit.ccz(*(int(q) for q in rng.choice(num_qubits, 3, replace=False)))
    return circuit.instructions


class TestFusedBlocks:
    """Plan replays against :class:`UnfusedStatevectorEngine`, with an
    insert declared on every qubit (so the block boundary 4/5 and the
    top qubit too) and one more on the top qubit after the last gate."""

    @pytest.mark.parametrize("num_qubits", range(1, 15))
    @pytest.mark.parametrize("seed", range(2))
    def test_plan_matches_unfused_reference(self, num_qubits, seed):
        instructions = _random_stream(num_qubits, seed)
        length = len(instructions)
        rng = np.random.default_rng(100 + seed)
        inserts = [
            (int(rng.integers(length + 1)), q, "xyz"[int(rng.integers(3))])
            for q in range(num_qubits)
        ]
        inserts.append((length, num_qubits - 1, "y"))
        engine = StatevectorEngine(num_qubits)
        reference = UnfusedStatevectorEngine(num_qubits)
        plan = engine.plan(instructions, inserts)

        ideal = engine.replay(engine.initial_state(), plan, 0, length)
        assert np.allclose(ideal, reference.run(instructions), rtol=0, atol=1e-10)
        noisy = engine.replay(engine.initial_state(), plan, 0, length, inserts)
        assert np.allclose(
            noisy, reference.run(instructions, inserts), rtol=0, atol=1e-10
        )

        # A branch forked off the ideal walk at its first insert.
        signature = sorted(inserts)[::2]
        first = signature[0][0]
        prefix = engine.replay(engine.initial_state(), plan, 0, first)
        branch = engine.replay(prefix.copy(), plan, first, length, signature)
        assert np.allclose(
            branch, reference.run(instructions, signature), rtol=0, atol=1e-10
        )

    def test_unfused_reference_matches_naive_engine(self):
        instructions = _random_stream(6, 7)
        assert np.allclose(
            UnfusedStatevectorEngine(6).run(instructions),
            NaiveStatevectorEngine(6).run(instructions),
            rtol=0, atol=1e-10,
        )

    def test_a_block_applies_as_one_step(self):
        circuit = QuantumCircuit(13)
        for q in range(13):
            circuit.u3(0.1 * q, 0.2, 0.3, q)
        plan = StatevectorEngine(13).plan(circuit.instructions)
        # Blocks 0-4, 5-8 and 9-12: one step each.
        assert len(plan.steps) == 3
        assert plan.tally[-1].tolist() == [0, 13, 0, 0]


class TestIdealWalkIsThePrefix:
    def test_each_step_replays_once_per_walk(self, compiled_12, monkeypatch):
        formula, result = compiled_12
        schedule = schedule_for_result(result)
        length = len(schedule.instructions)
        calls, plans = [], []
        original = StatevectorEngine.replay

        def recorded(self, state, plan, start, stop, inserts=()):
            calls.append((start, stop, tuple(sorted(inserts))))
            plans.append(plan)
            return original(self, state, plan, start, stop, inserts)

        monkeypatch.setattr(StatevectorEngine, "replay", recorded)
        execution = run_schedule(schedule, shots=500, seed=0, formula=formula)
        assert len({id(plan) for plan in plans}) == 1
        cut = plans[0].cut

        walk = [(start, stop) for start, stop, inserts in calls if not inserts]
        assert walk[0][0] == 0 and walk[-1][1] == length
        assert all(a[1] == b[0] for a, b in zip(walk, walk[1:]))

        branches = [(start, stop, inserts) for start, stop, inserts in calls if inserts]
        assert len(branches) == execution.stats["exact_trajectories"] == 8
        forks = [start for start, _, _ in branches]
        assert forks == sorted(forks)
        for start, stop, inserts in branches:
            assert (start, stop) == (inserts[0][0], length)
            # Each branch forks where the ideal walk paused.
            assert start in {stop for _, stop in walk}

        replayed = sum(cut[stop] - cut[start] for start, stop, _ in calls)
        suffixes = sum(cut[length] - cut[start] for start, _, _ in branches)
        assert replayed == cut[length] + suffixes
