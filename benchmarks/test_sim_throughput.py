"""Simulator throughput: vectorized engine vs the naive matmul reference.

The acceptance bar for the execution engine (ISSUE 5): the axis-reshape
statevector engine must sustain >= 5x the shots/sec of the naive
reference that builds a full ``2^n x 2^n`` operator per gate.  Measured
on a *compiled* FPQA program replay (the production workload: mostly
``u3`` + ``cz``/``ccz``), not a synthetic circuit.
"""

from __future__ import annotations

import time

import numpy as np
from oracles.sim import NaiveStatevectorEngine

import repro
from repro.sim import StatevectorEngine, schedule_from_program

SHOTS = 64


def _shots_per_second(engine, instructions, shots=SHOTS):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    state = engine.run(instructions)
    probs = np.abs(state) ** 2
    probs /= probs.sum()
    rng.choice(probs.size, size=shots, p=probs)
    elapsed = time.perf_counter() - start
    return shots / elapsed, state


def test_vectorized_engine_at_least_5x_naive(capsys):
    formula = repro.random_ksat(10, 24, seed=7, name="bench-sim")
    result = repro.compile(formula, target="fpqa")
    schedule = schedule_from_program(result.program)
    instructions = schedule.instructions

    fast_engine = StatevectorEngine(schedule.num_qubits)
    naive_engine = NaiveStatevectorEngine(schedule.num_qubits)
    # Warm both paths (matrix caches, allocator) before timing.
    fast_engine.run(instructions)
    naive_engine.run(instructions)

    fast_rate, fast_state = _shots_per_second(fast_engine, instructions)
    naive_rate, naive_state = _shots_per_second(naive_engine, instructions)
    assert np.allclose(fast_state, naive_state, atol=1e-8)

    speedup = fast_rate / naive_rate
    with capsys.disabled():
        print(
            f"\n[sim-throughput] {schedule.num_qubits} qubits, "
            f"{len(instructions)} gates: vectorized {fast_rate:.1f} shots/s, "
            f"naive {naive_rate:.1f} shots/s, speedup {speedup:.1f}x"
        )
    assert speedup >= 5.0, f"vectorized engine only {speedup:.1f}x over naive"


def test_noisy_sampling_throughput_floor(capsys):
    """2000 noisy shots of a 10-qubit compiled program stay interactive."""
    formula = repro.random_ksat(10, 24, seed=7, name="bench-sim")
    result = repro.compile(formula, target="fpqa", device="rubidium-baseline")
    start = time.perf_counter()
    execution = result.simulate(shots=2000, seed=7, formula=formula)
    elapsed = time.perf_counter() - start
    rate = 2000 / elapsed
    with capsys.disabled():
        print(
            f"\n[sim-throughput] noisy 10q: {rate:.0f} shots/s "
            f"({elapsed:.2f} s for 2000 shots, "
            f"{execution.stats['unique_trajectories']} trajectories)"
        )
    assert rate > 200, f"noisy sampling too slow: {rate:.0f} shots/s"
