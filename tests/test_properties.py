"""Cross-cutting property tests (hypothesis) over the compiler stack.

These fuzz the substrate boundaries: QASM round-trips over random
circuits, SABRE routing correctness on random programs, wave-planning
invariants, and full Weaver compilations of random formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, circuits_equivalent
from repro.circuits.random_circuits import random_circuit
from repro.passes import FPQACompiler, nativize_circuit, plan_waves
from repro.qasm import circuit_to_qasm, qasm_to_circuit
from repro.sat import random_ksat
from repro.superconducting import SabreRouter, grid_coupling


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 30))
def test_qasm_roundtrip_random_circuits(seed, num_qubits, num_gates):
    """print(parse(c)) == c for arbitrary circuits (exact instruction match)."""
    circuit = random_circuit(num_qubits, num_gates, seed=seed)
    again = qasm_to_circuit(circuit_to_qasm(circuit))
    assert again == circuit


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 20))
def test_nativize_random_circuits(seed, num_qubits, num_gates):
    """{U3, CZ} nativization preserves the unitary of random circuits."""
    circuit = random_circuit(num_qubits, num_gates, seed=seed)
    native = nativize_circuit(circuit)
    assert {i.name for i in native.instructions} <= {"u3", "cz"}
    assert circuits_equivalent(circuit, native)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 25))
def test_sabre_random_2q_circuits_stay_legal(seed, num_gates):
    """Every 2q gate in a SABRE-routed circuit acts on coupled qubits."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(6)
    for _ in range(num_gates):
        a, b = rng.choice(6, size=2, replace=False)
        circuit.cz(int(a), int(b))
    coupling = grid_coupling(2, 3)
    routing = SabreRouter(coupling).route(circuit)
    for inst in routing.circuit.instructions:
        if inst.gate.is_unitary and len(inst.qubits) == 2:
            assert coupling.are_connected(*inst.qubits)
    # Layout bookkeeping stays a permutation.
    assert sorted(routing.final_layout) == sorted(routing.initial_layout)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 30))
def test_wave_planning_invariants(seed, num_atoms):
    """Waves partition the move set; each wave is strictly x-ordered at
    both endpoints with the minimum column gap respected."""
    rng = np.random.default_rng(seed)
    min_gap = 5.0
    source_xs = rng.permutation(num_atoms) * 10.0
    sources = {a: (float(source_xs[a]), float(rng.integers(0, 3)) * 40.0) for a in range(num_atoms)}
    dests = {a: (a * 10.0, 200.0) for a in range(num_atoms)}
    waves = plan_waves(sources, dests, min_gap)
    moved = sorted(atom for wave in waves for atom in wave.atoms)
    assert moved == list(range(num_atoms))
    for wave in waves:
        for (x1, _), (x2, _) in zip(wave.sources, wave.sources[1:]):
            assert x2 - x1 >= min_gap - 1e-9
        for (x1, _), (x2, _) in zip(wave.destinations, wave.destinations[1:]):
            assert x2 - x1 >= min_gap - 1e-9


@pytest.mark.parametrize("seed", range(6, 10))
def test_weaver_random_formula_fuzz(seed):
    """Full pipeline fuzz: compile random 3-SAT, logical == reference.

    Complements the hypothesis suites with fixed-seed cases that exercise
    larger formulas (kept parametrized so failures name their seed).
    """
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(4, 9))
    num_clauses = int(rng.integers(3, 12))
    k = int(rng.integers(1, 4))
    formula = random_ksat(num_vars, num_clauses, k=min(k, num_vars), seed=seed)
    result = FPQACompiler().compile(formula, measure=False)
    assert circuits_equivalent(
        result.program.logical_circuit(), result.native_circuit
    )


@pytest.mark.parametrize("seed", range(3))
def test_checker_verifies_random_compilations(seed):
    """The wChecker signs off on every honestly-compiled random formula."""
    from repro.checker import check_program

    formula = random_ksat(6, 8, seed=100 + seed)
    result = FPQACompiler().compile(formula, measure=False)
    report = check_program(result.program, reference=result.native_circuit)
    assert report.ok, report.operation_failures[:3]
