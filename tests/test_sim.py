"""Tests for repro.sim: engines, noise model, executor, stack threading."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.sim import NaiveStatevectorEngine

import repro
from repro import CnfFormula
from repro.circuits import circuit_statevector
from repro.circuits.random_circuits import random_circuit
from repro.exceptions import SimulationError, TargetError
from repro.metrics import program_eps
from repro.sim import (
    ExecutionResult,
    NoiseEvent,
    NoiseModel,
    Schedule,
    StatevectorEngine,
    bitstring,
    canonical_sim_options,
    run_schedule,
    schedule_from_program,
    score_samples,
    simulate_program,
    simulate_result,
    wilson_interval,
)
from repro.sim.noise import KIND_READOUT


@pytest.fixture(scope="module")
def small_formula():
    return CnfFormula.from_lists(
        [[1, -2, 3], [-1, 2, 4], [2, 3, -4]], num_vars=4, name="sim-small"
    )


@pytest.fixture(scope="module")
def compiled_small(small_formula):
    return repro.compile(small_formula, target="fpqa")


class TestEngines:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_statevector(self, seed):
        circuit = random_circuit(5, 40, seed=seed, max_arity=3)
        fast = StatevectorEngine(5).run(circuit)
        reference = circuit_statevector(circuit)
        assert np.allclose(fast, reference, atol=1e-9)

    def test_naive_engine_matches_too(self):
        circuit = random_circuit(4, 25, seed=9, max_arity=3)
        assert np.allclose(
            StatevectorEngine(4).run(circuit),
            NaiveStatevectorEngine(4).run(circuit),
            atol=1e-9,
        )

    def test_mcz_and_measure_handling(self):
        circuit = repro.QuantumCircuit(4)
        for q in range(4):
            circuit.h(q)
        circuit.mcz((0, 1, 2, 3))
        circuit.rzz(0.3, 1, 3)
        circuit.measure_all()
        fast = StatevectorEngine(4).run(circuit)
        reference = circuit_statevector(circuit)
        assert np.allclose(fast, reference, atol=1e-9)

    def test_pauli_inserts_match_explicit_gates(self):
        circuit = random_circuit(3, 12, seed=2, max_arity=2)
        inserts = [(0, 1, "x"), (5, 0, "z"), (12, 2, "y")]
        with_inserts = StatevectorEngine(3).run(circuit, inserts=inserts)
        explicit = repro.QuantumCircuit(3)
        for index, inst in enumerate(circuit.instructions):
            for position, qubit, pauli in inserts:
                if position == index:
                    explicit.append(pauli, (qubit,))
            explicit.append(inst.gate, inst.qubits)
        for position, qubit, pauli in inserts:
            if position == len(circuit.instructions):
                explicit.append(pauli, (qubit,))
        assert np.allclose(
            with_inserts, circuit_statevector(explicit), atol=1e-9
        )

    def test_initial_state_and_segments_compose(self):
        circuit = random_circuit(4, 20, seed=5)
        engine = StatevectorEngine(4)
        whole = engine.run(circuit)
        state = engine.initial_state()
        state = engine.apply_segment(state, circuit.instructions, 0, 7)
        state = engine.apply_segment(state, circuit.instructions, 7, 20)
        assert np.allclose(whole, state, atol=1e-9)

    def test_split_segment_applies_a_boundary_insert_once(self):
        # An insert at a split point belongs to the segment it starts.
        circuit = repro.QuantumCircuit(2).h(0).cx(0, 1).h(0).rz(0.4, 1)
        inserts = [(2, 0, "x")]
        engine = StatevectorEngine(2)
        whole = engine.run(circuit, inserts=inserts)
        state = engine.initial_state()
        state = engine.apply_segment(state, circuit.instructions, 0, 2, inserts)
        state = engine.apply_segment(state, circuit.instructions, 2, 4, inserts)
        assert np.allclose(whole, state, atol=1e-9)
        assert not np.allclose(whole, engine.run(circuit), atol=1e-9)

    def test_qubit_cap_enforced(self):
        with pytest.raises(SimulationError):
            StatevectorEngine(repro.linalg.MAX_STATEVECTOR_QUBITS + 1)
        with pytest.raises(SimulationError):
            NaiveStatevectorEngine(repro.linalg.MAX_UNITARY_QUBITS + 1)

    def test_sample_distribution_roughly_uniform(self):
        circuit = repro.QuantumCircuit(2).h(0).h(1)
        engine = StatevectorEngine(2)
        state = engine.run(circuit)
        samples = engine.sample(state, 4000, np.random.default_rng(0))
        counts = np.bincount(samples, minlength=4)
        assert (counts > 800).all()

    def test_bitstring_matches_measurement_distribution_keys(self):
        circuit = repro.QuantumCircuit(3).x(0)
        dist = repro.measurement_distribution(circuit)
        assert set(dist) == {bitstring(1, 3)} == {"100"}


class TestNoiseModel:
    def test_event_validation(self):
        with pytest.raises(SimulationError):
            NoiseEvent(probability=1.5, qubits=(0,))
        with pytest.raises(SimulationError):
            NoiseEvent(probability=0.1, kind="gamma-ray", qubits=(0,))
        with pytest.raises(SimulationError):
            NoiseEvent(probability=0.1, qubits=())

    def test_scaling_is_exact_power(self):
        events = (NoiseEvent(0.2, qubits=(0,)), NoiseEvent(0.05, qubits=(1,)))
        model = NoiseModel(events)
        squared = model.scaled(2.0)
        assert squared.analytic_eps() == pytest.approx(
            model.analytic_eps() ** 2, rel=1e-12
        )
        assert model.scaled(0.0).analytic_eps() == pytest.approx(1.0)

    def test_program_schedule_matches_analytic_eps(self, compiled_uf20):
        """The event product reproduces metrics.fidelity.program_eps."""
        program = compiled_uf20.program
        schedule = schedule_from_program(program)
        model = NoiseModel(schedule.events)
        assert model.analytic_eps() == pytest.approx(
            program_eps(program), rel=1e-9
        )

    @pytest.mark.parametrize("slm_index", [0, 5, -1])
    def test_transfer_that_moves_no_atom_is_rejected(self, slm_index):
        """Both traps empty, or the SLM index out of range: no qubit moves."""
        from repro.fpqa import AodInit, SlmInit, Transfer
        from repro.wqasm.program import AnnotatedOperation, WQasmProgram

        program = WQasmProgram(
            num_qubits=1,
            setup=(SlmInit(((0.0, 0.0),)), AodInit((0.0,), (0.0,))),
            operations=[AnnotatedOperation((Transfer(slm_index, 0, 0),))],
        )
        moves_no_atom = rf"SLM {slm_index} / AOD \(0, 0\) moves no atom"
        with pytest.raises(SimulationError, match=moves_no_atom):
            schedule_from_program(program)

    def test_device_profile_changes_event_rates(self, compiled_small):
        baseline = schedule_from_program(compiled_small.program)
        nextgen = schedule_from_program(
            compiled_small.program, repro.get_device("rubidium-nextgen").hardware
        )
        assert NoiseModel(nextgen.events).analytic_eps() > NoiseModel(
            baseline.events
        ).analytic_eps()


class TestRunSchedule:
    def test_readout_errors_flip_bits_exactly(self):
        schedule = Schedule(
            name="readout",
            num_qubits=2,
            instructions=[],
            events=(
                NoiseEvent(0.5, kind=KIND_READOUT, qubits=(0,)),
            ),
        )
        execution = run_schedule(schedule, shots=4000, seed=1)
        assert set(execution.counts) <= {"00", "10"}
        flipped = execution.counts.get("10", 0)
        assert abs(flipped / 4000 - 0.5) < 0.05
        assert execution.error_free_shots == 4000 - flipped

    def test_pauli_event_exact_trajectory(self):
        schedule = Schedule(
            name="pauli",
            num_qubits=1,
            instructions=[],
            events=(NoiseEvent(0.5, qubits=(0,), paulis=("x",), position=0),),
        )
        execution = run_schedule(schedule, shots=2000, seed=2)
        assert execution.counts["1"] == 2000 - execution.error_free_shots
        assert execution.stats["approx_shots"] == 0

    def test_approximate_tail_depolarizes(self):
        schedule = Schedule(
            name="approx",
            num_qubits=1,
            instructions=[],
            events=(NoiseEvent(0.5, qubits=(0,), paulis=("x",), position=0),),
        )
        execution = run_schedule(schedule, shots=2000, seed=2, max_trajectories=0)
        # Error shots now coin-flip the bit instead of deterministically
        # flipping it: about half of them still read 0.
        errors = 2000 - execution.error_free_shots
        assert execution.stats["approx_shots"] == errors
        assert abs(execution.counts.get("1", 0) - errors / 2) < errors * 0.2

    def test_eps_monotone_in_scale_with_common_random_numbers(
        self, compiled_small
    ):
        sampled = []
        for scale in (0.25, 1.0, 4.0, 16.0):
            execution = simulate_program(
                compiled_small.program, shots=600, noise=scale, seed=11
            )
            sampled.append(execution.eps_sampled)
        # One seed -> one uniform draw per (shot, event); firing sets only
        # grow with the scale, so the estimate is deterministically
        # non-increasing (and strictly decreasing over this scale span).
        assert sampled == sorted(sampled, reverse=True)
        assert sampled[0] > sampled[-1]

    def test_deterministic_given_seed(self, compiled_small, small_formula):
        def payload(seed):
            return simulate_result(
                compiled_small, shots=400, seed=seed, formula=small_formula
            ).to_dict()

        # The full JSON payload — profile included — is bit-identical
        # for identical seeds (it is content-addressed by the service).
        assert payload(9) == payload(9)
        assert payload(10) != payload(9)

    def test_generator_seed_accepted(self, compiled_small):
        a = simulate_result(compiled_small, shots=50, seed=np.random.default_rng(3))
        b = simulate_result(compiled_small, shots=50, seed=np.random.default_rng(3))
        assert a.counts == b.counts
        assert a.seed is None  # generators cannot be recorded

    def test_noiseless_matches_exact_distribution(self, compiled_small):
        execution = simulate_result(compiled_small, shots=6000, noise=None, seed=0)
        assert execution.eps_sampled == 1.0
        assert execution.eps_analytic == 1.0
        circuit = compiled_small.as_circuit()
        exact = repro.measurement_distribution(circuit)
        for bits, count in execution.counts.items():
            assert abs(count / 6000 - exact.get(bits, 0.0)) < 0.05

    def test_shot_validation(self, compiled_small):
        with pytest.raises(SimulationError):
            simulate_result(compiled_small, shots=0)
        with pytest.raises(SimulationError):
            simulate_result(compiled_small, shots=10, max_trajectories=-1)

    def test_formula_mismatch_rejected(self, compiled_small):
        other = CnfFormula.from_lists([[1, 2]], num_vars=2)
        with pytest.raises(SimulationError):
            simulate_result(compiled_small, shots=10, formula=other)


class TestScoring:
    def test_score_samples_manual(self):
        formula = CnfFormula.from_lists([[1], [2], [-1, -2]], num_vars=2)
        # Every assignment violates at least one clause; basis 1 and 3
        # (x1 true) each leave exactly one clause unsatisfied.
        scores = score_samples(formula, np.array([1, 1, 3]))
        assert scores["energy"] == pytest.approx(1.0)
        assert scores["best_satisfied"] == 2.0
        assert scores["optimum_satisfied"] == 2.0
        assert scores["approximation_ratio"] == pytest.approx(1.0)

    def test_formula_energies_agrees_with_counting(self):
        formula = repro.random_ksat(5, 12, seed=4)
        energies = repro.qaoa.formula_energies(formula)
        for basis in (0, 7, 19, 31):
            assignment = [(basis >> q) & 1 == 1 for q in range(5)]
            expected = formula.num_clauses - formula.num_satisfied(assignment)
            assert energies[basis] == pytest.approx(expected)


class TestExecutionResult:
    def test_json_round_trip(self, compiled_small, small_formula):
        execution = simulate_result(
            compiled_small, shots=200, seed=5, formula=small_formula
        )
        payload = execution.to_dict()
        again = ExecutionResult.from_dict(payload)
        assert again.to_dict() == payload

    def test_schema_guard(self):
        with pytest.raises(ValueError):
            ExecutionResult.from_dict({"schema": 999, "workload": "x", "shots": 1})

    def test_wilson_interval_sane(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        zero_low, zero_high = wilson_interval(0, 100)
        assert zero_low == 0.0 and zero_high > 0.0
        full_low, full_high = wilson_interval(100, 100)
        assert full_low < 1.0 and full_high == 1.0


class TestStackThreading:
    def test_compile_simulate_attaches_execution(self, small_formula):
        result = repro.compile(
            small_formula, target="fpqa", simulate={"shots": 150, "seed": 2}
        )
        assert result.execution is not None
        assert result.execution["shots"] == 150
        assert result.execution["approximation_ratio"] is not None
        round_tripped = repro.CompilationResult.from_dict(result.to_dict())
        assert round_tripped.execution == result.execution

    def test_canonical_options_validation(self):
        assert canonical_sim_options(None) is None
        assert canonical_sim_options(True)["shots"] == 1024
        with pytest.raises(SimulationError):
            canonical_sim_options({"shots": 0})
        with pytest.raises(SimulationError):
            canonical_sim_options({"bogus": 1})
        with pytest.raises(SimulationError):
            canonical_sim_options({"seed": np.random.default_rng(0)})

    def test_session_simulate_cells_are_distinct(self, small_formula, tmp_path):
        session = repro.CompilerSession(cache_dir=tmp_path)
        simulated = session.compile(
            small_formula, target="fpqa", simulate={"shots": 100, "seed": 1}
        )
        assert simulated.execution is not None
        hit = session.compile(
            small_formula, target="fpqa", simulate={"shots": 100, "seed": 1}
        )
        assert hit.cached and hit.execution == simulated.execution
        plain = session.compile(small_formula, target="fpqa")
        assert plain.execution is None and not plain.cached
        # A disk-cache reload keeps the execution payload.
        fresh = repro.CompilerSession(cache_dir=tmp_path)
        reloaded = fresh.compile(
            small_formula, target="fpqa", simulate={"shots": 100, "seed": 1}
        )
        assert reloaded.cached and reloaded.execution == simulated.execution

    def test_compile_many_simulates_each_cell(self, small_formula):
        session = repro.CompilerSession()
        rows = session.compile_many(
            [small_formula],
            targets=("fpqa", "superconducting"),
            simulate={"shots": 80, "seed": 3},
        )
        assert all(row.execution is not None for row in rows)
        assert all(row.execution["shots"] == 80 for row in rows)

    def test_simulation_failure_becomes_error_row(self, small_formula):
        session = repro.CompilerSession()
        row = session.compile(
            small_formula, target="atomique", simulate={"shots": 10}
        )
        assert row.error is not None and "SimulationError" in row.error

    def test_as_circuit_fpqa_is_reconstruction(self, compiled_small):
        from repro.checker import reconstruct_circuit

        assert compiled_small.as_circuit() == reconstruct_circuit(
            compiled_small.program
        )

    def test_as_circuit_gate_level_and_missing(self, small_formula):
        sc = repro.compile(small_formula, target="superconducting")
        assert sc.as_circuit() is sc.native_circuit
        bare = repro.CompilationResult(target="x", workload="w", num_qubits=1)
        with pytest.raises(TargetError):
            bare.as_circuit()

    def test_superconducting_simulation_uses_calibration(self, small_formula):
        result = repro.compile(
            small_formula, target="superconducting", device="heavyhex-23"
        )
        execution = result.simulate(shots=300, seed=4, formula=small_formula)
        assert execution.eps_analytic < 1.0
        assert execution.eps_sampled is not None

    def test_sim_profile_counters_present_and_deterministic(self, compiled_small):
        execution = simulate_result(compiled_small, shots=100, seed=0)
        primitives = execution.profile["primitives"]
        assert any(name.startswith("sim.gates.") for name in primitives)
        assert "sim.events_fired" in primitives
        # No wall-clock fields anywhere: the payload must be stable.
        assert all(set(entry) == {"count"} for entry in primitives.values())


class TestSeededReproducibility:
    """Satellite: identical seeds give identical outputs across paths."""

    def test_random_ksat_generator_and_int_agree(self):
        from_int = repro.random_ksat(8, 20, seed=42)
        from_gen = repro.random_ksat(8, 20, seed=np.random.default_rng(42))
        assert [c.literals for c in from_int] == [c.literals for c in from_gen]

    def test_walksat_and_sampling_accept_generators(self):
        from repro.qaoa import sample_best_assignment
        from repro.sat.solver import walksat

        formula = repro.random_ksat(6, 12, seed=1)
        a = walksat(formula, max_flips=200, seed=np.random.default_rng(7))
        b = walksat(formula, max_flips=200, seed=np.random.default_rng(7))
        assert a == b
        circuit = repro.qaoa_circuit(formula)
        x = sample_best_assignment(formula, circuit, shots=64, seed=np.random.default_rng(3))
        y = sample_best_assignment(formula, circuit, shots=64, seed=np.random.default_rng(3))
        assert x == y
