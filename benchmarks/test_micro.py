"""Micro-benchmarks of the compiler's hot paths (pytest-benchmark proper).

These run multiple rounds and produce real statistics; they guard the
complexity claims (DSatur O(N^2), Algorithm 2 O(N), QASM parsing O(K))
against regressions.
"""

from repro.circuits import QuantumCircuit, circuit_unitary
from repro.coloring import clause_conflict_graph, dsatur_coloring
from repro.evaluation import load_workload
from repro.fpqa import FPQAHardwareParams
from repro.passes import FPQACompiler, plan_waves
from repro.qaoa import qaoa_circuit
from repro.qasm import circuit_to_qasm, qasm_to_circuit


def test_bench_dsatur_uf50(benchmark):
    formula = load_workload("uf50-01")
    graph = clause_conflict_graph(formula)
    colors = benchmark(dsatur_coloring, graph)
    assert max(colors) >= 0


def test_bench_conflict_graph_uf250(benchmark):
    formula = load_workload("uf250-01")
    graph = benchmark(clause_conflict_graph, formula)
    assert graph.num_nodes == 1065


def test_bench_wave_planning(benchmark):
    import numpy as np

    rng = np.random.default_rng(0)
    xs = rng.permutation(200) * 10.0
    sources = {a: (float(xs[a]), 0.0) for a in range(200)}
    dests = {a: (a * 10.0, 40.0) for a in range(200)}
    waves = benchmark(plan_waves, sources, dests, 5.0)
    assert sum(len(w) for w in waves) == 200


def test_bench_weaver_compile_uf20(benchmark):
    formula = load_workload("uf20-01")
    compiler = FPQACompiler()
    result = benchmark.pedantic(
        lambda: compiler.compile(formula), rounds=3, iterations=1
    )
    assert result.program.total_pulses > 0


def test_bench_qasm_roundtrip(benchmark):
    circuit = qaoa_circuit(load_workload("uf20-01"))
    text = circuit_to_qasm(circuit)

    def roundtrip():
        return qasm_to_circuit(text)

    parsed = benchmark(roundtrip)
    assert parsed.num_qubits == 20


def test_bench_unitary_simulation_10q(benchmark):
    circuit = QuantumCircuit(10)
    for q in range(10):
        circuit.h(q)
    for q in range(9):
        circuit.cx(q, q + 1)
    unitary = benchmark.pedantic(
        lambda: circuit_unitary(circuit), rounds=3, iterations=1
    )
    assert unitary.shape == (1024, 1024)


def test_bench_closed_form_euler_beats_so3(benchmark):
    """Closed-form angle extraction must stay well ahead of the legacy
    SU(2)->SO(3) trace path it replaced (measured ~25x; assert 4x)."""
    import time

    import numpy as np
    from oracles.euler import zyx_euler_angles_so3

    from repro.circuits.euler import zyx_euler_angles

    rng = np.random.default_rng(0)
    matrices = [
        np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for _ in range(500)
    ]

    def closed():
        for matrix in matrices:
            zyx_euler_angles(matrix)

    benchmark.pedantic(closed, rounds=3, iterations=1)
    start = time.perf_counter()
    closed()
    closed_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for matrix in matrices:
        zyx_euler_angles_so3(matrix)
    so3_seconds = time.perf_counter() - start
    assert so3_seconds > 4.0 * closed_seconds, (
        f"closed-form Euler path regressed: {closed_seconds * 1e3:.1f} ms vs "
        f"SO(3) reference {so3_seconds * 1e3:.1f} ms"
    )


def test_bench_incremental_clusters_beat_brute_force(benchmark):
    """Cached + spatial-hash Rydberg resolution vs the dense O(n^2) oracle per pulse.

    Models the real pulse pattern (two pulses per stance: the second
    resolution is always a cache hit) on a 400-atom array.  Measured
    ~30x; assert a generous 4x.
    """
    import time

    from oracles.device import resolve_brute_force

    from repro.fpqa.device import FPQADevice
    from repro.fpqa.instructions import BindAtom, SlmInit

    fast = FPQADevice()
    # 10x20 grid of atom *pairs* (400 atoms): partners sit 6 um apart
    # (inside the 8 um radius, so every pair clusters) while pairs
    # stay >8 um from each other — a valid dense pulse geometry.
    positions = tuple(
        (20.0 * col + dx, 10.0 * row)
        for row in range(20)
        for col in range(10)
        for dx in (0.0, 6.0)
    )
    fast.apply(SlmInit(positions))
    for qubit in range(len(positions)):
        fast.apply(BindAtom(qubit=qubit, slm_index=qubit))
    rounds = 40

    def incremental():
        # Invalidate, then resolve twice (stance pattern: miss + hit).
        fast._geometry_epoch += 1
        fast.resolve_rydberg_clusters()
        fast.resolve_rydberg_clusters()

    benchmark.pedantic(incremental, rounds=3, iterations=1)
    start = time.perf_counter()
    for _ in range(rounds):
        incremental()
    fast_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        resolve_brute_force(fast)
        resolve_brute_force(fast)
    slow_seconds = time.perf_counter() - start
    assert fast._resolve_spatial_hash() == resolve_brute_force(fast)
    assert slow_seconds > 4.0 * fast_seconds, (
        f"cluster resolution regressed: {fast_seconds * 1e3:.1f} ms vs "
        f"brute force {slow_seconds * 1e3:.1f} ms"
    )


def test_bench_cost_model_repeated_evaluation(benchmark):
    """Fidelity+timing of one program on one device, evaluated repeatedly.

    The device-profile subsystem's precomputed tables (log-fidelity terms
    resolved once per device, not once per instruction per call) should
    keep repeated evaluation — the shape of every figure sweep — well
    under the seed path's cost; see
    ``tests/test_devices.py::TestCostModel::test_precompute_beats_seed_path``
    for the direct seed-vs-table comparison.
    """
    from repro.devices import cost_model_for
    from repro.passes import FPQACompiler

    program = FPQACompiler().compile(load_workload("uf20-01")).program
    hardware = FPQAHardwareParams()

    def evaluate():
        model = cost_model_for(hardware)
        return model.program_eps(program, model.program_duration_us(program))

    eps = benchmark(evaluate)
    assert 0.0 < eps < 1.0
