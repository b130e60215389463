"""The repro.perf subsystem and the hot-path optimizations it guards.

Three concerns:

* the instrumentation itself (Profiler counters, profile dict schema,
  JSON round trip, the ``--profile`` CLI table);
* semantics preservation — the compiler emits, byte for byte, the wQasm
  programs pinned below (recorded from the uncached pipeline before it was
  deleted), its caches fire, and the wChecker accepts the result; and
* the individual mechanisms: closed-form Euler extraction (against the
  SO(3) oracle), position-key SLM lookup, cluster-cache invalidation, and
  the bench runner's cells and trajectory file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from oracles.euler import zyx_euler_angles_so3

import repro
from repro.checker import check_program
from repro.circuits.euler import zyx_euler_angles
from repro.circuits.gates import gate_matrix
from repro.cli import main
from repro.exceptions import CircuitError
from repro.fpqa.device import FPQADevice
from repro.fpqa.geometry import position_key
from repro.fpqa.instructions import BindAtom, SlmInit
from repro.linalg import allclose_up_to_global_phase
from repro.passes.woptimizer import FPQACompiler
from repro.perf import Profiler, format_profile_table
from repro.perf.bench import SEED, append_run, bench_cell, write_bench_file
from repro.qaoa import QaoaParameters
from repro.qasm import circuit_to_qasm
from repro.sat import to_dimacs
from repro.sat.generator import random_ksat
from repro.targets.result import CompilationResult

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Profiler / profile dict
# ----------------------------------------------------------------------
class TestProfiler:
    def test_counters_accumulate(self):
        profiler = Profiler()
        profiler.add_pass("coloring", 0.25)
        profiler.add_pass("coloring", 0.25)
        profiler.add("raman_local", 0.001, count=2)
        profiler.add("raman_local", 0.003)
        profiler.hit("angles")
        profiler.miss("angles", count=3)
        profile = profiler.profile(total_seconds=1.0)
        assert profile["passes"]["coloring"]["seconds"] == 0.5
        assert profile["primitives"]["raman_local"] == {"count": 3, "seconds": 0.004}
        assert profile["caches"]["angles"] == {"hits": 1, "misses": 3}
        assert profile["total_seconds"] == 1.0

    def test_profile_is_json_safe(self):
        profiler = Profiler()
        profiler.add_pass("p", 0.1)
        profiler.add("x", 0.2)
        profiler.set_cache("c", hits=5, misses=1)
        profile = profiler.profile(total_seconds=0.3)
        assert json.loads(json.dumps(profile)) == profile

    def test_format_table_mentions_everything(self):
        profiler = Profiler()
        profiler.add_pass("clause-coloring", 0.01)
        profiler.add("rydberg", 0.002, count=7)
        profiler.set_cache("raman_angles", hits=99, misses=1)
        table = format_profile_table(profiler.profile(total_seconds=0.5))
        assert "clause-coloring" in table
        assert "rydberg" in table and "7" in table
        assert "raman_angles" in table and "99.0%" in table
        assert "total" in table

    def test_empty_profile_renders(self):
        assert "no profile" in format_profile_table({})


class TestTargetOptions:
    def test_bad_optimize_option_is_a_target_error(self, tiny_formula):
        """The FPQA compile has one path; there is no switch to select another."""
        from repro.exceptions import TargetError

        for value in ("fast", False):
            with pytest.raises(TargetError, match="optimize"):
                repro.compile(
                    tiny_formula, target="fpqa", target_options={"optimize": value}
                )


# ----------------------------------------------------------------------
# End-to-end: profile surfaces and round-trips
# ----------------------------------------------------------------------
class TestCompileProfile:
    @pytest.fixture(scope="class")
    def result(self, tiny_formula):
        return repro.compile(tiny_formula, target="fpqa")

    def test_profile_present_with_passes_and_primitives(self, result):
        profile = result.profile
        assert profile is not None
        assert "codegen" in profile["passes"]
        assert "clause-coloring" in profile["passes"]
        assert profile["primitives"]["raman_local"]["count"] > 0
        assert profile["primitives"]["rydberg"]["count"] > 0
        assert "rydberg_clusters" in profile["caches"]

    def test_profile_round_trips_through_json(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        restored = CompilationResult.from_dict(payload)
        assert restored.profile == result.profile

    def test_profile_none_for_targets_without_instrumentation(self, tiny_formula):
        result = repro.compile(tiny_formula, target="atomique")
        assert result.profile is None
        restored = CompilationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.profile is None


class TestCliProfile:
    def test_compile_profile_prints_table(self, tmp_path, tiny_formula, capsys):
        cnf = tmp_path / "tiny.cnf"
        cnf.write_text(to_dimacs(tiny_formula))
        out = tmp_path / "out.wqasm"
        assert main(["compile", str(cnf), "-o", str(out), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "codegen" in err
        assert "raman_local" in err
        assert "hit rate" in err


# ----------------------------------------------------------------------
# Semantics preservation
# ----------------------------------------------------------------------
class TestSemanticsPreserved:
    """The caches must not change the emitted program or its reference.

    Each ``GOLDEN`` digest is the sha256 of ``program.to_wqasm()`` as
    emitted by the uncached pipeline (every memo and the dense cluster
    resolver off, closed-form Euler angles on) before that pipeline was
    deleted.  Each ``NATIVE_GOLDEN`` digest is the sha256 of
    ``circuit_to_qasm(result.native_circuit)`` -- the reference QAOA
    circuit serialized as an artifact's ``native_qasm`` -- as built by
    the compose-based ``qaoa_circuit`` before its single-pass rewrite.
    """

    GOLDEN = {
        "paper": "05f132be67a03a765cc425011dbcb8913d1e62d5f03849930e70218333d4f59e",
        "mixed-ladder": "3ea15776f5af2c909ec5f365247f0be691365f877918b2b9eb2f5341d306c093",
        "ksat24-p3": "e21b30d51d921642ca6d2572054f44a2b46cef729c002206b6a44a793dd85aa4",
        "ksat150": "cfec2d5c82829a1f774d994f17bdd0f66c56c4feba950c7110d758c900f14b8a",
    }

    NATIVE_GOLDEN = {
        "paper": "d11aadf01cbe03a59b0402a10c07a421fdaf4e61bd25995b713db5fa4b7e7da5",
        "mixed-ladder": "7a5bf1ed7b376f2de1fa9a7f3d106aae59d2d3b30512a832e5e6ea211e7f2c0e",
        "ksat24-p3": "e20375bbf9f2051157cc498013d3305977823411e894e5644d27991c030e497c",
        "ksat150": "b1f1486111eda91707b70350496d71a4240f0df549382ad08b6c78825ed032b2",
    }

    @pytest.fixture(scope="class")
    def formula(self):
        return random_ksat(24, 100, seed=11)

    @pytest.fixture(scope="class")
    def parameters(self):
        # Three layers so the zone-plan memoization actually fires: layer 1
        # starts from the home row, layer 2 from the steady parked state,
        # and layer 3 sees that state again (the first cache hit).
        return QaoaParameters((0.7, 0.4, 0.6), (0.35, 0.2, 0.1))

    @pytest.fixture(scope="class")
    def result(self, formula, parameters):
        return FPQACompiler().compile(formula, parameters)

    @pytest.fixture(scope="class")
    def compiled(self, paper_formula, mixed_formula, formula, parameters):
        cases = {
            "paper": (FPQACompiler(), paper_formula, None),
            "mixed-ladder": (FPQACompiler(compression=False), mixed_formula, None),
            "ksat24-p3": (FPQACompiler(), formula, parameters),
            "ksat150": (FPQACompiler(), random_ksat(150, 639, seed=7), None),
        }
        return {
            case: compiler.compile(workload, layers)
            for case, (compiler, workload, layers) in cases.items()
        }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_emitted_program_matches_golden_digest(self, case, compiled):
        text = compiled[case].program.to_wqasm()
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(NATIVE_GOLDEN))
    def test_reference_circuit_matches_golden_digest(self, case, compiled):
        text = circuit_to_qasm(compiled[case].native_circuit)
        assert hashlib.sha256(text.encode()).hexdigest() == self.NATIVE_GOLDEN[case]

    def test_caches_fire(self, result):
        caches = result.profile["caches"]
        assert caches["raman_angles"]["hits"] > 0
        assert caches["zone_plans"]["hits"] == 1
        assert caches["rydberg_clusters"]["hits"] > 0

    def test_optimized_program_passes_wchecker(self, result):
        report = check_program(result.program, reference=result.native_circuit)
        assert report.ok, report.operation_failures[:3]


# ----------------------------------------------------------------------
# Closed-form Euler extraction
# ----------------------------------------------------------------------
class TestClosedFormEuler:
    def test_matches_so3_reference_on_random_unitaries(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unitary, _ = np.linalg.qr(mat)
            fast = zyx_euler_angles(unitary)
            slow = zyx_euler_angles_so3(unitary)
            rec_fast = gate_matrix("raman", fast)
            rec_slow = gate_matrix("raman", slow)
            assert allclose_up_to_global_phase(rec_fast, unitary, atol=1e-9)
            assert allclose_up_to_global_phase(rec_fast, rec_slow, atol=1e-9)

    def test_gimbal_lock_cases(self):
        for name, params in (
            ("h", ()),
            ("ry", (np.pi / 2,)),
            ("ry", (-np.pi / 2,)),
        ):
            unitary = gate_matrix(name, params)
            angles = zyx_euler_angles(unitary)
            assert angles[0] == 0.0  # roll folded into yaw at the pole
            assert allclose_up_to_global_phase(
                gate_matrix("raman", angles), unitary, atol=1e-9
            )
        # X is a plain pi rotation about x — not gimbal-locked: pure roll.
        x_angles = zyx_euler_angles(gate_matrix("x"))
        assert x_angles == pytest.approx((np.pi, 0.0, 0.0))

    def test_rejects_non_square_and_singular(self):
        with pytest.raises(CircuitError):
            zyx_euler_angles(np.zeros((2, 2)))
        with pytest.raises(CircuitError):
            zyx_euler_angles(np.eye(3))


# ----------------------------------------------------------------------
# Device fast paths
# ----------------------------------------------------------------------
class TestDeviceFastPaths:
    def _loaded_device(self) -> FPQADevice:
        device = FPQADevice()
        positions = tuple((10.0 * i, 0.0) for i in range(4))
        device.apply(SlmInit(positions))
        for qubit in range(4):
            device.apply(BindAtom(qubit=qubit, slm_index=qubit))
        return device

    def test_slm_index_at_matches_position_key(self):
        device = self._loaded_device()
        for index, position in enumerate(device.slm_positions):
            assert device.slm_index_at(*position) == index
            # Sub-rounding jitter maps to the same key, hence same trap.
            assert device.slm_index_at(position[0] + 1e-9, position[1]) == index
        assert device.slm_index_at(1234.5, 0.0) is None
        assert position_key((1.0000004, 2.0)) == position_key((1.0, 2.0))

    def test_cluster_cache_invalidated_by_movement(self):
        device = self._loaded_device()
        first = device.resolve_rydberg_clusters()
        again = device.resolve_rydberg_clusters()
        assert first == again
        assert device.cluster_cache_hits == 1
        assert device.cluster_resolutions == 1
        device.lose_atom(3)
        assert device.resolve_rydberg_clusters() == []
        assert device.cluster_resolutions == 2


# ----------------------------------------------------------------------
# Bench runner
# ----------------------------------------------------------------------
#: The last two stdout lines of a perfbench run, abridged.
PROVENANCE = {"provenance": {"workload": "compile-corpus", "seed": 1, "nproc": 2}}
RESULT = {
    "correct": True,
    "attempted": 9,
    "failed": 0,
    "metrics": {"compile_s": {"value": 0.14, "unit": "s"}},
}
LAYERS = {"passes.codegen_s": {"value": 0.02, "unit": "s"}}
METRIC_LINE = "compile_s                            0.14 s\n"


def perfbench_stdout(**result) -> str:
    return (
        METRIC_LINE
        + json.dumps(PROVENANCE) + "\n"
        + json.dumps({**RESULT, **result}) + "\n"
    )


#: An untraced and a traced run that both succeeded.
UNTRACED = (0, perfbench_stdout())
TRACED = (0, perfbench_stdout(attempted=4, metrics=LAYERS))


class TestBenchRunner:
    def test_two_runs_become_one_cell(self):
        cell = bench_cell("compile-corpus", UNTRACED, TRACED)
        assert cell == {"provenance": PROVENANCE["provenance"], **RESULT, "layers": LAYERS}

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "run",
        [
            (1, perfbench_stdout(correct=False, failed=1)),
            (0, perfbench_stdout(correct=False, failed=1)),
            (1, METRIC_LINE + json.dumps(PROVENANCE) + "\n"),
            (1, METRIC_LINE + "Traceback (most recent call last):\n"),
            (1, perfbench_stdout()),
        ],
        ids=["correct-false", "correct-false-exit-0", "no-result-line", "crash", "exit-1"],
    )
    def test_failed_workload_appends_nothing(self, tmp_path, run, traced):
        path = tmp_path / "BENCH_perfbench.json"
        failing = ("sweep-cache", UNTRACED, run) if traced else ("sweep-cache", run, TRACED)
        outcomes = [("compile-corpus", UNTRACED, TRACED), failing]
        assert append_run(outcomes, None, path) == 1
        assert not path.exists()

    def test_two_appends_give_two_runs(self, tmp_path):
        path = tmp_path / "BENCH_perfbench.json"
        outcomes = [("compile-corpus", UNTRACED, TRACED)]
        assert append_run(outcomes, "first", path) == 0
        assert append_run(outcomes, None, path) == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        first, second = payload["runs"]
        assert first["label"] == "first" and second["label"] is None
        assert first["cells"] == second["cells"]
        assert first["cells"][0]["metrics"] == RESULT["metrics"]
        assert first["cells"][0]["layers"] == LAYERS

    def test_corrupt_trajectory_is_preserved_not_crashed(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{truncated")
        write_bench_file({"cells": []}, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1 and len(payload["runs"]) == 1
        # The unreadable history moved aside instead of vanishing.
        assert (tmp_path / "bench.json.bak").read_text().startswith("{truncated")

    def test_schema_without_runs_list_is_treated_as_corrupt(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"schema": 1}')
        write_bench_file({"cells": []}, path)
        payload = json.loads(path.read_text())
        assert len(payload["runs"]) == 1
        assert (tmp_path / "bench.json.bak").exists()

    def test_committed_bench_file_is_valid(self):
        payload = json.loads((ROOT / "BENCH_perfbench.json").read_text(encoding="utf-8"))
        assert payload["schema"] == 1
        assert payload["runs"], "BENCH_perfbench.json has no runs"
        latest = payload["runs"][-1]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert [cell["provenance"]["workload"] for cell in latest["cells"]] == [
            workload["name"] for workload in spec["workloads"]
        ]
        end_to_end = {metric["name"] for metric in spec["end_to_end"]}
        per_layer = {metric["name"] for metric in spec["per_layer"]}
        for cell in latest["cells"]:
            workload = cell["provenance"]["workload"]
            assert cell["provenance"]["seed"] == SEED, workload
            assert cell["correct"] is True and cell["failed"] == 0, workload
            assert end_to_end <= set(cell["metrics"]), workload
            assert per_layer <= set(cell["layers"]), workload
