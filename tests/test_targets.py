"""The unified target API: registry, workloads, parity with legacy paths."""

import pytest

import repro
from repro import (
    CompilationResult,
    UnknownTargetError,
    Workload,
    WorkloadError,
    coerce_workload,
)
from repro.qaoa import qaoa_circuit
from repro.qasm import circuit_to_qasm
from repro.sat import to_dimacs
from repro.targets import FPQATarget, Target, get_target, register_target, target_info
from repro.targets.registry import resolve_target_name

ALL_TARGETS = ("atomique", "dpqa", "fpqa", "fpqa-nocompress", "geyser", "superconducting")


class TestRegistry:
    def test_builtin_targets_registered(self):
        assert set(repro.available_targets()) == set(ALL_TARGETS)

    def test_unknown_target_rejected(self, tiny_formula):
        with pytest.raises(UnknownTargetError) as excinfo:
            repro.compile(tiny_formula, target="pixie")
        assert "pixie" in str(excinfo.value)
        assert "fpqa" in str(excinfo.value)  # names the alternatives

    def test_unknown_target_is_also_keyerror(self):
        with pytest.raises(KeyError):
            get_target("pixie")

    def test_weaver_alias_resolves_to_fpqa(self):
        assert resolve_target_name("weaver") == "fpqa"
        assert isinstance(get_target("weaver"), FPQATarget)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(repro.TargetError):
            register_target("fpqa", FPQATarget)

    def test_custom_target_registration(self, tiny_formula):
        class EchoTarget(Target):
            name = "echo-test"
            description = "test-only target"

            def run(self, workload, parameters, deadline, **options):
                return CompilationResult(
                    target=self.name,
                    workload=workload.name,
                    num_qubits=workload.num_qubits,
                )

        register_target("echo-test", EchoTarget, replace=True)
        result = repro.compile(tiny_formula, target="echo-test")
        assert result.target == "echo-test"
        assert result.num_qubits == tiny_formula.num_vars

    def test_target_info_lists_capabilities(self):
        info = {entry["name"]: entry for entry in target_info()}
        assert "formula" in info["fpqa"]["capabilities"]
        assert "wqasm" in info["fpqa"]["capabilities"]
        assert "circuit" in info["superconducting"]["capabilities"]


class TestWorkload:
    def test_from_formula(self, tiny_formula):
        workload = coerce_workload(tiny_formula)
        assert workload.name == tiny_formula.name
        assert workload.num_qubits == tiny_formula.num_vars
        assert workload.num_clauses == tiny_formula.num_clauses

    def test_from_circuit(self, tiny_formula):
        circuit = qaoa_circuit(tiny_formula, measure=False)
        workload = coerce_workload(circuit)
        assert not workload.has_formula
        assert workload.num_qubits == circuit.num_qubits

    def test_from_qasm_text(self, tiny_formula):
        qasm = circuit_to_qasm(qaoa_circuit(tiny_formula, measure=False))
        workload = coerce_workload(qasm)
        assert workload.num_qubits == tiny_formula.num_vars

    def test_from_cnf_file(self, tmp_path, tiny_formula):
        path = tmp_path / "tiny.cnf"
        path.write_text(to_dimacs(tiny_formula))
        workload = Workload.from_file(path)
        assert workload.has_formula
        assert workload.num_qubits == tiny_formula.num_vars

    def test_qasm_suffix_beats_content_sniff(self, tmp_path):
        """A .qasm file starting with 'c...' must route to the QASM parser
        (previously the DIMACS content sniff won and raised SatError)."""
        from repro.exceptions import QasmSemanticError

        path = tmp_path / "circ.qasm"
        path.write_text("creg c[3];\ncx q[0], q[1];\n")
        with pytest.raises(QasmSemanticError):
            Workload.from_file(path)

    def test_unreadable_file_rejected(self):
        with pytest.raises(WorkloadError):
            Workload.from_file("/nonexistent/never.cnf")

    def test_unsupported_input_rejected(self):
        with pytest.raises(WorkloadError):
            coerce_workload(42)

    def test_formula_required_by_fpqa(self, tiny_formula):
        circuit = qaoa_circuit(tiny_formula, measure=False)
        with pytest.raises(WorkloadError):
            repro.compile(circuit, target="fpqa")

    def test_circuit_accepted_by_superconducting(self, tiny_formula):
        circuit = qaoa_circuit(tiny_formula, measure=True)
        result = repro.compile(circuit, target="superconducting")
        assert result.succeeded
        assert result.eps is not None


class TestCompileAllTargets:
    """Acceptance: every registered target compiles a uf20 instance."""

    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_uf20_compiles(self, uf20, target):
        result = repro.compile(uf20, target=target)
        assert result.succeeded
        assert result.num_qubits == 20
        assert result.compile_seconds > 0

    def test_fpqa_program_verifies(self, uf20):
        result = repro.compile(uf20, target="fpqa")
        assert result.program is not None
        report = repro.check_program(result.program, reference=result.native_circuit)
        assert report.ok


class TestLegacyParity:
    """repro.compile must reproduce the underlying compilers exactly."""

    def test_fpqa_matches_fpqa_compiler(self, uf20):
        direct = repro.FPQACompiler().compile(uf20)
        unified = repro.compile(uf20, target="fpqa")
        assert unified.program.to_wqasm() == direct.program.to_wqasm()
        assert unified.program.total_pulses == direct.program.total_pulses
        assert unified.program.pulse_counts() == direct.program.pulse_counts()
        assert unified.num_pulses == direct.program.total_pulses
        assert (
            unified.stats["clause-coloring"]["num_colors"]
            == direct.stats["clause-coloring"]["num_colors"]
        )

    def test_nocompress_matches_compression_off(self, tiny_formula):
        direct = repro.FPQACompiler(compression=False).compile(tiny_formula)
        unified = repro.compile(tiny_formula, target="fpqa-nocompress")
        assert unified.program.pulse_counts() == direct.program.pulse_counts()


class TestGoldenOutput:
    """The gate-level targets' results, pinned byte for byte.

    Each digest is the sha256 of ``json.dumps(d, sort_keys=True)`` where
    ``d`` is ``result.to_dict()`` without the run-dependent
    ``compile_seconds`` and ``profile``; the values were recorded from
    the comparison compilers' earlier ``compile_formula`` implementation.
    """

    GOLDEN = {
        ("small", "atomique"): "c3a7f9c8d0c240eb5496809a223bd9d810364765e1d55ca52621a8205a34be65",
        ("small", "geyser"): "5709bb3fde270f97101b79cf6ecc1fe29e4deb87f84165711fcc6ed4213934a7",
        ("small", "dpqa"): "9c96beac0fab4314d0945f07c445ced96faf4afcb44068b954c13456048d05af",
        ("small", "superconducting"): "705fe8b6ffdff99ea42d8e06e920ac031b0b282baace8f903c0c1d11a758662b",
        ("uf20-01", "atomique"): "8e7173f1053d5da4e90263c3fa5cfa91660c084b31d1f379469761ea4693ea2d",
        ("uf20-01", "dpqa"): "d7ae278e200be6a901de997f56a0c78612f999f064b1b38949a1963babf60eb9",
    }

    @pytest.mark.parametrize(
        "workload,target", sorted(GOLDEN), ids=lambda v: str(v)
    )
    def test_digest(self, workload, target):
        import hashlib
        import json

        from repro.sat import random_ksat

        formula = (
            random_ksat(6, 10, seed=2, name="small")
            if workload == "small"
            else repro.satlib_instance(workload)
        )
        payload = repro.compile(formula, target=target).to_dict()
        del payload["compile_seconds"], payload["profile"]
        text = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN[(workload, target)]


class TestDeprecationShims:
    def test_internal_paths_do_not_warn(self, tiny_formula, recwarn):
        repro.compile(tiny_formula, target="fpqa")
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestCompilationResult:
    def test_json_round_trip_preserves_program(self, tiny_formula):
        result = repro.compile(tiny_formula, target="fpqa")
        payload = result.to_dict()
        restored = CompilationResult.from_dict(payload)
        assert restored.target == "fpqa"
        assert restored.cached
        assert restored.eps == pytest.approx(result.eps)
        assert restored.program.total_pulses == result.program.total_pulses
        assert restored.program.pulse_counts() == result.program.pulse_counts()

    def test_budget_violation_raises_by_default(self, uf20):
        with pytest.raises(repro.CompilationTimeout):
            repro.compile(uf20, target="fpqa", budget_seconds=1e-9)
