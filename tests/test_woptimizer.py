"""End-to-end tests of the Weaver FPQA compiler (wOptimizer, §5).

The central invariant: the emitted program's logical circuit must be
functionally equivalent to the plain QAOA circuit of the input formula,
for every lowering mode and clause-arity mix — and every emitted
instruction was validated by the device state machine during generation.
"""

import pytest

from repro.circuits import circuits_equivalent
from repro.fpqa import FPQAHardwareParams
from repro.passes import FPQACompiler
from repro.qaoa import QaoaParameters, qaoa_circuit
from repro.sat import CnfFormula, random_ksat


class TestEquivalence:
    def test_paper_example_compressed(self, compiled_paper_example):
        result = compiled_paper_example
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_paper_example_ladder(self, compiled_paper_example_ladder):
        result = compiled_paper_example_ladder
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_mixed_arity(self, compiled_mixed):
        assert circuits_equivalent(
            compiled_mixed.program.logical_circuit(), compiled_mixed.native_circuit
        )

    def test_mixed_arity_ladder(self, mixed_formula):
        result = FPQACompiler(compression=False).compile(mixed_formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_two_qaoa_layers(self, tiny_formula):
        params = QaoaParameters(gammas=(0.5, 0.8), betas=(0.3, 0.1))
        result = FPQACompiler().compile(tiny_formula, params, measure=False)
        reference = qaoa_circuit(tiny_formula, params, measure=False)
        assert circuits_equivalent(result.program.logical_circuit(), reference)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_formulas_compressed(self, seed):
        formula = random_ksat(7, 9, seed=seed)
        result = FPQACompiler().compile(formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    @pytest.mark.parametrize("seed", [10, 11])
    def test_random_formulas_ladder(self, seed):
        formula = random_ksat(6, 7, seed=seed)
        result = FPQACompiler(compression=False).compile(formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_single_clause_formula(self):
        formula = CnfFormula.from_lists([[1, -2, 3]], num_vars=3)
        result = FPQACompiler().compile(formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )

    def test_unit_clause_only(self):
        formula = CnfFormula.from_lists([[2]], num_vars=2)
        result = FPQACompiler().compile(formula, measure=False)
        assert circuits_equivalent(
            result.program.logical_circuit(), result.native_circuit
        )


class TestProgramStructure:
    def test_compressed_uses_ccz_pulses(self, compiled_paper_example):
        ops = compiled_paper_example.program.logical_circuit().count_ops()
        assert ops["ccz"] == 2 * 3  # 2 CCZ pulses per clause

    def test_ladder_avoids_ccz(self, compiled_paper_example_ladder):
        ops = compiled_paper_example_ladder.program.logical_circuit().count_ops()
        assert "ccz" not in ops

    def test_ladder_needs_more_pulses(
        self, compiled_paper_example, compiled_paper_example_ladder
    ):
        compressed = compiled_paper_example.program.pulse_counts()["rydberg"]
        ladder = compiled_paper_example_ladder.program.pulse_counts()["rydberg"]
        assert ladder > compressed

    def test_rydberg_pulses_scale_with_colors(self, compiled_paper_example):
        stats = compiled_paper_example.stats
        num_colors = stats["clause-coloring"]["num_colors"]
        rydberg = compiled_paper_example.program.pulse_counts()["rydberg"]
        assert rydberg == 4 * num_colors  # 2 CCZ + 2 CZ stages per zone

    def test_measured_flag(self, uf20):
        result = FPQACompiler().compile(uf20, measure=True)
        assert result.program.measured

    def test_stats_complete(self, compiled_paper_example):
        stats = compiled_paper_example.stats
        for stage in ("clause-coloring", "color-shuttling", "gate-compression", "total"):
            assert stage in stats

    def test_setup_binds_every_variable(self, compiled_paper_example):
        program = compiled_paper_example.program
        binds = [i for i in program.setup if type(i).__name__ == "BindAtom"]
        assert len(binds) == program.num_qubits

    def test_compile_scales_to_uf20(self, compiled_uf20):
        assert compiled_uf20.compile_seconds < 30.0
        assert compiled_uf20.program.total_pulses > 0

    def test_custom_hardware_threads_through(self, tiny_formula):
        hardware = FPQAHardwareParams().with_overrides(fidelity_ccz=0.9)
        compiler = FPQACompiler(hardware=hardware)
        result = compiler.compile(tiny_formula, measure=False)
        # CCZ at 0.9 makes compression unprofitable; the pass must notice.
        assert not result.stats["gate-compression"]["use_compression"]
