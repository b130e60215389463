"""Tests for the execution-time, EPS, and complexity metric models (§8)."""

import math

import pytest

from repro.fpqa import FPQAHardwareParams
from repro.metrics import (
    atomique_steps,
    dpqa_log10_steps,
    geyser_steps,
    program_duration_us,
    program_eps,
    qiskit_steps,
    weaver_steps,
)
from repro.metrics.complexity import COMPLEXITY_TABLE, dpqa_steps
from repro.passes import FPQACompiler


class TestTiming:
    def test_duration_positive(self, compiled_paper_example):
        assert program_duration_us(compiled_paper_example.program) > 0

    def test_measurement_adds_readout(self, paper_formula):
        measured = FPQACompiler().compile(paper_formula, measure=True)
        unmeasured = FPQACompiler().compile(paper_formula, measure=False)
        hw = FPQAHardwareParams()
        delta = program_duration_us(measured.program, hw) - program_duration_us(
            unmeasured.program, hw
        )
        assert delta == pytest.approx(hw.measurement_duration_us)

    def test_consecutive_transfers_batched(self, compiled_paper_example):
        """Transfer windows cost one handoff regardless of atom count."""
        from repro.fpqa.instructions import Transfer

        hw = FPQAHardwareParams()
        program = compiled_paper_example.program
        transfers = sum(
            isinstance(i, Transfer) for i in program.fpqa_instructions()
        )
        duration = program_duration_us(program, hw)
        # If every transfer were paid individually the duration would grow
        # by at least (transfers - windows) * transfer time.
        assert transfers > 10
        naive = duration + transfers * hw.transfer_duration_us
        assert duration < naive

    def test_ladder_mode_takes_longer(
        self, compiled_paper_example, compiled_paper_example_ladder
    ):
        hw = FPQAHardwareParams()
        assert program_duration_us(
            compiled_paper_example_ladder.program, hw
        ) > program_duration_us(compiled_paper_example.program, hw)


class TestEps:
    def test_eps_in_unit_interval(self, compiled_uf20):
        eps = program_eps(compiled_uf20.program)
        assert 0 < eps < 1

    def test_better_ccz_improves_eps(self, paper_formula):
        result = FPQACompiler().compile(paper_formula, measure=True)
        low = program_eps(
            result.program, FPQAHardwareParams().with_overrides(fidelity_ccz=0.98)
        )
        high = program_eps(
            result.program, FPQAHardwareParams().with_overrides(fidelity_ccz=0.995)
        )
        assert high > low

    def test_eps_monotone_in_ccz_fidelity(self, compiled_uf20):
        values = [
            program_eps(
                compiled_uf20.program,
                FPQAHardwareParams().with_overrides(fidelity_ccz=f),
            )
            for f in (0.98, 0.985, 0.99, 0.995)
        ]
        assert values == sorted(values)

    def test_compression_beats_ladder_on_default_hardware(self, paper_formula):
        hw = FPQAHardwareParams()
        compressed = FPQACompiler().compile(paper_formula, measure=True)
        ladder = FPQACompiler(compression=False).compile(paper_formula, measure=True)
        assert program_eps(compressed.program, hw) > program_eps(ladder.program, hw)


class TestComplexity:
    def test_table_entries(self):
        assert COMPLEXITY_TABLE["weaver"] == "O(N^2)"
        assert COMPLEXITY_TABLE["dpqa"] == "O(2^K)"

    def test_polynomial_orders(self):
        assert qiskit_steps(10) == 1000
        assert atomique_steps(10) == 1000
        assert weaver_steps(10) == 100
        assert geyser_steps(10) == 100

    def test_weaver_asymptotically_cheapest(self):
        n = 250
        k = 40 * n  # operations dwarf variables
        assert weaver_steps(n) < qiskit_steps(n)
        assert weaver_steps(n) < geyser_steps(k)
        assert math.isinf(dpqa_steps(k))

    def test_dpqa_log_form(self):
        assert dpqa_log10_steps(10) == pytest.approx(10 * math.log10(2))

    def test_dpqa_small_value_exact(self):
        assert dpqa_steps(4) == pytest.approx(16.0)


class TestProgramCostDifferential:
    """The single cost walk returns what the three separate walks did
    (``oracles/cost.py``), bit for bit."""

    @pytest.fixture(scope="class", params=["uf20-01", "uf50-01", "uf100-01"])
    def programs(self, request):
        import repro

        formula = repro.satlib_instance(request.param)
        return [
            (target, repro.compile(formula, target=target))
            for target in ("fpqa", "fpqa-nocompress")
        ]

    def test_one_walk_equals_three(self, programs):
        from oracles.cost import program_cost as three_walks

        from repro.devices import cost_model_for

        for target, result in programs:
            model = cost_model_for(result.fpqa_hardware() or FPQAHardwareParams())
            expected = three_walks(model, result.program)
            assert tuple(model.program_cost(result.program)) == expected, target
            assert model.program_duration_us(result.program) == expected[1]
            assert model.program_eps(result.program) == expected[2]
            assert (
                result.num_pulses,
                result.execution_seconds,
                result.eps,
            ) == (expected[0], expected[1] * 1e-6, expected[2])

    def test_setup_transfer_starts_no_error_batch(self, programs):
        """A transfer in the setup costs time but no error term, and the
        error terms' transfer batch starts afresh at the operations."""
        from dataclasses import replace

        from oracles.cost import program_cost as three_walks

        from repro.devices import cost_model_for
        from repro.fpqa.instructions import Transfer

        _, result = programs[0]
        transfers = [
            instruction
            for operation in result.program.operations
            for instruction in operation.instructions
            if isinstance(instruction, Transfer)
        ]
        program = replace(result.program, setup=result.program.setup + tuple(transfers[:2]))
        model = cost_model_for(FPQAHardwareParams())
        assert tuple(model.program_cost(program)) == three_walks(model, program)

    def test_subclass_dispatches_as_its_kind_and_unknown_raises(self, programs):
        from dataclasses import dataclass, replace

        from oracles.cost import program_cost as three_walks

        from repro.devices import cost_model_for
        from repro.exceptions import FPQAConstraintError
        from repro.fpqa.instructions import RamanLocal
        from repro.wqasm.program import AnnotatedOperation

        @dataclass(frozen=True)
        class TaggedRaman(RamanLocal):
            pass

        _, result = programs[0]
        model = cost_model_for(FPQAHardwareParams())
        tagged = AnnotatedOperation((TaggedRaman(0, 0.1, 0.2, 0.3),))
        program = replace(result.program, operations=[*result.program.operations, tagged])
        assert tuple(model.program_cost(program)) == three_walks(model, program)
        unknown = AnnotatedOperation((object(),))
        program = replace(result.program, operations=[*result.program.operations, unknown])
        with pytest.raises(FPQAConstraintError, match="unknown instruction"):
            model.program_cost(program)
