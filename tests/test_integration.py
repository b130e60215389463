"""Integration tests: the paper-scale qualitative claims (§8 takeaways).

These run real compilations at the paper's smallest benchmark size
(uf20, 20 variables / 91 clauses) and assert the *shape* of the results:
who wins on compile time, execution time, and EPS.
"""

import pytest

from repro.baselines import AtomiqueCompiler, WeaverCompiler, run_with_timeout
from repro.checker import WChecker
from repro.metrics import program_duration_us, program_eps
from repro.sat import satlib_instance


@pytest.fixture(scope="module")
def uf20_weaver(uf20):
    return run_with_timeout(WeaverCompiler(), uf20, budget_seconds=120)


@pytest.fixture(scope="module")
def uf20_atomique(uf20):
    return run_with_timeout(AtomiqueCompiler(), uf20, budget_seconds=120)


class TestRq1CompileTime:
    def test_weaver_compiles_uf20_in_seconds(self, uf20_weaver):
        assert uf20_weaver.succeeded
        assert uf20_weaver.compile_seconds < 10.0

    def test_weaver_scales_to_uf75(self):
        result = run_with_timeout(
            WeaverCompiler(), satlib_instance("uf75-01"), budget_seconds=300
        )
        assert result.succeeded
        assert result.compile_seconds < 120.0


class TestRq3Fidelity:
    def test_weaver_eps_beats_atomique_at_uf20(self, uf20_weaver, uf20_atomique):
        """Fig. 12(a): Weaver improves EPS over Atomique at 20 variables."""
        assert uf20_weaver.eps > uf20_atomique.eps

    def test_weaver_eps_reasonable_magnitude(self, uf20_weaver):
        """Fig. 12(a) shows Weaver around 1e-1..1e-2 at 20 variables."""
        assert 1e-3 < uf20_weaver.eps < 0.5


class TestVerification:
    def test_uf20_program_verifies_structurally(self, compiled_uf20):
        checker = WChecker(max_probe_qubits=10)
        report = checker.check(compiled_uf20.program)
        assert not report.operation_failures

    def test_uf20_metrics_consistent(self, compiled_uf20):
        duration = program_duration_us(compiled_uf20.program)
        eps = program_eps(compiled_uf20.program, duration_us=duration)
        assert duration > 0
        assert 0 < eps < 1


class TestCompressionAblation:
    def test_compression_reduces_pulses_and_improves_eps(self, uf20):
        from repro.passes import FPQACompiler

        on = FPQACompiler(compression=True).compile(uf20, measure=True)
        off = FPQACompiler(compression=False).compile(uf20, measure=True)
        assert (
            on.program.pulse_counts()["rydberg"]
            < off.program.pulse_counts()["rydberg"]
        )
        assert program_eps(on.program) > program_eps(off.program)

    def test_dsatur_no_worse_than_greedy_coloring(self, uf20):
        from repro.passes import FPQACompiler

        dsatur = FPQACompiler().compile(uf20, measure=False)
        greedy = FPQACompiler(coloring_algorithm="greedy").compile(
            uf20, measure=False
        )
        assert (
            dsatur.stats["clause-coloring"]["num_colors"]
            <= greedy.stats["clause-coloring"]["num_colors"] + 1
        )
