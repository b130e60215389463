"""Tests for the comparison-compiler targets and the timeout machinery (§8.1)."""

import pytest

import repro
from repro.baselines import AtomiqueTarget, DpqaTarget, GeyserTarget
from repro.exceptions import CompilationTimeout, TargetError
from repro.qaoa import qaoa_circuit
from repro.sat import CnfFormula, random_ksat
from repro.targets import CompilationResult, Workload
from repro.targets.base import Deadline

#: The evaluation's compilers, as the figures name them.
EVALUATED = ("superconducting", "atomique", "weaver", "dpqa", "geyser")


@pytest.fixture(scope="module")
def small_formula():
    return random_ksat(6, 10, seed=2, name="small")


class TestInterface:
    def test_registry_is_complete(self):
        assert set(repro.available_targets()) >= {
            "superconducting",
            "atomique",
            "fpqa",
            "dpqa",
            "geyser",
        }
        assert repro.get_target("weaver").name == "fpqa"

    @pytest.mark.parametrize("name", EVALUATED)
    def test_every_compiler_handles_small_formula(self, name, small_formula):
        result = repro.compile(small_formula, target=name, budget_seconds=120)
        assert isinstance(result, CompilationResult)
        assert result.succeeded, result.error
        assert result.compile_seconds > 0
        assert result.execution_seconds > 0
        if name == "geyser":
            assert result.eps is None  # excluded from Fig. 12
        else:
            assert 0 < result.eps <= 1

    def test_result_metadata(self, small_formula):
        result = repro.compile(small_formula, target="weaver", budget_seconds=60)
        assert result.workload == "small"
        assert result.num_qubits == 6
        assert result.num_clauses == 10

    @pytest.mark.parametrize("name", ("atomique", "geyser", "dpqa"))
    def test_comparison_targets_always_measure(self, name, small_formula):
        with pytest.raises(TargetError, match="always measures"):
            repro.compile(small_formula, target=name, measure=False)

    @pytest.mark.parametrize("name", ("atomique", "geyser", "dpqa"))
    def test_comparison_targets_need_a_formula(self, name, small_formula):
        circuit = Workload.from_circuit(qaoa_circuit(small_formula))
        with pytest.raises(repro.WeaverError, match="CNF formula"):
            repro.compile(circuit, target=name)


class TestTimeouts:
    def test_deadline_raises_after_budget(self):
        deadline = Deadline(0.0, "test")
        with pytest.raises(CompilationTimeout):
            deadline.check()

    def test_unlimited_deadline_never_raises(self):
        Deadline(None, "test").check()

    def test_timeout_becomes_result_row(self, small_formula):
        result = GeyserTarget().compile(
            Workload.from_formula(small_formula), budget_seconds=0.0,
            on_error="result",
        )
        assert result.timed_out
        assert not result.succeeded

    def test_error_becomes_result_row(self):
        formula = CnfFormula.from_lists([[1]], num_vars=200)
        result = repro.CompilerSession().compile(formula, target="superconducting")
        assert result.error is not None
        assert "127" in result.error


class TestAtomique:
    def test_no_three_qubit_gates(self, small_formula):
        result = repro.compile(small_formula, target="atomique")
        assert "ccz" not in result.stats["counts"]

    def test_moves_replace_swaps(self, small_formula):
        result = repro.compile(small_formula, target="atomique")
        assert result.stats["counts"]["move"] == result.stats["moves"]

    def test_pulse_accounting(self, small_formula):
        result = repro.compile(small_formula, target="atomique")
        counts = result.stats["counts"]
        assert result.num_pulses == counts["1q"] + counts["cz"] + counts["move"]

    def test_unknown_option_names_the_target(self):
        with pytest.raises(TargetError, match="atomique"):
            AtomiqueTarget(warp_drive=True)


class TestDpqa:
    def test_stage_gates_are_disjoint(self, small_formula):
        from repro.passes import nativize_circuit

        circuit = nativize_circuit(qaoa_circuit(small_formula, measure=True))
        stages, _ = DpqaTarget()._schedule(circuit, Deadline(60, "dpqa"))
        for stage in stages:
            qubits: set[int] = set()
            for pair in stage:
                assert not (set(pair) & qubits)
                qubits |= set(pair)

    def test_stage_count_near_lower_bound(self, small_formula):
        """The exact solver should not exceed 2x the trivial lower bound."""
        from repro.passes import nativize_circuit

        circuit = nativize_circuit(qaoa_circuit(small_formula, measure=True))
        stages, _ = DpqaTarget()._schedule(circuit, Deadline(120, "dpqa"))
        per_qubit: dict[int, int] = {}
        for inst in circuit.instructions:
            if inst.gate.is_unitary and len(inst.qubits) == 2:
                for q in inst.qubits:
                    per_qubit[q] = per_qubit.get(q, 0) + 1
        lower_bound = max(per_qubit.values())
        assert lower_bound <= len(stages) <= 2 * lower_bound

    def test_result_fields(self, small_formula):
        result = repro.compile(small_formula, target="dpqa")
        assert result.stats["num_stages"] > 0
        assert result.stats["num_2q"] > 0


class TestGeyser:
    def test_blocks_at_most_three_qubits(self, small_formula):
        from repro.baselines.geyser import triangular_coupling
        from repro.passes import nativize_circuit
        from repro.superconducting import SabreRouter

        native = nativize_circuit(qaoa_circuit(small_formula, measure=True))
        routing = SabreRouter(triangular_coupling(6)).route(native)
        blocks, _ = GeyserTarget()._block_circuit(routing.circuit, None)
        for block in blocks:
            qubits: set[int] = set()
            for op in block:
                qubits |= set(op.qubits)
            assert len(qubits) <= 3

    def test_triangular_lattice_has_diagonals(self):
        from repro.baselines.geyser import triangular_coupling

        cm = triangular_coupling(9)
        assert cm.are_connected(0, 4)  # diagonal of the first cell

    def test_no_movement_in_results(self, small_formula):
        result = repro.compile(small_formula, target="geyser")
        assert "swaps" in result.stats  # SWAP-based, not movement-based


class TestQualitativeShape:
    """The orderings the paper's figures report, on a small instance."""

    @pytest.fixture(scope="class")
    def results(self, small_formula):
        session = repro.CompilerSession(budgets={name: 120 for name in EVALUATED})
        return {name: session.compile(small_formula, name) for name in EVALUATED}

    def test_superconducting_executes_fastest(self, results):
        sc = results["superconducting"].execution_seconds
        for name in ("weaver", "atomique", "dpqa"):
            assert sc < results[name].execution_seconds

    def test_superconducting_eps_is_worst(self, results):
        sc = results["superconducting"].eps
        for name in ("weaver", "atomique", "dpqa"):
            assert sc < results[name].eps

    def test_weaver_eps_same_order_as_atomique(self, results):
        """At 6 variables the zone overhead dominates; Weaver must still be
        within the same order of magnitude (its advantage appears at
        paper-scale sizes, checked in test_integration.py)."""
        assert results["weaver"].eps > 0.1 * results["atomique"].eps
