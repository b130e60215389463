"""Tests for the evaluation harness (workloads, runner, figure generators)."""

import pytest

from repro.evaluation import (
    EvaluationConfig,
    FIXED_SIZE_INSTANCES,
    ResultStore,
    SCALING_SIZES,
    fig10a_complexity,
    format_table,
    format_value,
    load_workload,
    scaling_instances,
    table2_complexity,
)
from repro.evaluation.figures import (
    fig8a_compilation_fixed,
    fig11a_execution_fixed,
    fig12a_eps_fixed,
)
from repro.evaluation.runner import mean_of


@pytest.fixture(scope="module")
def tiny_store():
    """A store restricted to fast compilers and two tiny workloads."""
    config = EvaluationConfig(
        compilers=("weaver", "atomique"),
        fixed_instances=("uf20-01", "uf20-02"),
        scaling_sizes=(20,),
        instances_per_size=1,
    )
    return ResultStore(config)


class TestWorkloads:
    def test_fixed_instances_are_ten(self):
        assert len(FIXED_SIZE_INSTANCES) == 10
        assert FIXED_SIZE_INSTANCES[0] == "uf20-01"

    def test_scaling_sizes_match_paper(self):
        assert SCALING_SIZES == (20, 50, 75, 100, 150, 250)

    def test_load_workload_cached(self):
        assert load_workload("uf20-01") is load_workload("uf20-01")

    def test_scaling_instances(self):
        assert scaling_instances(50, 2) == ["uf50-01", "uf50-02"]

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            scaling_instances(33)


class TestRunner:
    def test_results_cached(self, tiny_store):
        first = tiny_store.run("weaver", "uf20-01")
        second = tiny_store.run("weaver", "uf20-01")
        assert first is second

    def test_unknown_compiler_rejected(self, tiny_store):
        with pytest.raises(KeyError):
            tiny_store.run("pixie", "uf20-01")

    def test_superconducting_capacity_rule(self):
        store = ResultStore(EvaluationConfig(compilers=("superconducting",)))
        result = store.run("superconducting", "uf150-01")
        assert result.error is not None

    def test_attempt_limit_marks_timeouts_without_running(self):
        store = ResultStore(EvaluationConfig(compilers=("dpqa",)))
        result = store.run("dpqa", "uf250-01")
        assert result.timed_out
        assert result.compile_seconds > 0

    def test_run_many_keeps_order_across_limit_rows_and_pooled_misses(self):
        store = ResultStore(EvaluationConfig(compilers=("dpqa",)))
        names = ["uf75-01", "uf20-01", "uf250-01", "uf20-05"]
        rows = store.run_many("dpqa", names)
        assert [r.workload for r in rows] == names
        assert [r.timed_out for r in rows] == [True, False, True, False]
        assert all(r.target == "dpqa" for r in rows)
        assert rows[1].succeeded and rows[3].succeeded
        # The compiled cells are the session's: single runs hit them.
        assert store.run("dpqa", "uf20-05") is rows[3]

    def test_mean_of_skips_none(self):
        assert mean_of([1.0, None, 3.0]) == 2.0
        assert mean_of([None]) is None


class TestFigures:
    def test_fig8a_rows(self, tiny_store):
        rows = fig8a_compilation_fixed(tiny_store)
        assert rows[-1]["workload"] == "Mean"
        assert rows[0]["weaver"] > 0

    def test_fig11a_rows(self, tiny_store):
        rows = fig11a_execution_fixed(tiny_store)
        assert all(row["weaver"] > 0 for row in rows)

    def test_fig12a_rows(self, tiny_store):
        rows = fig12a_eps_fixed(tiny_store)
        assert all(0 < row["weaver"] <= 1 for row in rows)
        assert "geyser" not in rows[0]

    def test_fig10a_static_curves(self):
        rows = fig10a_complexity(sizes=(20, 50))
        assert rows[0]["weaver"] == 400
        assert rows[0]["superconducting"] == 8000
        assert rows[1]["num_ops_K"] > rows[0]["num_ops_K"]

    def test_table2(self):
        rows = table2_complexity()
        assert {"compiler": "weaver", "complexity": "O(N^2)"} in rows


class TestReporting:
    def test_none_prints_as_x(self):
        assert format_value(None) == "X"

    def test_small_floats_scientific(self):
        assert "e" in format_value(1.5e-9)

    def test_midrange_floats_compact(self):
        assert format_value(1.2345) == "1.234"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": None}, {"a": 22, "b": 0.5}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "X" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_empty_table(self):
        assert "(empty)" in format_table([], title="nothing")
