"""Evaluation sweeps resume from a store directory instead of recompiling.

The store is the session's ``cache_dir``: one ``<key>.json`` artifact
per cell, the format ``weaver serve --store-dir`` also reads.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation import EvaluationConfig, ResultStore
from repro.evaluation.artifact import run_artifact

ROOT = Path(__file__).resolve().parent.parent


def _tiny_config() -> EvaluationConfig:
    # DPQA's budget is too small to finish anything: its cells are
    # timed-out rows, which the store keeps like any other result.
    return EvaluationConfig(
        compilers=("weaver", "dpqa"),
        fixed_instances=("uf20-01",),
        scaling_sizes=(20,),
        instances_per_size=1,
        budgets={"weaver": 300.0, "dpqa": 1e-9},
    )


@pytest.fixture(scope="module")
def resumed(tmp_path_factory):
    """Two runs of the same sweep over one store directory."""
    store_dir = tmp_path_factory.mktemp("resume") / "store"
    first = run_artifact(
        _tiny_config(), include_ccz_sweep=False, verbose=False, store_path=store_dir
    )
    second_store = ResultStore(_tiny_config(), cache_dir=store_dir)
    return store_dir, first, second_store


class TestResume:
    def test_first_run_fills_the_store(self, resumed):
        store_dir, first, _ = resumed
        assert first.figures["fig8a"][0]["dpqa"] is None  # timed out: "X"
        assert len(list(store_dir.glob("*.json"))) == 2

    def test_second_run_compiles_nothing(self, resumed, capsys):
        store_dir = resumed[0]
        run_artifact(
            _tiny_config(), include_ccz_sweep=False, verbose=True,
            store_path=store_dir,
        )
        assert "[artifact] compiled 0 cells;" in capsys.readouterr().out

    def test_resumed_cells_match_the_first_run(self, resumed):
        _, first, store = resumed
        weaver = store.run("weaver", "uf20-01")
        assert weaver.cached
        assert weaver.compile_seconds == first.figures["fig8a"][0]["weaver"]
        dpqa = store.run("dpqa", "uf20-01")
        assert dpqa.cached and dpqa.timed_out
        misses = store.session.stats()["caches"]["session.results"]["misses"]
        assert misses == 0


class TestLegacyStoreFile:
    def test_bench_refuses_a_json_store(self, tmp_path, capsys):
        legacy = tmp_path / "results.json"
        legacy.write_text('{"format": "weaver-result-store"}', encoding="utf-8")
        assert main(["bench", "--store", str(legacy)]) == 2
        assert "not a store directory" in capsys.readouterr().err

    def test_run_py_refuses_a_json_store(self, tmp_path):
        legacy = tmp_path / "results.json"
        legacy.write_text("{}", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "run.py"), "--quick", "--store", str(legacy)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "not a store directory" in proc.stderr
        assert legacy.read_text(encoding="utf-8") == "{}"
