"""Shared state for the figure-regeneration benchmarks.

One :class:`ResultStore` is shared by every benchmark module, so each
(compiler, workload) cell compiles exactly once per session no matter how
many figures consume it — mirroring the paper's artifact, which compiles
the suite once and then plots four figures (§A.4.1).

Environment knobs:

``REPRO_BENCH_INSTANCES``  instances per scaling size (default 2)
``REPRO_BENCH_BUDGET``     Geyser/DPQA compile budget in seconds (default 60)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
# tests/ holds the ``oracles`` the timing floors race against.  Appended,
# so ``from conftest import ...`` here still finds this directory's file.
TESTS = ROOT / "tests"
if str(TESTS) not in sys.path:
    sys.path.append(str(TESTS))

from repro.evaluation import EvaluationConfig, ResultStore  # noqa: E402
from repro.evaluation.runner import DEFAULT_BUDGETS  # noqa: E402


def _config() -> EvaluationConfig:
    instances = int(os.environ.get("REPRO_BENCH_INSTANCES", "2"))
    budget = float(os.environ.get("REPRO_BENCH_BUDGET", "60"))
    budgets = dict(DEFAULT_BUDGETS)
    budgets["geyser"] = budget
    budgets["dpqa"] = budget
    return EvaluationConfig(instances_per_size=instances, budgets=budgets)


def pytest_collection_modifyitems(items):
    """Everything under ``benchmarks/`` is the slow lane.

    The figure-regeneration suite dominates tier-1 wall clock (~10 min on
    one CPU); marking it ``slow`` lets CI run ``-m "not slow"`` for
    minutes-scale signal while the full run stays the default.
    """
    here = Path(__file__).resolve().parent
    for item in items:
        if here in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def store() -> ResultStore:
    return ResultStore(_config())


def run_once(benchmark, func):
    """Benchmark a figure collection exactly once (compiles are heavy)."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
