"""Shared fixtures: small formulas and cached compilations.

Compilation results are session-scoped because the Weaver pipeline is
deterministic; tests only read them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.passes import FPQACompiler  # noqa: E402
from repro.sat import CnfFormula, satlib_instance  # noqa: E402


@pytest.fixture(scope="session")
def paper_formula() -> CnfFormula:
    """The running example of Figure 5 / Algorithm 1."""
    return CnfFormula.from_lists(
        [[-1, -2, -3], [4, -5, 6], [3, 5, -6]], num_vars=6, name="paper-example"
    )


@pytest.fixture(scope="session")
def mixed_formula() -> CnfFormula:
    """3-, 2-, and 1-literal clauses together."""
    return CnfFormula.from_lists(
        [[1, 2, 3], [-2, 4], [5], [-1, -4, -5], [3, -5]], num_vars=5, name="mixed"
    )


@pytest.fixture(scope="session")
def tiny_formula() -> CnfFormula:
    return CnfFormula.from_lists([[1, -2, 3], [-1, 2, 4]], num_vars=4, name="tiny")


@pytest.fixture(scope="session")
def uf20() -> CnfFormula:
    return satlib_instance("uf20-01")


@pytest.fixture(scope="session")
def compiled_paper_example(paper_formula):
    return FPQACompiler().compile(paper_formula, measure=False)


@pytest.fixture(scope="session")
def compiled_paper_example_ladder(paper_formula):
    return FPQACompiler(compression=False).compile(paper_formula, measure=False)


@pytest.fixture(scope="session")
def compiled_mixed(mixed_formula):
    return FPQACompiler().compile(mixed_formula, measure=False)


@pytest.fixture(scope="session")
def compiled_uf20(uf20):
    return FPQACompiler().compile(uf20, measure=True)
