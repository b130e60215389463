"""Shared fixtures: small formulas and cached compilations.

Compilation results are session-scoped because the Weaver pipeline is
deterministic; tests only read them.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.passes import FPQACompiler  # noqa: E402
from repro.sat import CnfFormula, satlib_instance  # noqa: E402
from repro.targets import CompilationResult, Target  # noqa: E402
from repro.targets.registry import _REGISTRY  # noqa: E402

#: The test process; pool workers forked from it see another pid.
_TEST_PID = os.getpid()


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


class FaultyTarget(Target):
    """A target whose pool worker dies (``fault="exit"``) or hangs (``"hang"``).

    With ``marker`` (a file path), only the first run faults: it writes
    its worker's pid to ``marker`` first, and later runs, seeing the
    file, compile normally.  Without it every run faults.  In the test
    process itself the target raises instead, so an inline run cannot
    take pytest down.
    """

    name = "faulty"
    description = "test-only target that kills or hangs its worker"

    def run(self, workload, parameters, deadline, fault="exit", marker=None):
        if os.getpid() == _TEST_PID:
            raise RuntimeError("the faulty target only faults in a pool worker")
        if marker is None or not os.path.exists(marker):
            if marker is not None:
                Path(f"{marker}.tmp").write_text(str(os.getpid()))
                os.replace(f"{marker}.tmp", marker)
            if fault == "exit":
                os._exit(1)
            time.sleep(30.0)
        return CompilationResult(
            target=self.name, workload=workload.name, num_qubits=workload.num_qubits
        )


@pytest.fixture
def faulty_target(monkeypatch) -> str:
    """Register :class:`FaultyTarget` for one test; return its name.

    Pool workers fork after registration, so they find it too.
    """
    monkeypatch.setitem(_REGISTRY, FaultyTarget.name, FaultyTarget)
    return FaultyTarget.name

