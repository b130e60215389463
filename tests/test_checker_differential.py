"""Differential test: the memoized wChecker against its unmemoized oracle.

``tests/oracles/checker.py`` keeps the wChecker as it was before it
matched each distinct (pulse, gate) pair once and skipped building
circuits for an equivalence layer that cannot run.  On every program
here — the compiled fixtures, every wLint mutant of them, and a few
hand-made faults — both must return equal :class:`CheckReport` records
(every field, failure text and order included), or raise the same error.
"""

from __future__ import annotations

import copy

import pytest

import repro
from oracles.checker import WChecker as OracleChecker
from repro.analysis.mutations import ALL_MUTATIONS
from repro.checker import EquivalenceMethod, WChecker
from repro.circuits import QuantumCircuit
from repro.exceptions import AnalysisError
from repro.fpqa.instructions import RamanLocal
from repro.sat import random_ksat
from repro.wqasm.program import AnnotatedOperation

FIXTURES = (
    "compiled_paper_example",
    "compiled_paper_example_ladder",
    "compiled_mixed",
    "compiled_probe",
    "compiled_uf20",
)


@pytest.fixture(scope="module")
def compiled_probe():
    """14 qubits: one above dense unitaries, so the layers probe statevectors."""
    formula = random_ksat(14, 16, seed=3, name="probe14")
    return repro.compile(formula, target="fpqa", measure=False)


def _outcome(checker, program, reference):
    try:
        return checker.check(program, reference)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return (type(exc), str(exc))


def _assert_same(program, reference=None, **options):
    got = _outcome(WChecker(**options), program, reference)
    want = _outcome(OracleChecker(**options), program, reference)
    assert got == want
    return got


def _wrong_raman(program, delta):
    """Every local Raman pulse on qubit 0 rotated by ``delta`` more."""
    tampered = copy.deepcopy(program)
    for index, operation in enumerate(tampered.operations):
        instructions = tuple(
            RamanLocal(i.qubit, i.x + delta, i.y, i.z)
            if isinstance(i, RamanLocal) and i.qubit == 0
            else i
            for i in operation.instructions
        )
        tampered.operations[index] = AnnotatedOperation(instructions, operation.gates)
    return tampered


@pytest.mark.parametrize("fixture", FIXTURES)
def test_compiled_fixture(request, fixture):
    result = request.getfixturevalue(fixture)
    report = _assert_same(result.program, result.native_circuit)
    assert report.ok
    _assert_same(result.program)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("mutation", sorted(ALL_MUTATIONS))
def test_mutant(request, fixture, mutation):
    result = request.getfixturevalue(fixture)
    try:
        mutant = ALL_MUTATIONS[mutation](result.program)
    except AnalysisError:
        pytest.skip(f"{fixture} offers no site for {mutation}")
    _assert_same(mutant, result.native_circuit)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_recurring_raman_fault(request, fixture):
    result = request.getfixturevalue(fixture)
    report = _assert_same(_wrong_raman(result.program, 0.5), result.native_circuit)
    assert not report.ok


@pytest.mark.parametrize("fixture", FIXTURES)
def test_wrong_references(request, fixture):
    program = request.getfixturevalue(fixture).program
    n = program.num_qubits
    _assert_same(program, QuantumCircuit(n).x(0))
    report = _assert_same(program, QuantumCircuit(n + 1))
    assert report.reference_equivalent is False


@pytest.mark.parametrize("max_probe_qubits", [0, 13, 14])
def test_probe_limits(compiled_probe, max_probe_qubits):
    report = _assert_same(
        compiled_probe.program,
        compiled_probe.native_circuit,
        max_probe_qubits=max_probe_qubits,
    )
    probing = max_probe_qubits >= compiled_probe.program.num_qubits
    assert report.reconstructed_method is (
        EquivalenceMethod.STATEVECTOR_PROBE if probing else EquivalenceMethod.TOO_LARGE
    )
