"""Golden wLint reports on the SATLIB corpus and its fault-injection mutants.

Each case lints one compiled SATLIB instance (clean, or mutated by one
:data:`~repro.analysis.mutations.ALL_MUTATIONS` class) and pins the sha256
of its findings, ``[(code, message, qubits, str(location)), ...]`` in
report order, as JSON.  Any change to a rule's verdict, message text,
qubit attribution, location or ordering changes a digest.

For ``corrupted-shuttle-order`` the pinned digest is the one of the
*sorted distinct* findings: what lint reports there, not how often or in
which order (``tests/test_lint_shuttle.py`` pins those).
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro
from repro.analysis import analyze_program
from repro.analysis.mutations import ALL_MUTATIONS
from repro.sat import satlib_instance

INSTANCES = ("uf20-01", "uf50-01", "uf100-01")

#: Digest of an empty findings list: every clean instance lints clean.
_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

GOLDEN = {
    ("uf20-01", "clean"): _EMPTY,
    ("uf20-01", "corrupted-shuttle-order"): "04d8c9db319618c9f38505ccacf6f41b5f290647ff4aaec623857f43287b727d",
    ("uf20-01", "wrong-raman-angle"): "7416a37ba293cc728578aa61eddd75a49d4a1d96e5e2c1c0ad570d429195610f",
    ("uf20-01", "dropped-transfer"): "c065307856e3b5f339474de2d6a0e8356a5ce6ed38941bf32dfebb6088e3c170",
    ("uf20-01", "bad-bind"): "05a8f5e71a561333e1793d69c5b2c4fe6427782fa70daae505de2556348607cb",
    ("uf50-01", "clean"): _EMPTY,
    ("uf50-01", "corrupted-shuttle-order"): "cd67fdac517f217760835ba66f4f554515ad863b7fd72d992369eb51fa3f457c",
    ("uf50-01", "wrong-raman-angle"): "fee53cd91c3b2fc536017ce2c9c6ad3f6a248b16dddf24acd10e00660136b222",
    ("uf50-01", "dropped-transfer"): "558dd337d79924ba8a8dc7a958853988c0782c9f637028c50e49df40054ec296",
    ("uf50-01", "bad-bind"): "8e5d2c52d33ed63389cbcfa1b150a335c7cab52a5abf7af59d6beee6d1f165f9",
    ("uf100-01", "clean"): _EMPTY,
    ("uf100-01", "corrupted-shuttle-order"): "e4480e7e4f30872d9efce5ef25574fb0dd2084f9807e1f10594f400c78d86521",
    ("uf100-01", "wrong-raman-angle"): "8cf3895c8addd2ed52e9b5f14657f549bfd865de0a370854646e862c8302d47e",
    ("uf100-01", "dropped-transfer"): "c983ddcb175af5a638924ee98af79bfc6c98004215f926b1c38079e74d8b5fec",
    ("uf100-01", "bad-bind"): "c6c60e21ebf29663099f12e1d15b4bb7060e614e2df338c831a45dd5c174d087",
}

#: Cluster resolutions of a clean lint: one per distinct pulse stance.
CLEAN_CLUSTER_RESOLUTIONS = {"uf20-01": 42, "uf50-01": 42, "uf100-01": 54}


@pytest.fixture(scope="module")
def compiled():
    results = {}
    for name in INSTANCES:
        result = repro.compile(satlib_instance(name), target="fpqa")
        results[name] = (result.program, result.fpqa_hardware())
    return results


def findings(report) -> list[tuple]:
    return [
        (d.code, d.message, tuple(d.qubits), str(d.location))
        for d in report.diagnostics
    ]


def digest(rows: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("mutation", ["clean", *ALL_MUTATIONS])
@pytest.mark.parametrize("name", INSTANCES)
def test_lint_findings_match_golden_digest(compiled, name, mutation):
    program, hardware = compiled[name]
    if mutation != "clean":
        program = ALL_MUTATIONS[mutation](program)
    report = analyze_program(program, hardware)
    rows = findings(report)
    if mutation == "corrupted-shuttle-order":
        rows = sorted(set(rows))
    assert digest(rows) == GOLDEN[(name, mutation)]
    if mutation == "clean":
        assert report.stats["cluster_resolutions"] == CLEAN_CLUSTER_RESOLUTIONS[name]
        assert report.stats["qubits_covered"] == program.num_qubits
