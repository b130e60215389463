"""Golden wChecker reports on the SATLIB corpus and its fault-injection mutants.

Each case checks one compiled SATLIB instance (clean, or mutated by one
:data:`~repro.analysis.mutations.ALL_MUTATIONS` class) against its
reference circuit and pins the sha256 of every :class:`CheckReport`
field as JSON: the verdict, the operation count, each failure's text in
report order, and both equivalence layers' verdicts and methods.  Any
change to what the wChecker finds, how it words it, or in which order,
changes a digest.

The resolver differential replays the clean uf50-01 and uf100-01
programs and compares the device's clusters at every Rydberg pulse with
the dense oracle resolver on the real trap layout.  The last two tests
pin how the replay stays cheap, by counting work instead of timing it.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from oracles.device import resolve_brute_force

import repro
from repro.analysis.mutations import ALL_MUTATIONS
from repro.checker import CheckReport, EquivalenceMethod, check_program
from repro.circuits import Instruction
from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice
from repro.fpqa.instructions import RydbergPulse, SlmInit
from repro.sat import satlib_instance

INSTANCES = ("uf20-01", "uf50-01", "uf100-01")

GOLDEN = {
    ("uf20-01", "clean"): "474d7dda79d9c42e03650a114a3c4cfa56424df01ee0c56408da4fc11ca23cbb",
    ("uf20-01", "corrupted-shuttle-order"): "6da51cfe5ac2c46c6063953b1efd2dfe90ca75857b4b73350077404b724aa6b3",
    ("uf20-01", "wrong-raman-angle"): "560b5675349a184798a95491f82496d65ee42ae33339db33158178f1fb9096ef",
    ("uf20-01", "dropped-transfer"): "7e52fe9434c83ec71e03539b2a762107b6491ce3d0c76adb247cb9be5eb9995d",
    ("uf20-01", "bad-bind"): "36fb71d5ceed5be4e8415ca04013149381138ba69fb569b339203ae49077c85f",
    ("uf50-01", "clean"): "02f8e697ad57a5e17f16c3b196cb8127cc5fcd4bc1d39187b9a7af81a40591d1",
    ("uf50-01", "corrupted-shuttle-order"): "c1ce44bfb5fcc97ecd99bf5651647ec42dc89f22915faf1f6c9811db8fb943c9",
    ("uf50-01", "wrong-raman-angle"): "13d81a05f6e2fb56830765ae2f8a2234093bf94f958b4d02994a5481d17263b2",
    ("uf50-01", "dropped-transfer"): "2e678e4459b5f977507c8b0a535150805e90f5d2f1cc1fb4bbeb01e5119b3360",
    ("uf50-01", "bad-bind"): "36fb71d5ceed5be4e8415ca04013149381138ba69fb569b339203ae49077c85f",
    ("uf100-01", "clean"): "069b02880fed5b88eac795f0c1acba3a9774935120011d1d16f876199109ec0f",
    ("uf100-01", "corrupted-shuttle-order"): "856b8830527e4b48a390adf2322da3e7dd53cf7cc4a7dc3ab667517722e8b809",
    ("uf100-01", "wrong-raman-angle"): "d22fde089e9e28bb195a382e79daf3088d56a91d02f4a679fe3e3b97149c8c69",
    ("uf100-01", "dropped-transfer"): "12ae79600a88cf359f129fceaad14d2e7c65ba1082545eebd4da5c1f35e766f7",
    ("uf100-01", "bad-bind"): "36fb71d5ceed5be4e8415ca04013149381138ba69fb569b339203ae49077c85f",
}


@pytest.fixture(scope="module")
def compiled():
    results = {}
    for name in INSTANCES:
        result = repro.compile(satlib_instance(name), target="fpqa")
        results[name] = (result.program, result.native_circuit, result.fpqa_hardware())
    return results


def fields(report: CheckReport) -> list:
    def method(value):
        return None if value is None else value.value

    return [
        report.ok,
        report.operations_checked,
        report.operation_failures,
        report.reconstructed_equivalent,
        method(report.reconstructed_method),
        report.reference_equivalent,
        method(report.reference_method),
    ]


def digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("mutation", ["clean", *ALL_MUTATIONS])
@pytest.mark.parametrize("name", INSTANCES)
def test_check_report_matches_golden_digest(compiled, name, mutation):
    program, reference, hardware = compiled[name]
    if mutation != "clean":
        program = ALL_MUTATIONS[mutation](program)
    report = check_program(program, reference=reference, hardware=hardware)
    assert report.ok is (mutation == "clean")
    assert digest(fields(report)) == GOLDEN[(name, mutation)]


@pytest.mark.parametrize("name", ("uf50-01", "uf100-01"))
def test_clusters_match_brute_force_at_every_pulse(compiled, name):
    program, _, hardware = compiled[name]
    device = FPQADevice(hardware)
    pulses = 0
    for instruction in program.fpqa_instructions():
        if type(instruction) is RydbergPulse:
            pulses += 1
            assert device.resolve_rydberg_clusters() == resolve_brute_force(device)
        device.apply(instruction)
    assert pulses > 0


def test_layer_one_builds_no_instruction_above_the_probe_width(compiled, monkeypatch):
    """uf100-01 is above the probe width: layer 1 matches ``(gate, qubits)``
    pairs, so no local-Raman operation (nor any other) becomes an
    :class:`~repro.circuits.Instruction`."""
    program, reference, hardware = compiled["uf100-01"]
    built = 0
    post_init = Instruction.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Instruction, "__post_init__", counting)
    report = check_program(program, reference=reference, hardware=hardware)
    assert report.ok and report.reconstructed_method is EquivalenceMethod.TOO_LARGE
    assert built == 0


def test_clean_slm_init_skips_the_exact_spacing_loop(compiled, monkeypatch):
    """The vectorized pre-pass clears every clean layout; the exact
    per-pair loop runs only for a layout with a close pair."""
    exact_runs = 0
    report_close_traps = FPQADevice._report_close_traps

    def counting(self, positions):
        nonlocal exact_runs
        exact_runs += 1
        report_close_traps(self, positions)

    monkeypatch.setattr(FPQADevice, "_report_close_traps", counting)
    for name in INSTANCES:
        program, reference, hardware = compiled[name]
        assert check_program(program, reference=reference, hardware=hardware).ok
    assert exact_runs == 0
    with pytest.raises(FPQAConstraintError, match="minimum spacing"):
        FPQADevice().apply(SlmInit(((0.0, 0.0), (20.0, 0.0), (3.0, 3.0))))
    assert exact_runs == 1
