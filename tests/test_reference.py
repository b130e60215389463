"""The FPQA reference circuit is built lazily from (formula, angles).

A compile records the formula and the QAOA angles, not the gates:
:class:`repro.qaoa.QaoaReference` builds them on the first read of
``instructions``, pickles as its inputs, and an FPQA artifact stores
them as ``reference`` in place of the reference's QASM text.
"""

from __future__ import annotations

import json
import pickle

import pytest

import repro
from repro.qaoa import QaoaParameters, QaoaReference, qaoa_circuit
from repro.qasm import circuit_to_qasm
from repro.sat import CnfFormula
from repro.sat.cnf import Clause
from repro.service import ArtifactStore
from repro.targets.request import CompileRequest


def _round_trip(result) -> repro.CompilationResult:
    return repro.CompilationResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestQaoaReference:
    def test_width_and_name_without_gates(self, tiny_formula):
        reference = QaoaReference(tiny_formula)
        assert reference.num_qubits == tiny_formula.num_vars
        assert reference.name == f"qaoa-{tiny_formula.name}"
        assert reference._instructions is None

    def test_gates_are_the_qaoa_circuit(self, tiny_formula):
        parameters = QaoaParameters((0.3, 0.9), (0.1, 0.2))
        reference = QaoaReference(tiny_formula, parameters)
        expected = qaoa_circuit(tiny_formula, parameters, measure=False)
        assert reference == expected
        assert circuit_to_qasm(reference) == circuit_to_qasm(expected)

    def test_pickles_as_formula_and_angles(self, tiny_formula):
        reference = QaoaReference(tiny_formula)
        reference.instructions  # noqa: B018 — build the gates
        back = pickle.loads(pickle.dumps(reference))
        assert back._instructions is None
        assert back.formula == tiny_formula and back.parameters == reference.parameters
        assert back == reference


class TestCompile:
    def test_compile_builds_no_reference(self, monkeypatch, tiny_formula):
        import repro.qaoa.builder as builder

        calls = []
        real = builder.qaoa_circuit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(builder, "qaoa_circuit", counting)
        result = repro.compile(tiny_formula, target="fpqa")
        assert calls == []
        assert result.native_circuit.num_qubits == tiny_formula.num_vars
        assert "reference-circuit" not in result.profile["passes"]
        result.native_circuit.instructions  # noqa: B018 — the first read builds
        assert len(calls) == 1

    def test_uf100_reference_pickles_small(self):
        result = repro.compile(repro.satlib_instance("uf100-01"), target="fpqa")
        assert len(pickle.dumps(result.native_circuit)) < 16 * 1024


class TestArtifact:
    def test_fpqa_artifact_carries_formula_and_angles(self, tiny_formula):
        parameters = QaoaParameters((0.5, 1), (0.25, 0.125))
        result = repro.compile(tiny_formula, target="fpqa", parameters=parameters)
        payload = result.to_dict()
        assert "native_qasm" not in payload
        assert payload["reference"]["kind"] == "cnf"
        assert payload["reference"]["gammas"] == [0.5, 1]
        back = _round_trip(result)
        assert back.native_circuit.parameters == parameters
        assert circuit_to_qasm(back.native_circuit) == circuit_to_qasm(result.native_circuit)

    def test_gate_level_artifact_keeps_its_qasm(self, tiny_formula):
        payload = repro.compile(tiny_formula, target="superconducting").to_dict()
        assert "reference" not in payload and payload["native_qasm"]

    def test_weighted_formula_keeps_its_weights(self):
        weighted = CnfFormula(
            num_vars=4,
            clauses=[Clause((-1, -2, -3), 2.5), Clause((2, 4), 0.5), Clause((3,), 3.0)],
            name="weighted",
        )
        plain = CnfFormula(
            num_vars=4, clauses=[Clause(c.literals) for c in weighted.clauses], name="weighted"
        )
        result = repro.compile(weighted, target="fpqa")
        back = _round_trip(result)
        assert circuit_to_qasm(back.native_circuit) == circuit_to_qasm(result.native_circuit)
        assert repro.check_program(back.program, reference=back.native_circuit).ok
        assert CompileRequest(weighted, "fpqa").key != CompileRequest(plain, "fpqa").key

    @pytest.mark.parametrize(
        "reference",
        [
            {"kind": "qasm"},
            {"gammas": [0.7, 0.1]},
            {"gammas": []},
            {"betas": ["x"]},
            {"betas": [True]},
            {"text": "p cnf 3 1\n1 2 0\n"},
            {"text": "not dimacs"},
            {"weights": [1.0]},
        ],
    )
    def test_malformed_reference_is_value_error(self, tiny_formula, reference):
        payload = repro.compile(tiny_formula, target="fpqa").to_dict()
        payload["reference"].update(reference)
        with pytest.raises(ValueError, match="reference"):
            repro.CompilationResult.from_dict(payload)

    def test_artifact_without_reference_is_purged_miss(self, tmp_path, tiny_formula):
        """An FPQA artifact written before references were stored as
        formula and angles is a miss, purged once, then recompiled."""
        directory = tmp_path / "artifacts"
        key = CompileRequest(tiny_formula, target="fpqa").key
        result = repro.compile(tiny_formula, target="fpqa")
        ArtifactStore(directory=directory).put(key, result)
        path = directory / (key + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["reference"]
        payload["native_qasm"] = circuit_to_qasm(result.native_circuit)
        path.write_text(json.dumps(payload), encoding="utf-8")

        store = ArtifactStore(directory=directory)
        assert store.get(key) is None
        assert store.stats()["misses"] == 1
        assert not path.exists()
        path.write_text(json.dumps(payload), encoding="utf-8")
        again = repro.CompilerSession(cache_dir=directory).compile(tiny_formula, target="fpqa")
        assert again.error is None and not again.cached
        assert "reference" in json.loads(path.read_text(encoding="utf-8"))


def test_racing_first_reads_see_the_same_gates(tiny_formula):
    """Threads racing on the first read each build or find the full gate
    list; none sees a partial one."""
    import sys
    import threading

    expected = qaoa_circuit(tiny_formula, measure=False).instructions
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            reference = QaoaReference(tiny_formula)
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append(list(reference.instructions)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)
