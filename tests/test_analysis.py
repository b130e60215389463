"""wLint static-analysis layer: report contracts, registry stability,
stack wiring, CLI exit codes, and static/dynamic agreement.

Three properties anchor the suite:

* the diagnostic artifacts (:class:`Diagnostic`, :class:`AnalysisReport`)
  JSON round trip as fixed points — the contract the result cache and
  the service artifact store rest on;
* the rule registry is append-only with stable ``WL###`` codes;
* on every (target, device) cell of a compile matrix, the static
  analyzer's verdict agrees with the dynamic wChecker: both accept the
  healthy artifact, and (see ``test_failure_injection.py``) both reject
  every injected fault.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.analysis import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    Diagnostic,
    LintRule,
    RETIRED_CODES,
    Severity,
    SourceLocation,
    all_rules,
    analyze_circuit,
    analyze_result,
    canonical_analyze_options,
    format_report,
    get_rule,
    register_rule,
)
from repro.analysis.registry import _NAMES, _RULES
from repro.cli import main as cli_main
from repro.devices import DeviceProfile, list_devices
from repro.exceptions import AnalysisError, VerificationError
from repro.sat import random_ksat
from repro.targets import CompilerSession


# ----------------------------------------------------------------------
# Registry stability
# ----------------------------------------------------------------------
class TestRegistry:
    def test_codes_are_wellformed_and_unique(self):
        rules = all_rules()
        assert rules, "registry must not be empty"
        codes = [rule.code for rule in rules]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        for code in codes:
            assert len(code) == 5 and code.startswith("WL")
            assert code[2:].isdigit()

    def test_rule_names_unique(self):
        names = [rule.name for rule in all_rules()]
        assert len(names) == len(set(names))

    def test_known_codes_are_stable(self):
        """Published codes are append-only: these must never be renamed."""
        expectations = {
            "WL011": "shuttle-order-violation",
            "WL020": "double-bind",
            "WL023": "transfer-occupancy",
            "WL026": "readout-orphan-atom",
            "WL040": "rydberg-cluster-mismatch",
            "WL043": "raman-gate-mismatch",
            "WL051": "duration-mismatch",
            "WL060": "circuit-qubit-range",
        }
        for code, name in expectations.items():
            assert get_rule(code).name == name

    def test_duplicate_code_rejected(self):
        taken = all_rules()[0]
        with pytest.raises(ValueError):
            register_rule(taken.code, "fresh-name", Severity.ERROR, "dup")

    def test_duplicate_name_rejected(self):
        taken = all_rules()[0]
        with pytest.raises(ValueError):
            register_rule("WL999", taken.name, Severity.ERROR, "dup")

    def test_malformed_code_rejected(self):
        for bad in ("WL1", "XX001", "wl001", "WL0011"):
            with pytest.raises(ValueError):
                register_rule(bad, f"bad-{bad}", Severity.ERROR, "x")

    def test_retired_code_rejected(self):
        if not RETIRED_CODES:
            pytest.skip("no retired codes yet")
        code = next(iter(RETIRED_CODES))
        with pytest.raises(ValueError):
            register_rule(code, "zombie", Severity.ERROR, "x")

    def test_unknown_code_lookup_raises(self):
        with pytest.raises(KeyError):
            get_rule("WL998")

    def test_registration_roundtrip(self):
        rule = register_rule("WL997", "test-only-rule", Severity.INFO, "probe")
        try:
            assert isinstance(rule, LintRule)
            assert get_rule("WL997") is rule
            diagnostic = rule.diagnostic("hello", SourceLocation(operation=3))
            assert diagnostic.code == "WL997"
            assert diagnostic.severity is Severity.INFO
        finally:
            _RULES.pop("WL997")
            _NAMES.pop("test-only-rule")


# ----------------------------------------------------------------------
# Report JSON round trip
# ----------------------------------------------------------------------
def _sample_report() -> AnalysisReport:
    report = AnalysisReport(artifact="probe", num_qubits=4)
    report.diagnostics.append(
        Diagnostic(
            code="WL011",
            severity=Severity.ERROR,
            message="columns crossed",
            location=SourceLocation(operation=2, instruction=5),
            qubits=(1, 3),
        )
    )
    report.diagnostics.append(
        Diagnostic(
            code="WL031",
            severity=Severity.WARNING,
            message="idle qubit",
            location=SourceLocation(),
        )
    )
    report.rules_run = ("WL011", "WL031")
    report.instructions_scanned = 42
    report.analysis_seconds = 0.003
    report.stats = {"cluster_resolutions": 2}
    return report


class TestReportRoundTrip:
    def test_to_from_dict_is_fixed_point(self):
        report = _sample_report()
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.to_dict() == report.to_dict()
        assert restored.artifact == "probe"
        assert restored.diagnostics[0].location.operation == 2
        assert restored.diagnostics[0].qubits == (1, 3)
        assert restored.diagnostics[0].severity is Severity.ERROR

    def test_wrong_schema_rejected(self):
        payload = _sample_report().to_dict()
        payload["schema"] = ANALYSIS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            AnalysisReport.from_dict(payload)

    def test_queries(self):
        report = _sample_report()
        assert not report.ok
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert report.count(Severity.INFO) == 0
        assert report.codes() == {"WL011", "WL031"}
        with pytest.raises(VerificationError):
            report.raise_on_error()

    def test_clean_report_ok(self):
        report = AnalysisReport(artifact="clean")
        assert report.ok
        report.raise_on_error()  # no-op
        assert "clean" in report.summary()

    def test_format_report_truncates(self):
        report = _sample_report()
        text = format_report(report, max_findings=1)
        assert "WL011" in text  # errors sort first
        assert "1 more finding" in text

    def test_severity_ordering(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank

    def test_location_rendering(self):
        assert str(SourceLocation()) == "program"
        assert str(SourceLocation(operation=-1)) == "setup"
        assert str(SourceLocation(operation=4, instruction=2)) == "op 4.2"


# ----------------------------------------------------------------------
# Options canonicalization
# ----------------------------------------------------------------------
class TestCanonicalOptions:
    def test_disabled_forms(self):
        assert canonical_analyze_options(None) is None
        assert canonical_analyze_options(False) is None

    def test_enabled_forms(self):
        assert canonical_analyze_options(True) == {}
        assert canonical_analyze_options({}) == {}

    def test_bad_type_rejected(self):
        with pytest.raises(AnalysisError):
            canonical_analyze_options("yes")

    def test_unknown_key_rejected(self):
        with pytest.raises(AnalysisError):
            canonical_analyze_options({"strictness": 11})


# ----------------------------------------------------------------------
# Stack wiring: compile(analyze=), result.analyze(), sessions
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lint_formula():
    return random_ksat(5, 9, seed=13, name="lint-5v")


@pytest.fixture(scope="module")
def analyzed_result(lint_formula):
    return repro.compile(lint_formula, target="fpqa", analyze=True)


class TestStackWiring:
    def test_compile_attaches_payload(self, analyzed_result):
        payload = analyzed_result.analysis
        assert payload is not None
        assert payload["ok"] is True
        assert payload["diagnostics"] == []
        assert payload["schema"] == ANALYSIS_SCHEMA_VERSION

    def test_payload_survives_result_roundtrip(self, analyzed_result):
        raw = json.loads(json.dumps(analyzed_result.to_dict()))
        restored = repro.CompilationResult.from_dict(raw)
        report = AnalysisReport.from_dict(restored.analysis)
        assert report.ok
        assert report.instructions_scanned > 0

    def test_pure_analyze_method(self, analyzed_result):
        report = analyzed_result.analyze()
        assert isinstance(report, AnalysisReport)
        assert report.ok
        assert report.artifact.endswith("@fpqa")
        assert set(report.rules_run) <= {r.code for r in all_rules()}

    def test_circuit_path(self, lint_formula):
        result = repro.compile(lint_formula, target="superconducting")
        report = analyze_result(result)
        assert report.ok
        assert report.instructions_scanned > 0

    def test_artifact_free_result_rejected(self):
        bare = repro.CompilationResult(
            target="atomique", workload="x", num_qubits=3
        )
        with pytest.raises(AnalysisError):
            analyze_result(bare)

    def test_session_keys_lint_separately(self, lint_formula, tmp_path):
        session = CompilerSession(cache_dir=tmp_path)
        linted = session.compile(lint_formula, target="fpqa", analyze=True)
        plain = session.compile(lint_formula, target="fpqa")
        assert linted.analysis is not None
        assert plain.analysis is None
        assert linted is not plain
        again = session.compile(lint_formula, target="fpqa", analyze=True)
        assert again is linted  # cache hit on the lint cell

    @pytest.mark.parametrize("front_end", ["compile", "session", "service", "client"])
    def test_empty_options_dict_lints_with_defaults(self, front_end, lint_formula, tmp_path):
        """``analyze={}`` is "lint with defaults" on every front end, not
        a falsy value that silently drops the analysis."""
        import asyncio

        from repro.service import CompilationService, ServiceClient, ServiceServer

        async def via_service():
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(lint_formula, target="fpqa", analyze={})
                assert job.kind == "lint"
                return await job

        async def via_client():
            socket_path = tmp_path / "lint.sock"
            service = CompilationService(shards=1, backend="inline")
            async with ServiceServer(service, socket_path):
                async with await ServiceClient.connect(socket_path) as client:
                    out = await client.submit(lint_formula, target="fpqa", analyze={})
                assert service.job(out.job_id).kind == "lint"
                return out.result

        if front_end == "compile":
            result = repro.compile(lint_formula, target="fpqa", analyze={})
        elif front_end == "session":
            result = CompilerSession().compile(lint_formula, target="fpqa", analyze={})
        else:
            result = asyncio.run(via_service() if front_end == "service" else via_client())
        assert result.analysis is not None
        assert result.analysis["ok"] is True

    def test_compile_many_lints_every_cell(self, lint_formula):
        session = CompilerSession()
        rows = session.compile_many(
            [lint_formula], targets=["fpqa", "fpqa-nocompress"], analyze=True
        )
        assert all(row.analysis is not None for row in rows)
        assert all(row.analysis["ok"] for row in rows)


# ----------------------------------------------------------------------
# Static/dynamic differential: wLint agrees with the wChecker on every
# (target, device) cell of the matrix.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def matrix(lint_formula):
    session = CompilerSession(
        budgets={name: 60.0 for name in repro.available_targets()}
    )
    cells = {}
    for target in repro.available_targets():
        cells[(target, None)] = session.compile(lint_formula, target=target)
    for device in list_devices(kind="fpqa"):
        profile = repro.get_device(device)
        if (
            profile.max_qubits is not None
            and profile.max_qubits < lint_formula.num_vars
        ):
            continue
        cells[("fpqa", device)] = session.compile(
            lint_formula, target="fpqa", device=device
        )
    for device in list_devices(kind="superconducting"):
        cells[("superconducting", device)] = session.compile(
            lint_formula, target="superconducting", device=device
        )
    return cells


class TestStaticDynamicAgreement:
    def test_static_and_dynamic_agree_on_clean_cells(self, matrix):
        """On every artifact-bearing cell both tiers say "safe"."""
        program_cells = 0
        for cell, result in matrix.items():
            assert result.succeeded, (cell, result.error)
            if result.program is None:
                continue
            program_cells += 1
            hardware = (
                DeviceProfile.from_dict(result.device_profile).hardware
                if result.device_profile is not None
                else None
            )
            static = analyze_result(result)
            dynamic = repro.check_program(
                result.program,
                reference=result.native_circuit,
                hardware=hardware,
            )
            assert static.ok == dynamic.ok is True, (
                f"{cell}: static={static.summary()} dynamic={dynamic.ok}"
            )
            assert static.diagnostics == []
        assert program_cells >= 3  # fpqa, fpqa-nocompress, device cells

    def test_circuit_cells_are_clean(self, matrix):
        checked = 0
        for cell, result in matrix.items():
            if result.program is not None or result.native_circuit is None:
                continue
            report = analyze_circuit(result.native_circuit)
            assert report.ok, f"{cell}: {report.summary()}"
            checked += 1
        assert checked >= 1  # the superconducting cells

    def test_bounds_pass_cross_checks_recorded_metrics(self, matrix):
        """The recorded duration/EPS/pulse metrics match a recompute."""
        result = matrix[("fpqa", None)]
        report = analyze_result(result)
        assert report.stats["total_pulses"] == result.num_pulses
        assert {"WL050", "WL051", "WL052"} <= set(report.rules_run)

    def test_tampered_metrics_are_flagged(self, matrix):
        import dataclasses

        result = matrix[("fpqa", None)]
        forged = dataclasses.replace(
            result,
            num_pulses=result.num_pulses + 7,
            eps=(result.eps or 0.1) * 3.0,
        )
        report = analyze_result(forged)
        assert not report.ok
        assert {"WL050", "WL052"} <= report.codes()


# ----------------------------------------------------------------------
# `weaver lint` CLI exit-code contract
# ----------------------------------------------------------------------
class TestLintCli:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro.analysis.mutations import corrupt_shuttle_order

        root = tmp_path_factory.mktemp("lint-cli")
        formula = random_ksat(4, 7, seed=3, name="cli-4v")
        result = repro.compile(formula, target="fpqa")
        clean = root / "clean.wqasm"
        clean.write_text(result.program.to_wqasm(), encoding="utf-8")
        mutant = root / "mutant.wqasm"
        mutant.write_text(
            corrupt_shuttle_order(result.program).to_wqasm(), encoding="utf-8"
        )
        return clean, mutant

    def test_clean_file_exits_zero(self, artifacts, capsys):
        clean, _ = artifacts
        assert cli_main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_findings_exit_two(self, artifacts, capsys):
        _, mutant = artifacts
        assert cli_main(["lint", str(mutant)]) == 2
        out = capsys.readouterr().out
        assert "error(s)" in out
        assert "WL" in out

    def test_json_output_parses(self, artifacts, capsys):
        clean, _ = artifacts
        assert cli_main(["lint", str(clean), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        report = AnalysisReport.from_dict(payload)
        assert report.instructions_scanned > 0

    def test_mutant_json_lists_findings(self, artifacts, capsys):
        _, mutant = artifacts
        assert cli_main(["lint", str(mutant), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"]

    def test_missing_input_is_user_error(self, capsys):
        assert cli_main(["lint", "no-such-file.wqasm"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_fpqa_device_rejected_for_wqasm(self, artifacts, capsys):
        clean, _ = artifacts
        code = cli_main(["lint", str(clean), "--device", "heavyhex-23"])
        assert code == 2
        assert "not an FPQA machine" in capsys.readouterr().err

    def test_compile_and_lint_path(self, tmp_path, capsys):
        from repro.sat import to_dimacs

        formula = random_ksat(4, 6, seed=9, name="cli-compile-4v")
        cnf = tmp_path / "probe.cnf"
        cnf.write_text(to_dimacs(formula), encoding="utf-8")
        assert cli_main(["lint", str(cnf)]) == 0
        captured = capsys.readouterr()
        assert "clean" in captured.out
        assert "compiled" in captured.err


class TestNoModuleState:
    """The analyzer's memos live in one run, not in the module."""

    def test_linting_new_angles_leaves_module_containers_unchanged(self, paper_formula):
        from repro.analysis import program as program_pass
        from repro.qaoa import QaoaParameters

        def container_sizes():
            return {
                name: len(value)
                for name, value in vars(program_pass).items()
                if isinstance(value, (dict, list, set))
            }

        before = container_sizes()
        # (0.789, 0.321) and (0.5, 0.2) put a Raman pitch ~1.5e-8 from
        # -pi/2, near gimbal lock: lint must accept what the checker does.
        for gamma, beta in ((0.123, 0.456), (0.9, 0.15), (0.789, 0.321), (0.5, 0.2)):
            result = repro.compile(
                paper_formula,
                target="fpqa",
                parameters=QaoaParameters((gamma,), (beta,)),
            )
            report = analyze_result(result)
            assert report.ok, report.summary()
        assert container_sizes() == before
