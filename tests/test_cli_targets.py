"""CLI: the target-aware compile command and the unified error handler."""

import pytest

from repro.cli import main
from repro.sat import to_dimacs


@pytest.fixture()
def cnf_file(tmp_path, tiny_formula):
    path = tmp_path / "tiny.cnf"
    path.write_text(to_dimacs(tiny_formula))
    return path


class TestTargetsCommand:
    def test_lists_all_targets(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        for name in ("fpqa", "fpqa-nocompress", "superconducting", "atomique",
                     "geyser", "dpqa"):
            assert name in out

    def test_single_target(self, capsys):
        assert main(["targets", "fpqa"]) == 0
        out = capsys.readouterr().out
        assert "clause-coloring" in out

    def test_unknown_target_is_user_error(self, capsys):
        assert main(["targets", "pixie"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompileTarget:
    def test_default_target_emits_wqasm(self, cnf_file, tmp_path):
        out = tmp_path / "out.wqasm"
        assert main(["compile", str(cnf_file), "-o", str(out)]) == 0
        assert out.read_text().startswith("OPENQASM 3.0;")

    def test_satlib_instance_name(self, tmp_path, capsys):
        out = tmp_path / "uf20.wqasm"
        assert main(["compile", "uf20-01", "-o", str(out)]) == 0
        assert out.read_text().startswith("OPENQASM 3.0;")
        assert "compiled uf20-01 for fpqa: 20 qubits" in capsys.readouterr().err

    def test_explicit_target_flag(self, cnf_file, capsys):
        assert main(["compile", str(cnf_file), "--target", "superconducting"]) == 0
        captured = capsys.readouterr()
        assert "superconducting" in captured.err
        assert "eps:" in captured.out

    def test_unknown_target_is_user_error(self, cnf_file, capsys):
        assert main(["compile", str(cnf_file), "--target", "pixie"]) == 2
        err = capsys.readouterr().err
        assert "unknown target" in err

    def test_verify_rejected_for_gate_level_target(self, cnf_file, capsys):
        rc = main(["compile", str(cnf_file), "--target", "atomique", "--verify"])
        assert rc == 2


class TestDevicesCommand:
    def test_lists_all_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("rubidium-baseline", "aquila-256", "washington-127",
                     "zone-lite-16"):
            assert name in out

    def test_single_device_shows_params(self, capsys):
        assert main(["devices", "aquila-256"]) == 0
        out = capsys.readouterr().out
        assert "fidelity_cz" in out

    def test_unknown_device_is_user_error(self, capsys):
        assert main(["devices", "pixie-dust"]) == 2
        assert "unknown device" in capsys.readouterr().err


class TestCompileDevice:
    def test_device_flag(self, cnf_file, tmp_path, capsys):
        out = tmp_path / "out.wqasm"
        rc = main(["compile", str(cnf_file), "--device", "rubidium-nextgen",
                   "-o", str(out)])
        assert rc == 0
        assert "on rubidium-nextgen" in capsys.readouterr().err
        assert out.read_text().startswith("OPENQASM 3.0;")

    def test_device_infers_target(self, cnf_file, capsys):
        assert main(["compile", str(cnf_file), "--device", "heavyhex-23"]) == 0
        assert "superconducting" in capsys.readouterr().err

    def test_unknown_device_is_user_error(self, cnf_file, capsys):
        assert main(["compile", str(cnf_file), "--device", "pixie"]) == 2
        assert "unknown device" in capsys.readouterr().err

    def test_kind_mismatch_is_user_error(self, cnf_file, capsys):
        rc = main(["compile", str(cnf_file), "--target", "fpqa",
                   "--device", "washington-127"])
        assert rc == 2
        assert "fpqa device profile" in capsys.readouterr().err


class TestUnknownOptionRejection:
    def test_nocompress_rejects_compression_on(self, cnf_file, capsys):
        rc = main(["compile", str(cnf_file), "--target", "fpqa-nocompress",
                   "--compression", "on"])
        assert rc == 2
        assert "forces compression off" in capsys.readouterr().err

    def test_nocompress_accepts_compression_off(self, cnf_file, tmp_path):
        out = tmp_path / "out.wqasm"
        rc = main(["compile", str(cnf_file), "--target", "fpqa-nocompress",
                   "--compression", "off", "-o", str(out)])
        assert rc == 0

    def test_unknown_factory_option_is_target_error(self):
        import pytest

        from repro.exceptions import TargetError
        from repro.targets import get_target

        with pytest.raises(TargetError, match="does not support option"):
            get_target("fpqa", warp_drive=True)
        with pytest.raises(TargetError, match="does not support option"):
            get_target("superconducting", warp_drive=True)
        with pytest.raises(TargetError, match="atomique"):
            get_target("atomique", warp_drive=True)
        with pytest.raises(TargetError, match="device"):
            get_target("geyser", device="rubidium-baseline")


class TestErrorHandler:
    def test_missing_input_is_user_error(self, capsys):
        assert main(["compile", "/nonexistent/x.cnf"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_wqasm_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.wqasm"
        bad.write_bytes(b"\xff\xfe\x00 not text")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_syntactically_broken_wqasm_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.wqasm"
        bad.write_text("this is not wqasm {{{")
        assert main(["check", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["check", "lint"])
    @pytest.mark.parametrize(
        "statement, message",
        [
            ("rz(1.2.3) q[0];", "malformed number '1.2.3' at line 3"),
            (
                "@shuttle row 0 abc\nbarrier;",
                "malformed @shuttle payload: 'abc' is not a number at line 3",
            ),
            (
                "@raman global 1 2 x\nbarrier;",
                "malformed @raman payload: 'x' is not a number at line 3",
            ),
        ],
    )
    def test_malformed_number_is_user_error(self, tmp_path, capsys, command, statement, message):
        """A number that does not convert is a located syntax or
        annotation error (exit 2), not an internal ValueError (exit 1)."""
        bad = tmp_path / "bad.wqasm"
        bad.write_text(f"OPENQASM 3.0;\nqubit[1] q;\n{statement}\n")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err

    def test_internal_error_exits_1(self, cnf_file, monkeypatch, capsys):
        import repro.cli as cli

        def boom(text, name="x"):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "parse_wqasm", boom)
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert cli.main(["check", str(cnf_file)]) == 1
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "synthetic failure" in err

    def test_internal_error_reraises_under_debug(self, cnf_file, monkeypatch):
        import repro.cli as cli

        def boom(text, name="x"):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "parse_wqasm", boom)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(RuntimeError):
            cli.main(["check", str(cnf_file)])
