"""Shuttle findings and the device's report mode.

wLint replays a program through :class:`~repro.fpqa.device.FPQADevice`
with a sink, so a shuttle gap is checked once, in index order, columns
first, whatever the hash seed.  The device tests here pin the two error
paths: raise (no sink) and report-and-recover (a sink).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_program
from repro.analysis.mutations import corrupt_shuttle_order
from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice
from repro.fpqa.hardware import FPQAHardwareParams
from repro.fpqa.instructions import (
    AodInit,
    BindAtom,
    ParallelShuttle,
    RydbergPulse,
    ShuttleMove,
    SlmInit,
    Transfer,
)
from repro.sat import satlib_instance
from repro.wqasm.program import AnnotatedOperation, WQasmProgram

SRC = Path(__file__).resolve().parent.parent / "src"


def _shuttle_program(xs, ys, moves) -> WQasmProgram:
    """An AOD grid and one operation that holds one parallel shuttle."""
    return WQasmProgram(
        num_qubits=0,
        setup=(AodInit(tuple(xs), tuple(ys)),),
        operations=[AnnotatedOperation((ParallelShuttle(tuple(moves)),), ())],
    )


def _wl011(program: WQasmProgram) -> list[str]:
    return [
        d.message for d in analyze_program(program).diagnostics if d.code == "WL011"
    ]


class TestShuttleOrderFindings:
    def test_gap_with_both_ends_moved_is_reported_once(self):
        # Columns 1 and 2 both land at x = 15: one crossed gap, one finding.
        program = _shuttle_program(
            (0.0, 10.0, 20.0, 30.0),
            (0.0,),
            [ShuttleMove("column", 1, 5.0), ShuttleMove("column", 2, -5.0)],
        )
        findings = _wl011(program)
        assert len(findings) == 1
        assert findings[0].startswith("shuttle brings adjacent columns 1 and 2 ")

    def test_columns_first_in_index_order(self):
        moves = [
            ShuttleMove("row", 3, -10.0),  # rows 2 and 3 meet
            ShuttleMove("column", 5, -10.0),  # columns 4 and 5 meet
            ShuttleMove("row", 1, -10.0),  # rows 0 and 1 meet
            ShuttleMove("column", 3, -10.0),  # columns 2 and 3 meet
            ShuttleMove("column", 1, -10.0),  # columns 0 and 1 meet
        ]
        program = _shuttle_program(
            [10.0 * i for i in range(6)], [10.0 * i for i in range(4)], moves
        )
        pairs = [message.split(" within ")[0] for message in _wl011(program)]
        assert pairs == [
            "shuttle brings adjacent columns 0 and 1",
            "shuttle brings adjacent columns 2 and 3",
            "shuttle brings adjacent columns 4 and 5",
            "shuttle brings adjacent rows 0 and 1",
            "shuttle brings adjacent rows 2 and 3",
        ]

    def test_mutant_report_has_no_duplicates(self):
        result = repro.compile(satlib_instance("uf20-01"), target="fpqa")
        report = analyze_program(
            corrupt_shuttle_order(result.program), result.fpqa_hardware()
        )
        rows = [(d.code, d.message, d.qubits, str(d.location)) for d in report.diagnostics]
        assert rows and len(rows) == len(set(rows))

    def test_lint_json_is_identical_across_hash_seeds(self, tmp_path):
        result = repro.compile(satlib_instance("uf20-01"), target="fpqa")
        mutant = tmp_path / "uf20-01-shuttle.wqasm"
        mutant.write_text(corrupt_shuttle_order(result.program).to_wqasm())
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            run = subprocess.run(
                [sys.executable, "-m", "repro", "lint", str(mutant), "--json"],
                capture_output=True,
                env=env,
                check=False,
            )
            assert run.returncode == 2, run.stderr
            # The run's wall time is the one field that may differ.
            outputs.append(
                b"\n".join(
                    line
                    for line in run.stdout.splitlines()
                    if not line.lstrip().startswith(b'"analysis_seconds"')
                )
            )
        assert json.loads(outputs[0])["diagnostics"]
        assert outputs[0] == outputs[1]


def _conflicting_shuttle() -> ParallelShuttle:
    """A group that moves column 0 twice (its constructor forbids that)."""
    shuttle = object.__new__(ParallelShuttle)
    moves = (ShuttleMove("column", 0, 1.0), ShuttleMove("column", 0, 2.0))
    object.__setattr__(shuttle, "moves", moves)
    return shuttle


class TestDeviceErrorPaths:
    def test_raise_mode_error_carries_rule_and_qubits(self):
        device = FPQADevice()
        device.apply(SlmInit(((0.0, 0.0),)))
        device.apply(BindAtom(qubit=3, slm_index=0))
        with pytest.raises(FPQAConstraintError) as caught:
            device.apply(BindAtom(qubit=4, slm_index=0))
        assert caught.value.code == "WL021"
        assert caught.value.qubits == (4, 3)

    def test_raise_mode_rejects_a_line_moved_twice(self):
        device = FPQADevice()
        device.apply(AodInit((0.0, 10.0), (0.0,)))
        with pytest.raises(FPQAConstraintError) as caught:
            device.apply(_conflicting_shuttle())
        assert caught.value.code == "WL012"
        assert device.aod_col_x == [0.0, 10.0]

    def test_uninitialized_layers_are_their_own_violation(self):
        device = FPQADevice()
        for instruction in (
            BindAtom(qubit=0, slm_index=0),
            BindAtom(qubit=0, aod_col=0, aod_row=0),
            Transfer(0, 0, 0),
        ):
            with pytest.raises(FPQAConstraintError, match="before") as caught:
                device.apply(instruction)
            assert caught.value.code == "WL001"

    def test_report_mode_applies_geometry_and_skips_occupancy(self):
        errors: list[FPQAConstraintError] = []
        device = FPQADevice(sink=errors.append)
        device.apply(SlmInit(((0.0, 0.0), (100.0, 0.0))))
        device.apply(AodInit((0.0, 10.0), (0.0,)))
        device.apply(BindAtom(qubit=0, slm_index=0))
        device.apply(BindAtom(qubit=1, slm_index=0))  # occupied: skipped
        device.apply(_conflicting_shuttle())  # flagged, still applied
        device.apply(Transfer(1, 1, 0))  # too far and empty: skipped
        assert [e.code for e in errors] == ["WL021", "WL012", "WL025", "WL023"]
        assert device.qubit_location == {0: ("slm", 0)}
        assert device.aod_col_x == [3.0, 10.0]

    def test_cached_unequal_cluster_violates_on_every_pulse(self):
        hardware = FPQAHardwareParams(rydberg_radius_um=12.0)
        errors: list[FPQAConstraintError] = []
        device = FPQADevice(hardware, sink=errors.append)
        device.apply(SlmInit(((0.0, 0.0), (5.5, 0.0), (11.0, 0.0))))
        for qubit in range(3):
            device.apply(BindAtom(qubit=qubit, slm_index=qubit))
        for _ in range(2):
            (cluster,) = device.apply(RydbergPulse())
            assert not cluster.equidistant
        assert [e.code for e in errors] == ["WL042", "WL042"]
        assert device.cluster_resolutions == 1 and device.cluster_cache_hits == 1
        device.sink = None
        with pytest.raises(FPQAConstraintError, match="not equidistant"):
            device.apply(RydbergPulse())


def test_fpqa_package_does_not_import_analysis():
    """The device maps errors to rule codes as strings: ``repro.analysis``
    imports the request layer, which would close an import cycle."""
    for path in (SRC / "repro" / "fpqa").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                assert "analysis" not in module, f"{path.name} imports {module}"
