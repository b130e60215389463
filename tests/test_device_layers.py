"""The device's SLM-layer shortcuts against their exact references.

:class:`~repro.fpqa.device.FPQADevice` screens the ``@slm`` spacing check
with a vectorized pass and runs the exact per-pair loop only when that
pass flags a pair; and it resolves Rydberg clusters from a static hash
of the trap layer, probing only AOD-held atoms against it.  These
randomized tests pin both to the exact paths: the same WL003 findings in
the same order, and the same clusters as the dense oracle resolver on
layouts that mix SLM-held and AOD-held atoms.
"""

from __future__ import annotations

import math
import random

import pytest
from oracles.device import resolve_brute_force

from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice
from repro.fpqa.hardware import FPQAHardwareParams
from repro.fpqa.instructions import AodInit, BindAtom, SlmInit


def _findings(positions, exact_only: bool) -> list[str]:
    errors: list[FPQAConstraintError] = []
    device = FPQADevice(sink=errors.append)
    if exact_only:
        device._report_close_traps(list(positions))
    else:
        device.apply(SlmInit(tuple(positions)))
    return [str(error) for error in errors]


class TestSpacingPrePass:
    @pytest.mark.parametrize("seed", range(30))
    def test_findings_match_the_exact_loop(self, seed):
        rng = random.Random(seed)
        count = rng.randint(2, 60)
        box = rng.choice([10.0, 40.0, 120.0])
        positions = [
            (round(rng.uniform(-box, box), rng.choice([0, 1, 3])),
             round(rng.uniform(-box, box), rng.choice([0, 1, 3])))
            for _ in range(count)
        ]
        if seed % 3 == 0:
            positions.append(positions[0])  # a duplicate trap
        assert _findings(positions, exact_only=False) == _findings(
            positions, exact_only=True
        )

    @pytest.mark.parametrize(
        "gap", [5.0, 5.0 - 1e-10, 5.0 - 1e-8, 5.0 + 1e-12, math.nextafter(5.0, 0.0)]
    )
    def test_pairs_at_the_minimum_spacing(self, gap):
        for positions in (
            [(0.0, 0.0), (gap, 0.0)],
            [(0.1, 0.2), (0.1 + gap, 0.2)],
            [(0.0, 0.0), (gap / math.sqrt(2), gap / math.sqrt(2))],
        ):
            assert _findings(positions, exact_only=False) == _findings(
                positions, exact_only=True
            )

    def test_far_out_layout_takes_the_exact_path(self):
        positions = [(1e13, 0.0), (1e13 + 3.0, 0.0)]
        assert _findings(positions, exact_only=False) == _findings(
            positions, exact_only=True
        ) != []

    def test_non_finite_trap_raises_as_the_exact_loop_does(self):
        with pytest.raises(ValueError):
            FPQADevice().apply(SlmInit(((0.0, 0.0), (math.nan, 0.0))))


def _mixed_device(rng: random.Random, hardware: FPQAHardwareParams) -> FPQADevice:
    """Random traps (some within the radius of each other) and a random
    AOD grid, with atoms bound on both layers."""
    errors: list[FPQAConstraintError] = []
    device = FPQADevice(hardware, sink=errors.append)
    traps = [
        (rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
        for _ in range(rng.randint(1, 40))
    ]
    device.apply(SlmInit(tuple(traps)))
    xs = sorted(rng.uniform(0.0, 60.0) for _ in range(rng.randint(1, 8)))
    ys = sorted(rng.uniform(0.0, 60.0) for _ in range(rng.randint(1, 4)))
    device.apply(AodInit(tuple(xs), tuple(ys)))
    qubit = 0
    for index in range(len(traps)):
        if rng.random() < 0.6:
            device.apply(BindAtom(qubit=qubit, slm_index=index))
            qubit += 1
    for col in range(len(xs)):
        for row in range(len(ys)):
            if rng.random() < 0.5:
                device.apply(BindAtom(qubit=qubit, aod_col=col, aod_row=row))
                qubit += 1
    return device


class TestMixedLayerResolution:
    @pytest.mark.parametrize("seed", range(40))
    def test_clusters_match_brute_force(self, seed):
        rng = random.Random(seed)
        hardware = FPQAHardwareParams(equidistance_tolerance_um=100.0)
        device = _mixed_device(rng, hardware)
        assert device.resolve_rydberg_clusters() == resolve_brute_force(device)

    def test_static_pairs_are_the_trap_pairs_within_the_radius(self):
        rng = random.Random(5)
        device = _mixed_device(rng, FPQAHardwareParams(equidistance_tolerance_um=100.0))
        device.resolve_rydberg_clusters()
        radius = device.hardware.rydberg_radius_um
        traps = device.slm_positions
        expected = {
            (i, j)
            for i in range(len(traps))
            for j in range(i + 1, len(traps))
            if math.sqrt((traps[i][0] - traps[j][0]) ** 2 + (traps[i][1] - traps[j][1]) ** 2)
            <= radius
        }
        assert expected
        assert {tuple(sorted(pair)) for pair in device._static_pairs} == expected

    def test_far_out_layout_resolves_without_the_vectorized_pass(self):
        far = 1e10  # beyond the vectorized pass's 64-bit cell keys
        device = FPQADevice(FPQAHardwareParams(equidistance_tolerance_um=100.0))
        device.apply(SlmInit(((far, far), (far + 6.0, far), (far + 30.0, far - 6.0))))
        device.apply(AodInit((far + 30.0, far + 36.0), (far,)))
        for qubit in range(3):
            device.apply(BindAtom(qubit=qubit, slm_index=qubit))
        device.apply(BindAtom(qubit=3, aod_col=0, aod_row=0))
        device.apply(BindAtom(qubit=4, aod_col=1, aod_row=0))
        clusters = device.resolve_rydberg_clusters()
        assert device._static_pairs == [(0, 1)]
        assert clusters == resolve_brute_force(device)
        assert [cluster.qubits for cluster in clusters] == [(0, 1), (2, 3, 4)]
