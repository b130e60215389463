"""Rydberg cluster resolution: spatial hash vs brute force equivalence.

The device resolves interaction clusters with a spatial hash plus dirty
tracking; the original dense O(n^2) resolver is kept as the oracle
``oracles.device.resolve_brute_force``.  These randomized-geometry
property tests pin the two to *identical* results — same clusters, same
member order, same positions, and the same accept/reject verdict on the
equidistance pre-condition (§7).
"""

from __future__ import annotations

import math
import random

import pytest
from oracles.device import resolve_brute_force

from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice
from repro.fpqa.hardware import FPQAHardwareParams
from repro.fpqa.instructions import BindAtom, SlmInit


def _random_positions(
    rng: random.Random, count: int, box: float, spacing: float
) -> list[tuple[float, float]]:
    """Rejection-sample ``count`` points at pairwise distance >= spacing."""
    positions: list[tuple[float, float]] = []
    attempts = 0
    while len(positions) < count and attempts < 20_000:
        attempts += 1
        candidate = (rng.uniform(0.0, box), rng.uniform(0.0, box))
        if all(math.dist(candidate, p) >= spacing + 1e-6 for p in positions):
            positions.append(candidate)
    assert len(positions) == count, "rejection sampling starved; widen the box"
    return positions


def _device_with(
    positions: list[tuple[float, float]], hardware: FPQAHardwareParams | None = None
) -> FPQADevice:
    device = FPQADevice(hardware)
    device.apply(SlmInit(tuple(positions)))
    for qubit in range(len(positions)):
        device.apply(BindAtom(qubit=qubit, slm_index=qubit))
    return device


def _resolve_both(positions, hardware=None):
    """(device outcome, oracle outcome); outcomes are clusters or 'raise'."""
    outcomes = []
    for resolve in (FPQADevice.resolve_rydberg_clusters, resolve_brute_force):
        device = _device_with(positions, hardware)
        try:
            outcomes.append(resolve(device))
        except FPQAConstraintError:
            outcomes.append("raise")
    return outcomes


class TestClusterEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_geometry_identical_clusters(self, seed):
        """Dense layouts: many interacting pairs/runs of atoms.

        The box is sized so a good fraction of pairs land within the
        8 um Rydberg radius; geometries whose >=3-atom clusters violate
        the equidistance tolerance must be rejected by *both* resolvers.
        """
        rng = random.Random(seed)
        count = rng.randint(2, 40)
        # ~5.6-8 um typical nearest-neighbor spacing: clusters are common.
        box = 7.0 * math.sqrt(count)
        positions = _random_positions(rng, count, box, spacing=5.0)
        spatial, brute = _resolve_both(positions)
        assert spatial == brute

    @pytest.mark.parametrize("seed", range(25, 40))
    def test_sparse_geometry_identical_clusters(self, seed):
        """Sparse layouts: mostly singletons, occasional pairs."""
        rng = random.Random(seed)
        count = rng.randint(2, 60)
        positions = _random_positions(rng, count, 14.0 * math.sqrt(count), 5.0)
        spatial, brute = _resolve_both(positions)
        assert spatial == brute

    def test_equilateral_triangle_accepted_identically(self):
        side = 6.0
        positions = [
            (0.0, 0.0),
            (side, 0.0),
            (side / 2.0, side * math.sqrt(3.0) / 2.0),
        ]
        spatial, brute = _resolve_both(positions)
        assert spatial == brute
        assert spatial != "raise"
        (cluster,) = spatial
        assert cluster.qubits == (0, 1, 2)

    def test_equidistance_rejection_identical(self):
        # Collinear triple: pairwise distances 5.5 / 5.5 / 11 um spread
        # far beyond the 0.5 um tolerance -> both resolvers must reject.
        hardware = FPQAHardwareParams(rydberg_radius_um=12.0)
        positions = [(0.0, 0.0), (5.5, 0.0), (11.0, 0.0)]
        for resolve in (FPQADevice.resolve_rydberg_clusters, resolve_brute_force):
            device = _device_with(positions, hardware)
            with pytest.raises(FPQAConstraintError, match="not equidistant"):
                resolve(device)

    def test_boundary_distance_is_inclusive_in_both(self):
        """Atoms exactly at the Rydberg radius interact in both paths."""
        radius = FPQAHardwareParams().rydberg_radius_um
        positions = [(0.0, 0.0), (radius, 0.0)]
        spatial, brute = _resolve_both(positions)
        assert spatial == brute
        assert len(spatial) == 1

    def test_incremental_cache_tracks_movement(self):
        """Dirty tracking: cache hits only while no atom moved."""
        positions = [(0.0, 0.0), (6.0, 0.0), (40.0, 0.0), (46.0, 0.0)]
        device = _device_with(positions)
        first = device.resolve_rydberg_clusters()
        assert {c.qubits for c in first} == {(0, 1), (2, 3)}
        assert device.resolve_rydberg_clusters() == first
        assert device.cluster_cache_hits == 1
        device.lose_atom(1)
        second = device.resolve_rydberg_clusters()
        assert {c.qubits for c in second} == {(2, 3)}
        assert device.cluster_resolutions == 2
        # Every recomputation still matches the dense reference.
        assert second == resolve_brute_force(device)
