"""Device algorithms the FPQA device used before its faster replacements.

``resolve_brute_force`` is ``FPQADevice._resolve_brute_force``, the
dense O(n^2) Rydberg cluster resolver the device used before its spatial
hash; ``test_cluster_equivalence.py`` checks that
:meth:`repro.fpqa.device.FPQADevice.resolve_rydberg_clusters` returns the
same clusters, and rejects the same geometries, on every layout it covers.

``shuttle_full_rescan`` is ``FPQADevice._shuttle`` from before it checked
only the gaps next to moved AOD lines: it rescans every column and row
gap after each shuttle.  ``test_fpqa_device.py::TestShuttleDifferential``
checks that the device accepts and rejects the same move sets, with the
same message, and ends at the same coordinates.

Both moved out of the device unchanged except for their imports
(absolute ``repro`` paths) and for taking the device as an argument
instead of ``self``; the shuttle check's message tracks the device's
WL011 wording, which the differential test compares.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice, RydbergCluster
from repro.fpqa.instructions import ShuttleMove


def shuttle_full_rescan(device: FPQADevice, moves: list[ShuttleMove]) -> None:
    """Apply ``moves`` to ``device``, rescanning every AOD gap."""
    new_cols = list(device.aod_col_x)
    new_rows = list(device.aod_row_y)
    for move in moves:
        coords = new_cols if move.axis == "column" else new_rows
        if not 0 <= move.index < len(coords):
            raise FPQAConstraintError(
                f"@shuttle {move.axis} {move.index} out of range"
            )
        coords[move.index] += move.offset
    spacing = device.hardware.min_trap_spacing_um
    for name, coords in (("column", new_cols), ("row", new_rows)):
        for i, (a, b) in enumerate(zip(coords, coords[1:])):
            if b - a < spacing - 1e-9:
                raise FPQAConstraintError(
                    f"shuttle brings adjacent {name}s {i} and {i + 1} "
                    f"within {b - a:.2f} um (minimum {spacing} um); "
                    "rows/columns may not cross or crowd (Table 1)"
                )
    device.aod_col_x = new_cols
    device.aod_row_y = new_rows
    device._geometry_epoch += 1


def resolve_brute_force(device: FPQADevice) -> list[RydbergCluster]:
    """Dense O(n^2) reference resolver (the original implementation)."""
    qubits = sorted(device.qubit_location)
    if not qubits:
        return []
    pos = np.array([device.qubit_position(q) for q in qubits])
    deltas = pos[:, None, :] - pos[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    radius = device.hardware.rydberg_radius_um
    n = len(qubits)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    interacting = np.argwhere(
        (distances <= radius) & (np.triu(np.ones((n, n), dtype=bool), k=1))
    )
    for i, j in interacting:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    tol = device.hardware.equidistance_tolerance_um
    for members in groups.values():
        if len(members) < 2:
            continue
        member_qubits = tuple(qubits[i] for i in members)
        member_positions = tuple((float(pos[i][0]), float(pos[i][1])) for i in members)
        if len(members) >= 3:
            dists = [
                distances[a][b]
                for ai, a in enumerate(members)
                for b in members[ai + 1 :]
            ]
            if max(dists) - min(dists) > tol:
                raise FPQAConstraintError(
                    f"Rydberg cluster {member_qubits} is not equidistant "
                    f"(pairwise distances {min(dists):.2f}..{max(dists):.2f} um); "
                    "the digital C^nZ semantics does not apply (§7)"
                )
        clusters.append(RydbergCluster(member_qubits, member_positions))
    clusters.sort(key=lambda c: c.qubits)
    return clusters
