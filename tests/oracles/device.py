"""The dense O(n^2) Rydberg cluster resolver the device used before its spatial hash.

``resolve_brute_force`` is ``FPQADevice._resolve_brute_force`` moved out
of the device unchanged except for its imports (absolute ``repro``
paths) and for taking the device as an argument instead of ``self``.
``test_cluster_equivalence.py`` checks that
:meth:`repro.fpqa.device.FPQADevice.resolve_rydberg_clusters` returns the
same clusters, and rejects the same geometries, on every layout it covers.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FPQAConstraintError
from repro.fpqa.device import FPQADevice, RydbergCluster


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
