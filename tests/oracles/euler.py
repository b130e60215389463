"""The SO(3) Euler extraction the compiler used before the closed form.

``su2_to_so3``, ``zyx_euler_angles_so3`` and their helpers moved out of
``repro.circuits.euler`` unchanged except for their imports (absolute
``repro`` paths; ``_GIMBAL_TOL`` comes from the package module, which
still uses it).  ``TestClosedFormEuler`` in
``test_perf.py`` checks that :func:`repro.circuits.euler.zyx_euler_angles`
reconstructs the same rotation, and ``benchmarks/test_micro.py`` times
the two against each other.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuits.euler import _GIMBAL_TOL
from repro.exceptions import CircuitError

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _to_su2(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise CircuitError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    det = np.linalg.det(matrix)
    if abs(det) < 1e-12:
        raise CircuitError("matrix is singular; not a unitary")
    return matrix / cmath.sqrt(det)


def su2_to_so3(matrix: np.ndarray) -> np.ndarray:
    """The SO(3) rotation corresponding to an SU(2) element.

    ``R[i][j] = (1/2) tr(sigma_i U sigma_j U^dagger)``.
    """
    u = _to_su2(matrix)
    u_dag = u.conj().T
    rotation = np.empty((3, 3))
    for i, sigma_i in enumerate(_PAULIS):
        for j, sigma_j in enumerate(_PAULIS):
            rotation[i, j] = 0.5 * np.trace(sigma_i @ u @ sigma_j @ u_dag).real
    return rotation


def zyx_euler_angles_so3(matrix: np.ndarray) -> tuple[float, float, float]:
    """Legacy angle extraction through the explicit SO(3) matrix."""
    rotation = su2_to_so3(matrix)
    # ZYX (yaw-pitch-roll) extraction from a rotation matrix.
    sin_pitch = -rotation[2, 0]
    sin_pitch = min(1.0, max(-1.0, sin_pitch))
    pitch = math.asin(sin_pitch)
    if abs(abs(sin_pitch) - 1.0) < _GIMBAL_TOL:
        # Gimbal lock: roll and yaw are degenerate; put everything in yaw.
        roll = 0.0
        yaw = math.atan2(-rotation[0, 1], rotation[1, 1])
    else:
        roll = math.atan2(rotation[2, 1], rotation[2, 2])
        yaw = math.atan2(rotation[1, 0], rotation[0, 0])
    return (roll, pitch, yaw)
