"""ZYX Euler decomposition of single-qubit unitaries.

An FPQA Raman pulse applies ``Rz(z) @ Ry(y) @ Rx(x)`` (paper Table 1), so
any single-qubit gate compiles to *one* local pulse once we can extract the
(x, y, z) angles.

:func:`zyx_euler_angles` reads the quaternion components straight off the
SU(2) entries and evaluates, in closed form, only the five SO(3) entries
the ZYX extraction needs — no 3x3 matrix build, no ``np.trace`` matmuls.
It runs on every Raman pulse the compiler emits, is numerically robust
away from the gimbal-lock pitch and handles the poles explicitly.  The
explicit-SO(3) extraction it replaced is kept only as a test oracle
(``tests/oracles/euler.py``); the two agree to ~1e-15 but are not
bit-identical.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..exceptions import CircuitError

#: Pitch band treated as gimbal lock (|sin pitch| within this of 1).
_GIMBAL_TOL = 1e-9


def zyx_euler_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """Angles ``(x, y, z)`` with ``Rz(z) Ry(y) Rx(x) ~ matrix`` up to phase.

    The rotation convention matches the ``raman`` gate: ``R*(theta) =
    exp(-i*theta*sigma/2)``, composed X first, then Y, then Z.

    Closed form: normalize to SU(2) ``u = w*I - i*(qx*sx + qy*sy + qz*sz)``,
    read the quaternion ``(w, qx, qy, qz)`` straight from the entries
    (``u00 = w - i*qz``, ``u10 = qy - i*qx``), and evaluate only the five
    rotation-matrix entries the ZYX extraction consumes.
    """
    if not isinstance(matrix, np.ndarray) or matrix.shape != (2, 2):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise CircuitError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    u00 = complex(matrix[0, 0])
    u01 = complex(matrix[0, 1])
    u10 = complex(matrix[1, 0])
    u11 = complex(matrix[1, 1])
    det = u00 * u11 - u01 * u10
    if abs(det) < 1e-12:
        raise CircuitError("matrix is singular; not a unitary")
    scale = 1.0 / cmath.sqrt(det)
    u00 *= scale
    u10 *= scale
    w = u00.real
    qz = -u00.imag
    qy = u10.real
    qx = -u10.imag
    # R[2,0] = 2(qx*qz - w*qy); sin(pitch) = -R[2,0].
    sin_pitch = 2.0 * (w * qy - qx * qz)
    sin_pitch = min(1.0, max(-1.0, sin_pitch))
    pitch = math.asin(sin_pitch)
    if abs(abs(sin_pitch) - 1.0) < _GIMBAL_TOL:
        # Gimbal lock: roll and yaw are degenerate; put everything in yaw.
        # yaw = atan2(-R[0,1], R[1,1]).
        roll = 0.0
        yaw = math.atan2(
            2.0 * (w * qz - qx * qy), 1.0 - 2.0 * (qx * qx + qz * qz)
        )
    else:
        # roll = atan2(R[2,1], R[2,2]); yaw = atan2(R[1,0], R[0,0]).
        roll = math.atan2(
            2.0 * (qy * qz + w * qx), 1.0 - 2.0 * (qx * qx + qy * qy)
        )
        yaw = math.atan2(
            2.0 * (qx * qy + w * qz), 1.0 - 2.0 * (qy * qy + qz * qz)
        )
    return (roll, pitch, yaw)


def raman_angles_for(matrix: np.ndarray) -> tuple[float, float, float]:
    """Raman pulse angles implementing ``matrix`` up to global phase."""
    return zyx_euler_angles(matrix)
