"""The FPQA low-level instruction set (the payload of wQasm annotations).

Each dataclass mirrors one annotation of paper Table 1:

========== =====================
wQasm      instruction class
========== =====================
``@slm``        :class:`SlmInit`
``@aod``        :class:`AodInit`
``@bind``       :class:`BindAtom`
``@transfer``   :class:`Transfer`
``@shuttle``    :class:`Shuttle` (grouped: :class:`ParallelShuttle`)
``@raman``      :class:`RamanLocal` / :class:`RamanGlobal`
``@rydberg``    :class:`RydbergPulse`
========== =====================

:class:`ParallelShuttle` groups order-preserving moves that execute
simultaneously (the output of Algorithm 2's ``create_shuttle``); it prints
as one ``@shuttle`` annotation with ``;``-joined moves in wQasm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..exceptions import FPQAConstraintError
from .hardware import FPQAHardwareParams


@dataclass(frozen=True)
class SlmInit:
    """``@slm``: initialize the fixed trap layer at given coordinates."""

    positions: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class AodInit:
    """``@aod``: initialize the reconfigurable grid (column xs, row ys)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]


@dataclass(frozen=True)
class BindAtom:
    """``@bind``: create an atom carrying ``qubit`` in a trap.

    ``slm_index`` addresses an SLM trap; otherwise ``aod_col``/``aod_row``
    address an AOD crossing.
    """

    qubit: int
    slm_index: int | None = None
    aod_col: int | None = None
    aod_row: int | None = None

    def __post_init__(self) -> None:
        slm = self.slm_index is not None
        aod = self.aod_col is not None and self.aod_row is not None
        if slm == aod:
            raise FPQAConstraintError(
                "@bind must address exactly one of an SLM trap or an AOD crossing"
            )


@dataclass(frozen=True)
class Transfer:
    """``@transfer``: move an atom between SLM trap and AOD crossing.

    The direction is inferred from occupancy: exactly one side must hold an
    atom and the other must be empty (Table 1 pre-condition).
    """

    slm_index: int
    aod_col: int
    aod_row: int


@dataclass(frozen=True)
class ShuttleMove:
    """A single row/column displacement (one ``@shuttle`` annotation).

    ``loaded`` records whether the moved row/column carried atoms at
    emission time; it only affects the timing model (empty moves are fast).
    It serializes as a trailing ``empty`` marker in the ``@shuttle``
    payload so re-parsed programs derive the same duration and EPS.
    """

    axis: str  # "row" | "column"
    index: int
    offset: float
    loaded: bool = True

    def __post_init__(self) -> None:
        if self.axis not in ("row", "column"):
            raise FPQAConstraintError(f"shuttle axis must be row/column, got {self.axis!r}")


@dataclass(frozen=True)
class Shuttle:
    """``@shuttle``: displace one AOD row or column by an offset."""

    move: ShuttleMove


@dataclass(frozen=True)
class ParallelShuttle:
    """A set of simultaneous shuttle moves (Algorithm 2).

    A group that moves one row or column twice is representable (a parsed
    wQasm file may hold one); the device rejects it as WL012
    (shuttle-parallel-conflict).
    """

    moves: tuple[ShuttleMove, ...]


@dataclass(frozen=True)
class RamanLocal:
    """``@raman local``: rotate one qubit by Euler angles (x, y, z).

    The applied unitary is ``Rz(z) @ Ry(y) @ Rx(x)`` (see
    :mod:`repro.circuits.gates`); any single-qubit gate fits in one pulse.
    """

    qubit: int
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class RamanGlobal:
    """``@raman global``: rotate every initialized atom by (x, y, z)."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class RydbergPulse:
    """``@rydberg``: global pulse entangling every interacting cluster."""


FPQAInstruction = Union[
    SlmInit,
    AodInit,
    BindAtom,
    Transfer,
    Shuttle,
    ParallelShuttle,
    RamanLocal,
    RamanGlobal,
    RydbergPulse,
]


def instruction_duration_us(
    instruction: FPQAInstruction, hardware: FPQAHardwareParams
) -> float:
    """Wall-clock duration of one instruction on ``hardware``.

    Setup instructions (trap init, binding) happen before the circuit
    clock starts and cost zero; a parallel shuttle costs its longest move.
    """
    if isinstance(instruction, (SlmInit, AodInit, BindAtom)):
        return 0.0
    if isinstance(instruction, Transfer):
        return hardware.transfer_duration_us
    if isinstance(instruction, Shuttle):
        move = instruction.move
        return hardware.shuttle_duration_us(move.offset, loaded=move.loaded)
    if isinstance(instruction, ParallelShuttle):
        if not instruction.moves:
            return 0.0
        return max(
            hardware.shuttle_duration_us(move.offset, loaded=move.loaded)
            for move in instruction.moves
        )
    if isinstance(instruction, RamanLocal):
        return hardware.raman_local_duration_us
    if isinstance(instruction, RamanGlobal):
        return hardware.raman_global_duration_us
    if isinstance(instruction, RydbergPulse):
        return hardware.rydberg_pulse_duration_us
    raise FPQAConstraintError(f"unknown instruction {instruction!r}")
