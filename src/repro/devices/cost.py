"""Noise-aware cost models precomputed once per device.

The seed metrics walked every program instruction calling
``math.log(hardware.fidelity_*)`` and rebuilding derived geometry for
every compilation, so a sweep over N programs on one device paid the
same per-device work N times.  :class:`FPQACostModel` hoists everything
that depends only on the hardware — log-fidelity terms, per-instruction
durations, the cluster-fidelity table, the zone geometry — into one
object built once per device profile; :func:`cost_model_for` memoizes it
per hardware configuration, so :mod:`repro.metrics` and every target get
the fast path transparently.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from ..exceptions import FPQAConstraintError
from ..fpqa.hardware import FPQAHardwareParams
from ..fpqa.instructions import (
    AodInit,
    BindAtom,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    SlmInit,
    Transfer,
)
from ..wqasm.program import AnnotatedOperation, WQasmProgram

#: Cluster sizes whose log-fidelity is table-driven; larger clusters fall
#: back to the multiplicative-degradation formula (they never occur in
#: compiled programs, which cap at CCZ).
_CLUSTER_TABLE_SIZE = 8


class ProgramCost(NamedTuple):
    """What one walk of a program derives (:meth:`FPQACostModel.program_cost`)."""

    total_pulses: int
    duration_us: float
    eps: float


class FPQACostModel:
    """Per-device timing and error tables for FPQA program evaluation.

    Construction resolves every hardware-derived constant once; the one
    program walk behind ``program_cost``, ``program_duration_us`` and
    ``program_eps`` then touches only plain float attributes and type
    checks.
    """

    def __init__(self, hardware: FPQAHardwareParams):
        self.hardware = hardware
        # Durations ----------------------------------------------------
        self.raman_local_us = hardware.raman_local_duration_us
        self.raman_global_us = hardware.raman_global_duration_us
        self.rydberg_us = hardware.rydberg_pulse_duration_us
        self.transfer_us = hardware.transfer_duration_us
        self.measurement_us = hardware.measurement_duration_us
        self.settle_us = hardware.shuttle_settle_us
        # Loaded moves: t = 2 sqrt(d/a) + settle; precompute 2/sqrt(a).
        self._loaded_scale = 2.0 / math.sqrt(hardware.aod_acceleration_um_per_us2)
        self._empty_inv_speed = 1.0 / hardware.aod_empty_speed_um_per_us
        # Error terms --------------------------------------------------
        self.log_raman_local = math.log(hardware.fidelity_raman_local)
        self.log_raman_global = math.log(hardware.fidelity_raman_global)
        self.log_transfer = math.log(hardware.fidelity_transfer)
        self.log_measurement = math.log(hardware.fidelity_measurement)
        self._cluster_log = tuple(
            math.log(hardware.cluster_fidelity(size)) if size >= 2 else 0.0
            for size in range(_CLUSTER_TABLE_SIZE + 1)
        )
        self._inv_t2 = 1.0 / hardware.t2_us

    # ------------------------------------------------------------------
    @functools.cached_property
    def geometry(self):
        """The device's derived zone-placement constants (cached)."""
        from ..fpqa.geometry import zone_layout

        return zone_layout(self.hardware)

    def cluster_log_fidelity(self, size: int) -> float:
        if size <= _CLUSTER_TABLE_SIZE:
            return self._cluster_log[size]
        return math.log(self.hardware.cluster_fidelity(size))

    def shuttle_us(self, distance_um: float, loaded: bool = True) -> float:
        if loaded:
            return self._loaded_scale * math.sqrt(abs(distance_um)) + self.settle_us
        return abs(distance_um) * self._empty_inv_speed + self.settle_us

    # ------------------------------------------------------------------
    # Program evaluation (the semantics of repro.metrics, table-driven)
    # ------------------------------------------------------------------
    def program_cost(self, program: WQasmProgram) -> ProgramCost:
        """Pulse count, duration and EPS of ``program`` in one walk.

        The three numbers equal ``program.total_pulses``,
        :meth:`program_duration_us` and :meth:`program_eps`, bit for bit.
        """
        pulses, duration_us, log_eps = self._walk(program)
        return ProgramCost(pulses, duration_us, self._eps(program, log_eps, duration_us))

    def program_duration_us(self, program: WQasmProgram) -> float:
        """Total wall-clock duration in microseconds (paper §8.3).

        Strictly sequential sum over instructions; consecutive transfers
        batch into one window, a parallel shuttle costs its longest move,
        and measured programs end with one readout.
        """
        return self._walk(program)[1]

    def program_eps(
        self, program: WQasmProgram, duration_us: float | None = None
    ) -> float:
        """Estimated probability of one fully-correct execution (§8.4).

        Per-pulse error accumulation: one term per Raman pulse (global
        pulses count once), one per Rydberg pulse rated by the largest
        cluster it drove, one per batch of consecutive transfers, plus
        idle decoherence over the program duration and a readout term for
        measured programs.
        """
        if duration_us is None:
            _, duration_us, log_eps = self._walk(program)
        else:
            log_eps = self._walk(program, timed=False)[2]
        return self._eps(program, log_eps, duration_us)

    def _eps(self, program: WQasmProgram, log_eps: float, duration_us: float) -> float:
        """EPS from the pulse log-fidelity sum and the program duration."""
        log_eps += -duration_us * program.num_qubits * self._inv_t2
        if program.measured:
            log_eps += program.num_qubits * self.log_measurement
        return math.exp(log_eps)

    def _walk(
        self, program: WQasmProgram, timed: bool = True
    ) -> tuple[int, float, float]:
        """``(pulses, duration_us, pulse log-fidelity)``, each summed in
        instruction order; with ``timed`` false the duration leaves out
        the shuttles (their moves are the costly part of the walk).

        The duration and the pulse count read the setup too, while the
        error terms come from the operations alone: the setup goes first
        as an operation without gates, and its error terms are dropped.
        Shuttles count as elementary moves, so a parallel batch counts
        each of its moves as one pulse.  Instructions dispatch on their
        exact type; a subclass of an instruction kind takes its base's
        branch through :func:`_kind_of`.
        """
        transfer_us, log_transfer = self.transfer_us, self.log_transfer
        raman_local_us, log_raman_local = self.raman_local_us, self.log_raman_local
        loaded_scale, empty_inv_speed = self._loaded_scale, self._empty_inv_speed
        settle_us, sqrt = self.settle_us, math.sqrt
        pulses = 0
        duration_us = 0.0
        log_eps = 0.0
        # Consecutive transfers cost one window and one error term; the
        # duration's batch runs on from the setup, the error terms' not.
        timed_transfer = rated_transfer = False
        setup = AnnotatedOperation(program.setup)
        for operation in (setup, *program.operations):
            for instruction in operation.instructions:
                kind = type(instruction)
                if kind not in _KINDS:
                    kind = _kind_of(instruction)
                if kind is Transfer:
                    pulses += 1
                    if not timed_transfer:
                        duration_us += transfer_us
                    if not rated_transfer:
                        log_eps += log_transfer
                    timed_transfer = rated_transfer = True
                    continue
                timed_transfer = rated_transfer = False
                if kind is RamanLocal:
                    pulses += 1
                    duration_us += raman_local_us
                    log_eps += log_raman_local
                elif kind is Shuttle or kind is ParallelShuttle:
                    moves = (instruction.move,) if kind is Shuttle else instruction.moves
                    pulses += len(moves)
                    if timed and moves:
                        # shuttle_us, inline: the same float operations.
                        duration_us += max(
                            [
                                loaded_scale * sqrt(abs(move.offset)) + settle_us
                                if move.loaded
                                else abs(move.offset) * empty_inv_speed + settle_us
                                for move in moves
                            ]
                        )
                elif kind is RydbergPulse:
                    pulses += 1
                    duration_us += self.rydberg_us
                    largest = max(
                        [len(gate.qubits) for gate in operation.gates], default=0
                    )
                    if largest >= 2:
                        log_eps += self.cluster_log_fidelity(largest)
                elif kind is RamanGlobal:
                    pulses += 1
                    duration_us += self.raman_global_us
                    log_eps += self.log_raman_global
                # SlmInit, AodInit, BindAtom: setup happens before the
                # circuit clock starts.
            if operation is setup:
                log_eps = 0.0
                rated_transfer = False
        if program.measured:
            duration_us += self.measurement_us
        return pulses, duration_us, log_eps


#: The instruction kinds :meth:`FPQACostModel._walk` dispatches on.
_KINDS = frozenset(
    (Transfer, RamanLocal, Shuttle, ParallelShuttle, RydbergPulse, RamanGlobal,
     SlmInit, AodInit, BindAtom)
)


def _kind_of(instruction) -> type:
    """The instruction kind ``instruction`` is an instance of."""
    for kind in _KINDS:
        if isinstance(instruction, kind):
            return kind
    raise FPQAConstraintError(f"unknown instruction {instruction!r}")


@functools.lru_cache(maxsize=64)
def cost_model_for(hardware: FPQAHardwareParams) -> FPQACostModel:
    """The shared :class:`FPQACostModel` of a hardware configuration.

    :class:`FPQAHardwareParams` is frozen and hashable, so equal
    configurations — every compilation against the same device profile —
    share one precomputed model.
    """
    return FPQACostModel(hardware)
