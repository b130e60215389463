"""The three program-cost walks the FPQA cost model ran before its single pass.

``program_duration_us`` and ``program_eps`` are
``FPQACostModel.program_duration_us`` / ``program_eps`` from before they
folded into :meth:`repro.devices.cost.FPQACostModel.program_cost`, moved
out unchanged except for taking the model as an argument instead of
``self``; the pulse count was ``program.total_pulses``.
``test_metrics.py::TestProgramCostDifferential`` checks that the single
pass returns the same three numbers, bit for bit.
"""

from __future__ import annotations

import math

from repro.devices.cost import FPQACostModel
from repro.exceptions import FPQAConstraintError
from repro.fpqa.instructions import (
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
from repro.wqasm.program import WQasmProgram


def program_duration_us(model: FPQACostModel, program: WQasmProgram) -> float:
    total = 0.0
    previous_was_transfer = False
    for instruction in program.fpqa_instructions():
        if isinstance(instruction, Transfer):
            if not previous_was_transfer:
                total += model.transfer_us
            previous_was_transfer = True
            continue
        previous_was_transfer = False
        if isinstance(instruction, RamanLocal):
            total += model.raman_local_us
        elif isinstance(instruction, RamanGlobal):
            total += model.raman_global_us
        elif isinstance(instruction, RydbergPulse):
            total += model.rydberg_us
        elif isinstance(instruction, Shuttle):
            move = instruction.move
            total += model.shuttle_us(move.offset, loaded=move.loaded)
        elif isinstance(instruction, ParallelShuttle):
            if instruction.moves:
                total += max(
                    model.shuttle_us(move.offset, loaded=move.loaded)
                    for move in instruction.moves
                )
        elif isinstance(instruction, (SlmInit, AodInit, BindAtom)):
            pass  # setup happens before the circuit clock starts
        else:
            raise FPQAConstraintError(f"unknown instruction {instruction!r}")
    if program.measured:
        total += model.measurement_us
    return total


def program_eps(
    model: FPQACostModel, program: WQasmProgram, duration_us: float | None = None
) -> float:
    log_eps = 0.0
    previous_was_transfer = False
    for operation in program.operations:
        for instruction in operation.instructions:
            is_transfer = isinstance(instruction, Transfer)
            if is_transfer and not previous_was_transfer:
                log_eps += model.log_transfer
            previous_was_transfer = is_transfer
            if isinstance(instruction, RamanLocal):
                log_eps += model.log_raman_local
            elif isinstance(instruction, RamanGlobal):
                log_eps += model.log_raman_global
            elif isinstance(instruction, RydbergPulse):
                largest = max(
                    (len(gate.qubits) for gate in operation.gates), default=0
                )
                if largest >= 2:
                    log_eps += model.cluster_log_fidelity(largest)
    if duration_us is None:
        duration_us = program_duration_us(model, program)
    log_eps += -duration_us * program.num_qubits * model._inv_t2
    if program.measured:
        log_eps += program.num_qubits * model.log_measurement
    return math.exp(log_eps)


def program_cost(model: FPQACostModel, program: WQasmProgram) -> tuple[int, float, float]:
    """``(total_pulses, duration_us, eps)`` by the three separate walks."""
    pulses = program.total_pulses
    duration_us = program_duration_us(model, program)
    return pulses, duration_us, program_eps(model, program, duration_us)
