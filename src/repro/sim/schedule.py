"""Executable schedules: compiled artifacts lowered for the simulator.

A :class:`Schedule` pairs the gate stream to execute with the noise
events the executing hardware would suffer.  Two front ends produce
them:

* :func:`schedule_from_program` replays a compiled wQasm program's FPQA
  annotation stream through the wChecker's pulse-to-gate converter
  (:func:`repro.checker.pulse_to_gate.reconstruct_circuit` semantics),
  so what gets executed is the *compiled artifact* — pulses, shuttles
  and transfers — not the logical circuit it claims to implement.  The
  error events mirror :meth:`repro.devices.FPQACostModel.program_eps`
  term for term: one per Raman pulse, one per Rydberg pulse (rated by
  the largest cluster it drives), one per batch of consecutive
  transfers, per-atom idle dephasing over the program duration, and a
  per-qubit readout term for measured programs.

* :func:`schedule_from_circuit` wraps a gate-level circuit (the
  superconducting path, or any raw workload) with per-gate error rates
  taken from a :class:`~repro.superconducting.backend.SuperconductingBackend`
  calibration when one is supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..checker.pulse_to_gate import PulseToGateConverter
from ..circuits import Instruction, QuantumCircuit
from ..devices.cost import cost_model_for
from ..exceptions import SimulationError
from ..fpqa.hardware import FPQAHardwareParams
from ..fpqa.instructions import (
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Transfer,
)
from ..wqasm.program import WQasmProgram
from .noise import KIND_READOUT, NoiseEvent


@dataclass
class Schedule:
    """A gate stream plus the device noise events attached to it.

    Sampled counts are always full-width computational-basis snapshots
    over all ``num_qubits`` qubits (matching
    :func:`repro.circuits.measurement_distribution` keys); ``measured``
    only controls whether readout-error events exist, and on the
    gate-level path those events attach only to qubits the circuit
    actually measures.
    """

    name: str
    num_qubits: int
    instructions: list[Instruction]
    events: tuple[NoiseEvent, ...] = ()
    duration_us: float | None = None
    measured: bool = False

    def circuit(self) -> QuantumCircuit:
        """The schedule's gate stream as a plain circuit (no noise)."""
        return QuantumCircuit.from_instructions(
            self.num_qubits, self.instructions, name=self.name
        )


def schedule_from_program(
    program: WQasmProgram, hardware: FPQAHardwareParams | None = None
) -> Schedule:
    """Lower a compiled wQasm program into an executable schedule.

    The annotation stream is replayed through the device state machine
    exactly like the wChecker does, so atom positions (and therefore the
    qubits each transfer and pulse touches) are known when each error
    event is created.  Event probabilities replicate the analytic EPS
    accounting exactly: the product of ``1 - p`` over all events equals
    :func:`repro.metrics.fidelity.program_eps` up to float rounding.
    """
    hardware = hardware or FPQAHardwareParams()
    cost = cost_model_for(hardware)
    converter = PulseToGateConverter(program.num_qubits, hardware)
    for instruction in program.setup:
        converter.convert(instruction)

    gates: list[Instruction] = []
    events: list[NoiseEvent] = []
    batch_qubits: list[int] = []  # transfer batch being accumulated
    batch_position = 0
    previous_was_transfer = False

    def flush_transfer_batch() -> None:
        nonlocal batch_qubits
        if batch_qubits:
            events.append(
                NoiseEvent(
                    probability=1.0 - hardware.fidelity_transfer,
                    qubits=tuple(sorted(set(batch_qubits))),
                    position=batch_position,
                    label="transfer",
                )
            )
            batch_qubits = []

    for operation in program.operations:
        largest = max((len(g.qubits) for g in operation.gates), default=0)
        for instruction in operation.instructions:
            is_transfer = isinstance(instruction, Transfer)
            if is_transfer:
                if not previous_was_transfer:
                    flush_transfer_batch()
                    batch_position = len(gates)
                batch_qubits.append(
                    _transfer_qubit(converter, instruction)
                )
            else:
                flush_transfer_batch()
            previous_was_transfer = is_transfer
            gates.extend(converter.convert(instruction))
            if isinstance(instruction, RamanLocal):
                events.append(
                    NoiseEvent(
                        probability=1.0 - hardware.fidelity_raman_local,
                        qubits=(instruction.qubit,),
                        position=len(gates),
                        label="raman_local",
                    )
                )
            elif isinstance(instruction, RamanGlobal):
                events.append(
                    NoiseEvent(
                        probability=1.0 - hardware.fidelity_raman_global,
                        qubits=tuple(sorted(converter.device.qubit_location)),
                        position=len(gates),
                        label="raman_global",
                    )
                )
            elif isinstance(instruction, RydbergPulse) and largest >= 2:
                cluster_qubits = sorted(
                    {
                        q
                        for gate in operation.gates
                        if len(gate.qubits) == largest
                        for q in gate.qubits
                    }
                )
                events.append(
                    NoiseEvent(
                        probability=1.0 - hardware.cluster_fidelity(largest),
                        qubits=tuple(cluster_qubits),
                        position=len(gates),
                        label="rydberg",
                    )
                )
    flush_transfer_batch()

    duration_us = cost.program_duration_us(program)
    p_dephase = -math.expm1(-duration_us / hardware.t2_us)
    if p_dephase > 0:
        for qubit in range(program.num_qubits):
            events.append(
                NoiseEvent(
                    probability=p_dephase,
                    qubits=(qubit,),
                    position=None,  # idle error: position sampled per shot
                    paulis=("z",),
                    label="decoherence",
                )
            )
    if program.measured:
        p_readout = 1.0 - hardware.fidelity_measurement
        if p_readout > 0:
            for qubit in range(program.num_qubits):
                events.append(
                    NoiseEvent(
                        probability=p_readout,
                        kind=KIND_READOUT,
                        qubits=(qubit,),
                        label="measurement",
                    )
                )

    return Schedule(
        name=program.name,
        num_qubits=program.num_qubits,
        instructions=gates,
        events=tuple(events),
        duration_us=duration_us,
        measured=program.measured,
    )


def _transfer_qubit(converter: PulseToGateConverter, instruction: Transfer) -> int:
    """The qubit a transfer moves (resolved before the device mutates).

    Exactly one side of the transfer holds an atom (the Table 1
    pre-condition the device enforces); read it from the replayed
    device's trap occupancy.
    """
    device = converter.device
    index = instruction.slm_index
    if 0 <= index < len(device.slm_atoms):
        qubit = device.slm_atoms[index]
        if qubit is not None:
            return qubit
    qubit = device.aod_atoms.get((instruction.aod_col, instruction.aod_row))
    if qubit is not None:
        return qubit
    raise SimulationError(
        f"transfer at SLM {instruction.slm_index} / AOD "
        f"({instruction.aod_col}, {instruction.aod_row}) moves no atom"
    )


def schedule_from_circuit(
    circuit: QuantumCircuit,
    backend=None,
    name: str | None = None,
) -> Schedule:
    """Lower a gate-level circuit, with optional backend error rates.

    ``backend`` is a
    :class:`~repro.superconducting.backend.SuperconductingBackend` (or
    anything with ``error_1q`` / ``edge_error`` / ``error_readout``);
    ``None`` produces a noiseless schedule.  Idle decoherence is not
    modeled on the gate-level path — there is no pulse-level timing to
    integrate over (documented in the README).
    """
    instructions: list[Instruction] = []
    events: list[NoiseEvent] = []
    measured_qubits: list[int] = []
    for inst in circuit.instructions:
        if inst.name == "measure":
            measured_qubits.extend(inst.qubits)
            continue
        if not inst.gate.is_unitary:
            continue
        instructions.append(inst)
        if backend is None:
            continue
        arity = len(inst.qubits)
        if arity == 1:
            probability = backend.error_1q
        elif arity == 2:
            probability = backend.edge_error(*inst.qubits)
        else:
            # No native >2q gates on this path; rate like a 2q ladder.
            probability = backend.error_2q
        if probability > 0:
            events.append(
                NoiseEvent(
                    probability=probability,
                    qubits=tuple(inst.qubits),
                    position=len(instructions),
                    label="gate_1q" if arity == 1 else "gate_2q",
                )
            )
    if backend is not None and measured_qubits and backend.error_readout > 0:
        for qubit in sorted(set(measured_qubits)):
            events.append(
                NoiseEvent(
                    probability=backend.error_readout,
                    kind=KIND_READOUT,
                    qubits=(qubit,),
                    label="measurement",
                )
            )
    return Schedule(
        name=name or circuit.name,
        num_qubits=circuit.num_qubits,
        instructions=instructions,
        events=tuple(events),
        duration_us=None,
        measured=bool(measured_qubits),
    )
