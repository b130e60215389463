"""Pulse-to-gate conversion: simulate annotations, recover logical gates.

This is the first wChecker stage (Figure 9): the FPQA annotation stream is
replayed through the device state machine, so atom positions are known
before each Rydberg pulse; the pulse then converts to the CZ/CCZ gates its
interaction clusters imply, and Raman pulses convert to the single-qubit
rotations their angles specify (§4.2: a local Raman pulse is a single U3).
"""

from __future__ import annotations

from ..circuits import Instruction, QuantumCircuit
from ..circuits.gates import Gate, gate_matrix, make_gate, u3_from_matrix
from ..exceptions import VerificationError
from ..fpqa.device import FPQADevice
from ..fpqa.hardware import FPQAHardwareParams
from ..fpqa.instructions import (
    AodInit,
    BindAtom,
    FPQAInstruction,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    SlmInit,
    Transfer,
)
from ..wqasm.program import WQasmProgram


class PulseToGateConverter:
    """Replays FPQA instructions and emits the logical gates they imply."""

    def __init__(self, num_qubits: int, hardware: FPQAHardwareParams | None = None):
        self.num_qubits = num_qubits
        self.device = FPQADevice(hardware)
        # Raman (x, y, z) -> its u3.  Compiled programs draw thousands of
        # pulses from a dozen angle triples, and the conversion is pure.
        self._u3_by_angles: dict[tuple[float, float, float], Gate] = {}

    def _raman_u3(self, pulse: RamanLocal | RamanGlobal) -> Gate:
        angles = (pulse.x, pulse.y, pulse.z)
        gate = self._u3_by_angles.get(angles)
        if gate is None:
            gate = u3_from_matrix(gate_matrix("raman", angles))
            self._u3_by_angles[angles] = gate
        return gate

    def convert(self, instruction: FPQAInstruction) -> list[Instruction]:
        """Apply one instruction; return the logical gates it produces.

        Setup and movement instructions produce no gates but mutate the
        simulated device state; pulses produce gates.
        """
        if isinstance(instruction, RamanLocal):
            self.device.apply(instruction)
            if not 0 <= instruction.qubit < self.num_qubits:
                raise VerificationError(
                    f"Raman pulse addresses qubit {instruction.qubit} outside the program"
                )
            return [Instruction(self._raman_u3(instruction), (instruction.qubit,))]
        if isinstance(instruction, RamanGlobal):
            self.device.apply(instruction)
            gate = self._raman_u3(instruction)
            return [
                Instruction(gate, (qubit,)) for qubit in sorted(self.device.qubit_location)
            ]
        if isinstance(instruction, RydbergPulse):
            clusters = self.device.apply(instruction)
            gates = []
            for cluster in clusters:
                name = (
                    "cz"
                    if cluster.size == 2
                    else ("ccz" if cluster.size == 3 else "mcz")
                )
                gates.append(
                    Instruction(
                        make_gate(name, num_qubits=cluster.size),
                        tuple(sorted(cluster.qubits)),
                    )
                )
            return gates
        if isinstance(
            instruction, (SlmInit, AodInit, BindAtom, Transfer, Shuttle, ParallelShuttle)
        ):
            self.device.apply(instruction)
            return []
        raise VerificationError(f"unknown FPQA instruction {instruction!r}")


def reconstruct_circuit(
    program: WQasmProgram, hardware: FPQAHardwareParams | None = None
) -> QuantumCircuit:
    """Full pulse-to-gate conversion of a program's annotation stream.

    The output circuit is derived *only* from the FPQA instructions — the
    program's logical gate statements are deliberately ignored, so that
    comparing the two catches any miscompilation.
    """
    converter = PulseToGateConverter(program.num_qubits, hardware)
    circuit = QuantumCircuit(program.num_qubits, name=f"{program.name}-reconstructed")
    for instruction in program.fpqa_instructions():
        for gate in converter.convert(instruction):
            circuit.append(gate.gate, gate.qubits)
    return circuit
