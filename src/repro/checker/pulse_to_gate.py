"""Pulse-to-gate conversion: simulate annotations, recover logical gates.

This is the first wChecker stage (Figure 9): the FPQA annotation stream is
replayed through the device state machine, so atom positions are known
before each Rydberg pulse; the pulse then converts to the CZ/CCZ gates its
interaction clusters imply, and Raman pulses convert to the single-qubit
rotations their angles specify (§4.2: a local Raman pulse is a single U3).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

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


#: One gate a pulse implies: the gate and the sorted qubits it acts on.
ImpliedGate = tuple[Gate, tuple[int, ...]]

_NO_GATES: tuple[ImpliedGate, ...] = ()


class PulseToGateConverter:
    """Replays FPQA instructions and emits the logical gates they imply."""

    def __init__(
        self, num_qubits: int, hardware: FPQAHardwareParams | None = None
    ) -> None:
        self.num_qubits = num_qubits
        self.device = FPQADevice(hardware)
        # Raman (x, y, z) -> its u3.  Compiled programs draw thousands of
        # pulses from a dozen angle triples, and the conversion is pure.
        self._u3_by_angles: dict[tuple[float, float, float], Gate] = {}
        #: Cluster size -> the C^nZ gate a cluster of that size implies.
        self._cz_by_size: dict[int, Gate] = {}
        device = self.device
        self._check_raman_local = device.handler(RamanLocal)
        self._handlers: dict[type, Callable[[Any], Any]] = {
            RamanLocal: self._raman_local,
            RamanGlobal: self._raman_global,
            RydbergPulse: self._rydberg,
        }
        for kind in (SlmInit, AodInit, BindAtom, Transfer, Shuttle, ParallelShuttle):
            # Setup and movement imply no gates: the device's own handler
            # is the whole step (it returns ``None``).
            self._handlers[kind] = device.handler(kind)

    def _raman_u3(self, pulse: RamanLocal | RamanGlobal) -> Gate:
        angles = (pulse.x, pulse.y, pulse.z)
        gate = self._u3_by_angles.get(angles)
        if gate is None:
            gate = u3_from_matrix(gate_matrix("raman", angles))
            self._u3_by_angles[angles] = gate
        return gate

    def implied(self, instruction: FPQAInstruction) -> Sequence[ImpliedGate]:
        """Apply one instruction; return the ``(gate, qubits)`` it implies.

        Setup and movement instructions imply no gates but mutate the
        simulated device state; pulses imply gates.
        """
        handler = self._handlers.get(type(instruction))
        if handler is None:
            raise VerificationError(f"unknown FPQA instruction {instruction!r}")
        return handler(instruction) or _NO_GATES

    def convert(self, instruction: FPQAInstruction) -> list[Instruction]:
        """:meth:`implied`, as circuit instructions."""
        return [Instruction(gate, qubits) for gate, qubits in self.implied(instruction)]

    def _raman_local(self, pulse: RamanLocal) -> Sequence[ImpliedGate]:
        self._check_raman_local(pulse)
        if not 0 <= pulse.qubit < self.num_qubits:
            raise VerificationError(
                f"Raman pulse addresses qubit {pulse.qubit} outside the program"
            )
        return [(self._raman_u3(pulse), (pulse.qubit,))]

    def _raman_global(self, pulse: RamanGlobal) -> Sequence[ImpliedGate]:
        self.device.apply(pulse)
        gate = self._raman_u3(pulse)
        return [(gate, (qubit,)) for qubit in sorted(self.device.qubit_location)]

    def _rydberg(self, pulse: RydbergPulse) -> Sequence[ImpliedGate]:
        gates: list[ImpliedGate] = []
        for cluster in self.device.resolve_rydberg_clusters():
            gate = self._cz_by_size.get(cluster.size)
            if gate is None:
                name = {2: "cz", 3: "ccz"}.get(cluster.size, "mcz")
                gate = self._cz_by_size[cluster.size] = make_gate(
                    name, num_qubits=cluster.size
                )
            gates.append((gate, tuple(sorted(cluster.qubits))))
        return gates


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
        for gate, qubits in converter.implied(instruction):
            circuit.append(gate, qubits)
    return circuit
