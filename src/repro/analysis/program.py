"""The pulse-IR dataflow pass: one linear walk over a wQasm program.

This is the static counterpart of the wChecker's dynamic replay.  Where
the checker reconstructs unitaries per operation (the paper's O(N^2 M)
layer), this pass replays the instruction stream once through the one
FPQA machine model, :class:`~repro.fpqa.device.FPQADevice`, in report
mode: each Table-1 violation the device finds becomes a diagnostic at
the current source location, and the device recovers so the walk goes
on.  On top of that replay it checks, per operation, that the
*recorded* logical gates are consistent with what the pulse would
physically do:

* Raman pulses must rotate exactly the qubits their recorded gates name,
  by the same unitary (compared up to global phase, memoized per unique
  angle/gate pair — compiled programs reuse a handful of rotations);
* Rydberg pulses must entangle exactly the clusters the device resolves
  for the current atom positions, with gate names matching cluster arity;
* occupancy, shuttle-order, and liveness invariants hold throughout.

The pass never simulates state vectors or reconstructs circuits, so
``weaver lint`` costs about as much as the wChecker on programs too wide
for its equivalence layers, and far less than a warm compile.
"""

from __future__ import annotations

from ..circuits.gates import gate_matrix
from ..exceptions import FPQAConstraintError
from ..fpqa.device import FPQADevice
from ..fpqa.hardware import FPQAHardwareParams
from ..fpqa.instructions import BindAtom, RamanGlobal, RamanLocal, RydbergPulse
from ..wqasm.program import AnnotatedOperation, WQasmProgram
from . import registry as R
from .diagnostics import Sink, SourceLocation

#: Rule families exercised by this pass (stamped into ``rules_run``).
PROGRAM_RULES = (
    R.LAYER_UNINITIALIZED, R.LAYER_REINITIALIZED, R.TRAP_SPACING,
    R.SHUTTLE_RANGE, R.SHUTTLE_ORDER, R.SHUTTLE_CONFLICT,
    R.DOUBLE_BIND, R.BIND_OCCUPIED, R.BIND_RANGE,
    R.TRANSFER_INVALID, R.TRANSFER_RANGE, R.TRANSFER_DISTANCE,
    R.READOUT_ORPHAN, R.RAMAN_UNBOUND,
    R.QUBIT_NEVER_BOUND, R.QUBIT_UNCOVERED, R.GATE_QUBIT_RANGE,
    R.CLUSTER_MISMATCH, R.CLUSTER_ARITY, R.CLUSTER_EQUIDISTANCE,
    R.RAMAN_GATE_MISMATCH, R.PULSE_GATE_ORPHAN,
)

_EXPECTED_CLUSTER_GATE = {2: "cz", 3: "ccz"}

_PULSE_TYPES = frozenset((RamanLocal, RamanGlobal, RydbergPulse))

#: The wChecker's gate-matching tolerances: ``WChecker(atol=1e-7)`` on the
#: entries, and :func:`repro.linalg.global_phase_between`'s 1e-6 on the
#: magnitude of the phase.
_CHECKER_ATOL = 1e-7
_CHECKER_PHASE_TOL = 1e-6


def _raman_matches_gate(x: float, y: float, z: float, gate) -> bool:
    """Whether Rz(z)Ry(y)Rx(x) equals ``gate``'s unitary up to global phase.

    Uses the wChecker's tolerances: near gimbal lock the extracted angles
    put |phase| ~1e-8 from 1, which the checker accepts, so lint must too.
    """
    if gate.num_qubits != 1:
        return False
    pulse = gate_matrix("raman", (x, y, z))
    try:
        recorded = gate.matrix()
    except Exception:  # noqa: BLE001 — malformed gate = mismatch, not crash
        return False
    # Global-phase-insensitive comparison: align on the largest pulse entry.
    anchor = max(range(4), key=lambda i: abs(pulse.flat[i]))
    ref = recorded.flat[anchor]
    if abs(ref) <= 1e-12:
        return False
    phase = pulse.flat[anchor] / ref
    return bool(abs(abs(phase) - 1.0) <= _CHECKER_PHASE_TOL) and all(
        abs(pulse.flat[i] - phase * recorded.flat[i]) < _CHECKER_ATOL for i in range(4)
    )


class ProgramAnalyzer:
    """Single-pass abstract interpretation of one wQasm program."""

    def __init__(
        self,
        program: WQasmProgram,
        hardware: FPQAHardwareParams | None,
        sink: Sink,
    ):
        self.program = program
        self.hardware = hardware or FPQAHardwareParams()
        self.sink = sink
        self.device = FPQADevice(self.hardware, sink=self._on_violation)
        #: Current stream position; a SourceLocation is only materialized
        #: when a finding actually fires (the clean path is hot).
        self.op_index = -1
        self.instr_index: int | None = None
        #: Qubits ever bound (liveness), including ones whose bind failed.
        self.ever_bound: set[int] = set()
        self.covered: set[int] = set()
        self.instructions_scanned = 0
        # (x, y, z, gate) -> _raman_matches_gate.  Compiled programs draw
        # their rotations from a small set (the wOptimizer's own Raman
        # caches), so this stays tiny; it lives and dies with one run.
        self._raman_matches: dict[tuple, bool] = {}

    def report(
        self,
        rule: R.LintRule,
        message: str,
        qubits: tuple[int, ...] = (),
        location: SourceLocation | None = None,
    ) -> None:
        """One finding, by default at the current stream position."""
        if location is None:
            location = SourceLocation(
                operation=self.op_index, instruction=self.instr_index
            )
        self.sink(rule.diagnostic(message, location=location, qubits=qubits))

    def _on_violation(self, error: FPQAConstraintError) -> None:
        """The device's sink: one Table-1 violation -> one diagnostic."""
        assert error.code is not None  # every device check carries its rule
        self.report(R.get_rule(error.code), str(error), error.qubits)

    # ------------------------------------------------------------------
    def run(self) -> dict:
        apply = self.device.apply
        for index, instruction in enumerate(self.program.setup):
            self.instr_index = index
            if type(instruction) is BindAtom:
                self.ever_bound.add(instruction.qubit)
            apply(instruction)
            self.instructions_scanned += 1
        for op_index, operation in enumerate(self.program.operations):
            self._walk_operation(op_index, operation)
        self._finalize()
        return {
            "cluster_resolutions": self.device.cluster_resolutions,
            "qubits_covered": len(self.covered),
        }

    # ------------------------------------------------------------------
    def _walk_operation(self, op_index: int, operation: AnnotatedOperation) -> None:
        self.op_index = op_index
        apply = self.device.apply
        is_pulse = _PULSE_TYPES.__contains__
        pulses: list[tuple[int, object]] = []
        index = -1
        for instruction in operation.instructions:
            index += 1
            self.instr_index = index
            kind = type(instruction)
            # A Rydberg pulse changes no state (its clusters are resolved
            # in the agreement check below), so it skips the device.
            if is_pulse(kind):
                if kind is not RydbergPulse:
                    apply(instruction)
                pulses.append((index, instruction))
            else:
                if type(instruction) is BindAtom:
                    self.ever_bound.add(instruction.qubit)
                apply(instruction)
        self.instructions_scanned += index + 1

        covered = self.covered
        for gate in operation.gates:
            covered.update(gate.qubits)

        if not pulses:
            if operation.gates:
                names = ", ".join(g.name for g in operation.gates[:4])
                self.report(
                    R.PULSE_GATE_ORPHAN,
                    f"operation records gate(s) {names} but contains no pulse",
                    location=SourceLocation(operation=op_index),
                )
            return
        if len(pulses) > 1:
            # Hand-written programs may batch several pulses under one
            # statement; the gate association is ambiguous, so the
            # agreement check conservatively stands down.
            return
        # The agreement checks report at the pulse.
        self.instr_index, pulse = pulses[0]
        if isinstance(pulse, RamanLocal):
            self._check_raman_local(pulse, operation)
        elif isinstance(pulse, RamanGlobal):
            self._check_raman_global(pulse, operation)
        else:
            self._check_rydberg(operation)

    # ------------------------------------------------------------------
    def _raman_implements(self, pulse, gate) -> bool:
        key = (pulse.x, pulse.y, pulse.z, gate)
        ok = self._raman_matches.get(key)
        if ok is None:
            ok = _raman_matches_gate(pulse.x, pulse.y, pulse.z, gate)
            self._raman_matches[key] = ok
        return ok

    def _check_raman_local(self, pulse, operation) -> None:
        gates = operation.gates
        if len(gates) != 1 or gates[0].qubits != (pulse.qubit,):
            recorded = [f"{g.name}{list(g.qubits)}" for g in gates] or ["nothing"]
            self.report(
                R.PULSE_GATE_ORPHAN,
                f"@raman local on qubit {pulse.qubit} records "
                f"{', '.join(recorded)}; expected exactly one gate on that qubit",
                qubits=(pulse.qubit,),
            )
            return
        if not self._raman_implements(pulse, gates[0].gate):
            self.report(
                R.RAMAN_GATE_MISMATCH,
                f"@raman local ({pulse.x:.4f}, {pulse.y:.4f}, {pulse.z:.4f}) "
                f"does not implement the recorded {gates[0].name} gate on "
                f"qubit {pulse.qubit}",
                qubits=(pulse.qubit,),
            )

    def _check_raman_global(self, pulse, operation) -> None:
        bound = set(self.device.qubit_location)
        recorded: set[int] = set()
        for gate in operation.gates:
            recorded.update(gate.qubits)
            if gate.gate.num_qubits != 1:
                self.report(
                    R.PULSE_GATE_ORPHAN,
                    f"@raman global records multi-qubit gate {gate.name}",
                )
                return
        if recorded != bound:
            missing = sorted(bound - recorded)
            extra = sorted(recorded - bound)
            self.report(
                R.PULSE_GATE_ORPHAN,
                "@raman global drives every bound atom, but the recorded "
                f"gates disagree (unrecorded qubits {missing}, "
                f"recorded-but-unbound {extra})",
                qubits=tuple(missing + extra),
            )
        checked: set = set()
        for gate in operation.gates:
            key = (gate.name, gate.params)
            if key in checked:
                continue
            checked.add(key)
            if not self._raman_implements(pulse, gate.gate):
                self.report(
                    R.RAMAN_GATE_MISMATCH,
                    f"@raman global ({pulse.x:.4f}, {pulse.y:.4f}, {pulse.z:.4f}) "
                    f"does not implement the recorded {gate.name} gate",
                )
                return

    def _check_rydberg(self, operation) -> None:
        # The device reports each non-equidistant cluster (WL042) here.
        implied = {
            frozenset(cluster.qubits): cluster.size
            for cluster in self.device.resolve_rydberg_clusters()
        }
        recorded: dict[frozenset[int], str] = {}
        for gate in operation.gates:
            recorded[frozenset(gate.qubits)] = gate.name
        for group in recorded.keys() - implied.keys():
            self.report(
                R.CLUSTER_MISMATCH,
                f"recorded entangling gate on qubits {sorted(group)} but the "
                "atom positions imply no such interaction cluster",
                qubits=tuple(sorted(group)),
            )
        for group in implied.keys() - recorded.keys():
            self.report(
                R.CLUSTER_MISMATCH,
                f"atom positions imply an interaction cluster on qubits "
                f"{sorted(group)} with no recorded gate",
                qubits=tuple(sorted(group)),
            )
        for group, name in recorded.items():
            size = implied.get(group)
            if size is None:
                continue
            expected = _EXPECTED_CLUSTER_GATE.get(size, "mcz")
            if name != expected:
                self.report(
                    R.CLUSTER_ARITY,
                    f"cluster of {size} atoms on qubits {sorted(group)} must "
                    f"record {expected}, found {name}",
                    qubits=tuple(sorted(group)),
                )

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        program_location = SourceLocation()
        for qubit in sorted(self.covered):
            if not 0 <= qubit < self.program.num_qubits:
                self.report(
                    R.GATE_QUBIT_RANGE,
                    f"recorded gates reference qubit {qubit} outside the "
                    f"{self.program.num_qubits}-qubit register",
                    qubits=(qubit,),
                    location=program_location,
                )
        for qubit in range(self.program.num_qubits):
            if qubit not in self.ever_bound:
                self.report(
                    R.QUBIT_NEVER_BOUND,
                    f"logical qubit {qubit} is never bound to an atom",
                    qubits=(qubit,),
                    location=program_location,
                )
            elif qubit not in self.covered:
                self.report(
                    R.QUBIT_UNCOVERED,
                    f"qubit {qubit} is bound but never driven by a recorded gate",
                    qubits=(qubit,),
                    location=program_location,
                )
        if self.program.measured and self.device.aod_atoms:
            orphans = tuple(sorted(self.device.aod_atoms.values()))
            self.report(
                R.READOUT_ORPHAN,
                f"measured program ends with qubit(s) {list(orphans)} still "
                "held in the AOD layer; readout happens in the SLM plane",
                qubits=orphans,
                location=program_location,
            )
