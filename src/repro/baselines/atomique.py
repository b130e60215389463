"""Atomique-like baseline compiler [102].

Atomique compiles to reconfigurable atom arrays with two key traits the
paper contrasts against Weaver: (1) a SABRE-derived qubit mapping stage —
the source of its O(N^3) complexity (Table 2) — and (2) *movement-based*
routing: instead of SWAP gates, non-adjacent interactions are served by
physically moving AOD-held atoms, and (3) no use of native 3-qubit gates,
so every clause costs its full CNOT-ladder in CZ pulses.

We reproduce that structure: the QAOA circuit is nativized to {U3, CZ},
SABRE maps/routes it onto a square atom grid, and every SWAP the router
would insert is reinterpreted as an atom move (costing movement time but
no gate error).  Metrics follow the paper's models: execution time from
dependency-layer scheduling with FPQA pulse/move durations, EPS from pulse
fidelities and idle decoherence.
"""

from __future__ import annotations

import math
import time

from ..circuits import dependency_layers
from ..fpqa.hardware import FPQAHardwareParams
from ..passes.native_synthesis import nativize_circuit
from ..qaoa.builder import QaoaParameters
from ..superconducting.coupling import grid_coupling
from ..superconducting.sabre import SabreRouter
from ..targets.base import (
    CAP_FORMULA,
    Deadline,
    Target,
    measured_qaoa,
    reject_unknown_options,
)
from ..targets.result import CompilationResult
from ..targets.workload import Workload


class AtomiqueTarget(Target):
    name = "atomique"
    description = "fixed atom array, SABRE mapping, movement-based routing"
    capabilities = frozenset({CAP_FORMULA})
    default_pipeline = ("qaoa-lowering", "nativize", "sabre-routing", "scheduling")

    def __init__(
        self, hardware: FPQAHardwareParams | None = None, seed: int = 0, **unknown
    ):
        reject_unknown_options(self.name, unknown)
        self.hardware = hardware or FPQAHardwareParams()
        self.seed = seed
        #: Grid pitch of the fixed atom array (Atomique uses generous
        #: spacing so resting atoms never interact).
        self.grid_pitch_um = 20.0

    def run(
        self,
        workload: Workload,
        parameters: QaoaParameters | None,
        deadline: Deadline | None,
        measure: bool = True,
        **options,
    ) -> CompilationResult:
        start = time.perf_counter()
        formula, circuit = measured_qaoa(
            self.name, workload, parameters, measure, options
        )
        # Atomique's pipeline compiles the raw gate stream (no U3 fusion).
        native = nativize_circuit(circuit, fuse=False)
        side = math.isqrt(formula.num_vars)
        if side * side < formula.num_vars:
            side += 1
        coupling = grid_coupling(side, side)
        router = SabreRouter(coupling, seed=self.seed)
        routing = router.route(native)
        if deadline is not None:
            deadline.check()
        routed = routing.circuit
        counts = {"1q": 0, "cz": 0, "move": 0, "measure": 0}
        for inst in routed.instructions:
            if inst.name == "barrier":
                continue
            if inst.name == "measure":
                counts["measure"] += 1
            elif inst.name == "swap":
                counts["move"] += 1  # an array rearrangement, not a gate
            elif len(inst.qubits) == 2:
                counts["cz"] += 1
            else:
                counts["1q"] += 1

        cz_pulses = sum(
            1
            for layer in dependency_layers(routed)
            if any(inst.name == "cz" for inst in layer)
        )
        duration_us = self._execution_time_us(routed, side)
        eps = self._eps(counts, cz_pulses, duration_us, formula.num_vars)
        elapsed = time.perf_counter() - start
        num_pulses = counts["1q"] + counts["cz"] + counts["move"]
        return CompilationResult(
            target=self.name,
            workload=workload.name,
            num_qubits=formula.num_vars,
            num_clauses=formula.num_clauses,
            compile_seconds=elapsed,
            execution_seconds=duration_us * 1e-6,
            eps=eps,
            num_pulses=num_pulses,
            stats={"counts": counts, "moves": routing.num_swaps},
        )

    def _rearrangement_us(self, side: int) -> float:
        """Duration of one AOD array rearrangement.

        Atomique moves whole AOD rows/columns over the static array to
        re-align interacting pairs; a rearrangement travels on the order of
        half the array width.  Atoms stay in their AOD traps, so no trap
        transfer is involved.
        """
        travel_um = 0.5 * side * self.grid_pitch_um
        return self.hardware.shuttle_duration_us(travel_um, loaded=True)

    def _execution_time_us(self, routed, side: int) -> float:
        """ASAP layer scheduling with FPQA durations; moves dominate."""
        hw = self.hardware
        move_us = self._rearrangement_us(side)
        total = 0.0
        for layer in dependency_layers(routed):
            slowest = 0.0
            for inst in layer:
                if inst.name == "measure":
                    continue  # single global readout added below
                if inst.name == "swap":
                    dur = move_us
                elif len(inst.qubits) == 2:
                    dur = hw.rydberg_pulse_duration_us
                else:
                    dur = hw.raman_local_duration_us
                slowest = max(slowest, dur)
            total += slowest
        return total + hw.measurement_duration_us

    def _eps(
        self, counts: dict[str, int], cz_pulses: int, duration_us: float, num_vars: int
    ) -> float:
        """Per-pulse error accumulation (§8.4).

        CZ gates scheduled in the same dependency layer share one global
        Rydberg pulse; single-qubit gates are individually addressed Raman
        pulses; atoms enter/leave the AOD only at the array boundary.
        """
        hw = self.hardware
        log_eps = (
            counts["1q"] * math.log(hw.fidelity_raman_local)
            + cz_pulses * math.log(hw.fidelity_cz)
            + 2 * num_vars * math.log(hw.fidelity_transfer)
            + num_vars * math.log(hw.fidelity_measurement)
        )
        log_eps += -duration_us * num_vars / hw.t2_us
        return math.exp(log_eps)
