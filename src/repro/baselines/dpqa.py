"""DPQA-like baseline compiler [94].

DPQA ("Dynamically Field-Programmable Qubit Arrays", Tan et al. 2024)
compiles by *solving* the scheduling problem: an SMT solver assigns 2-qubit
gates to Rydberg stages and atoms to AOD positions, minimizing stages.
Solver-based compilation is exponential in the gate count (Table 2:
O(2^K)): it produces excellent schedules on small instances — few pulses,
heavy atom movement — and blows through any time budget on larger ones
(the paper's DPQA needed ~15 h for ten 20-variable instances and timed out
beyond that).

The re-implementation keeps the solver character without an SMT engine:
gates are scheduled stage by stage, and each stage is chosen as an exact
*maximum independent set* of the current front layer's conflict graph,
found by branch-and-bound.  Exact MIS is exponential in the front-layer
width, which grows with the variable count — so the compiler genuinely
completes at 20 variables and genuinely explodes on larger inputs, under
a cooperative deadline.
"""

from __future__ import annotations

import math
import time

from ..circuits import QuantumCircuit
from ..fpqa.hardware import FPQAHardwareParams
from ..passes.native_synthesis import nativize_circuit
from ..qaoa.builder import QaoaParameters
from ..targets.base import (
    CAP_FORMULA,
    Deadline,
    Target,
    measured_qaoa,
    reject_unknown_options,
)
from ..targets.result import CompilationResult
from ..targets.workload import Workload


def _greedy_independent_set(
    adjacency: dict[int, set[int]], nodes: list[int]
) -> list[int]:
    """Min-degree greedy MIS used to warm-start the exact search."""
    chosen: list[int] = []
    candidates = set(nodes)
    while candidates:
        node = min(candidates, key=lambda n: len(adjacency[n] & candidates))
        chosen.append(node)
        candidates -= adjacency[node]
        candidates.discard(node)
    return chosen


def _max_independent_set(
    adjacency: dict[int, set[int]],
    nodes: list[int],
    qubits_of: dict[int, tuple[int, int]],
    deadline: Deadline | None,
) -> list[int]:
    """Exact maximum independent set via branch-and-bound.

    Branches on the highest-degree node (include/exclude), pruned by the
    qubit-capacity bound: an independent set of gate nodes occupies two
    distinct qubits per gate, so at most ``distinct_qubits // 2`` more
    gates can join.  A greedy solution warm-starts the incumbent.  Still
    worst-case exponential in the node count — that is the point (see
    module docstring).
    """
    best = _greedy_independent_set(adjacency, nodes)
    calls = 0

    def qubit_bound(candidates: list[int]) -> int:
        qubits: set[int] = set()
        for node in candidates:
            qubits.update(qubits_of[node])
        return len(qubits) // 2

    def recurse(candidates: list[int], chosen: list[int]) -> None:
        nonlocal best, calls
        calls += 1
        if deadline is not None and calls % 256 == 0:
            deadline.check()
        if not candidates:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + qubit_bound(candidates) <= len(best):
            return
        pivot = max(candidates, key=lambda n: len(adjacency[n] & set(candidates)))
        # Branch 1: include the pivot.
        remaining = [n for n in candidates if n != pivot and n not in adjacency[pivot]]
        recurse(remaining, chosen + [pivot])
        # Branch 2: exclude the pivot.
        recurse([n for n in candidates if n != pivot], chosen)

    recurse(list(nodes), [])
    return best


class DpqaTarget(Target):
    name = "dpqa"
    description = "solver-based Rydberg stage scheduling (exact MIS)"
    capabilities = frozenset({CAP_FORMULA})
    default_budget_seconds = 60.0
    default_pipeline = ("qaoa-lowering", "nativize", "mis-staging")

    def __init__(self, hardware: FPQAHardwareParams | None = None, **unknown):
        reject_unknown_options(self.name, unknown)
        self.hardware = hardware or FPQAHardwareParams()
        #: Average atom travel per rearrangement phase: DPQA moves whole
        #: AOD rows/columns across the array between stages.
        self.stage_move_um = 100.0
        #: Each stage rearranges rows and columns in separate phases.
        self.moves_per_stage = 2

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
        # DPQA consumes the raw gate stream (no U3 fusion in its pipeline).
        native = nativize_circuit(circuit, fuse=False)
        stages, oneq_gates = self._schedule(native, deadline)
        hw = self.hardware
        num_2q = sum(len(stage) for stage in stages)
        duration_us = (
            len(stages)
            * (
                hw.rydberg_pulse_duration_us
                + self.moves_per_stage * hw.shuttle_duration_us(self.stage_move_um)
                + 2.0 * hw.transfer_duration_us
            )
            + oneq_gates * hw.raman_local_duration_us
            + hw.measurement_duration_us
        )
        # Per-pulse error accumulation (§8.4): one global Rydberg pulse per
        # stage, one Raman pulse per 1q gate, and one batched transfer
        # window per pick-up/drop of each rearrangement phase.
        log_eps = (
            len(stages) * math.log(hw.fidelity_cz)
            + oneq_gates * math.log(hw.fidelity_raman_local)
            + 2 * self.moves_per_stage * len(stages) * math.log(hw.fidelity_transfer)
            + formula.num_vars * math.log(hw.fidelity_measurement)
        )
        log_eps += -duration_us * formula.num_vars / hw.t2_us
        elapsed = time.perf_counter() - start
        # Pulses: one global Rydberg per stage, one Raman per 1q gate, one
        # grouped move per stage boundary.
        num_pulses = len(stages) * 2 + oneq_gates
        return CompilationResult(
            target=self.name,
            workload=workload.name,
            num_qubits=formula.num_vars,
            num_clauses=formula.num_clauses,
            compile_seconds=elapsed,
            execution_seconds=duration_us * 1e-6,
            eps=math.exp(log_eps),
            num_pulses=num_pulses,
            stats={"num_stages": len(stages), "num_2q": num_2q},
        )

    # ------------------------------------------------------------------
    def _schedule(
        self, circuit: QuantumCircuit, deadline: Deadline | None
    ) -> tuple[list[list[int]], int]:
        """Solve the 2-qubit gate *set* into Rydberg stages (exact MIS).

        DPQA's input format is an unordered set of two-qubit gates
        (§A.4.1: "a .json file with sets of two-qubit gates") — for QAOA
        cost layers all entangling terms commute, so the solver is free to
        schedule them in any order.  Each stage is an exact maximum
        independent set of the remaining gates' qubit-conflict graph,
        found by branch-and-bound: excellent schedules on small inputs,
        exponential blow-up on larger ones.
        """
        oneq_gates = sum(
            1
            for inst in circuit.instructions
            if inst.gate.is_unitary and len(inst.qubits) == 1
        )
        # One node per gate instance, exactly as the SMT encoding sees it.
        gate_pairs: list[tuple[int, int]] = []
        for inst in circuit.instructions:
            if inst.gate.is_unitary and len(inst.qubits) == 2:
                gate_pairs.append((min(inst.qubits), max(inst.qubits)))
        qubits_of = dict(enumerate(gate_pairs))
        remaining = list(range(len(gate_pairs)))
        stages: list[list[tuple[int, int]]] = []
        while remaining:
            if deadline is not None:
                deadline.check()
            adjacency: dict[int, set[int]] = {}
            by_qubit: dict[int, list[int]] = {}
            for i in remaining:
                adjacency[i] = set()
                for q in qubits_of[i]:
                    by_qubit.setdefault(q, []).append(i)
            for users in by_qubit.values():
                for a in users:
                    adjacency[a].update(u for u in users if u != a)
            stage_nodes = _max_independent_set(
                adjacency, remaining, qubits_of, deadline
            )
            stages.append([qubits_of[i] for i in stage_nodes])
            stage_set = set(stage_nodes)
            remaining = [i for i in remaining if i not in stage_set]
        return stages, oneq_gates
