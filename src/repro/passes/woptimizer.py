"""The Weaver FPQA compiler: pass pipeline plus code generation.

Given a MAX-3SAT formula and QAOA parameters, this module runs the three
wOptimizer passes (clause coloring, color shuttling, gate compression) and
then *executes* the resulting plan against the :class:`FPQADevice` state
machine while recording every instruction, so the emitted
:class:`WQasmProgram` is physically validated by construction: every
transfer distance, AOD ordering constraint, and Rydberg cluster shape was
checked as the program was generated.  Each Rydberg pulse is additionally
cross-checked against the cluster set the plan intended — a compiler
self-check that the wChecker later repeats independently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..circuits import Instruction
from ..circuits.euler import zyx_euler_angles
from ..circuits.gates import Gate, gate_matrix, make_gate, u3_from_matrix
from ..exceptions import CompilationError
from ..fpqa.device import FPQADevice
from ..fpqa.geometry import ZoneGeometry, position_key, zone_layout
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
    ShuttleMove,
    SlmInit,
    Transfer,
)
from ..qaoa.builder import QaoaParameters, QaoaReference
from ..sat.cnf import CnfFormula
from ..wqasm.program import AnnotatedOperation, WQasmProgram
from .base import CompilationContext, PassManager
from .clause_coloring import ClauseColoringPass, ClausePlacement, ColoringResult
from .color_shuttling import (
    ColorShuttlingPass,
    ShuttleWave,
    ZoneMovePlan,
    plan_zone_moves,
)
from . import gate_compression
from .gate_compression import (
    FragmentSchedule,
    GateCompressionPass,
    cached_clause_matrices,
    unit_raman_matrix,
)

Position = tuple[float, float]

_H = gate_matrix("h")


@lru_cache(maxsize=8)
def _cluster_gate(size: int) -> Gate:
    """The CZ/CCZ/MCZ gate a Rydberg cluster of ``size`` atoms applies."""
    name = "cz" if size == 2 else ("ccz" if size == 3 else "mcz")
    return make_gate(name, num_qubits=size)


class ZoneLayoutPass:
    """Size the zone grid from the coloring (between coloring and shuttling).

    Packs zones into a near-square grid so shuttle travel distances stay
    short, with the diagonal shear of Figure 5 between grid rows.  Skipped
    when the caller supplied explicit geometry.
    """

    name = "zone-layout"

    def run(self, context: CompilationContext) -> None:
        coloring: ColoringResult = context.require("coloring")
        if not context.auto_geometry:
            return
        zones_per_row = max(1, math.isqrt(max(coloring.num_colors, 1)))
        slots_per_zone = max(
            (len(group) for group in coloring.groups), default=1
        )
        context.geometry = zone_layout(
            context.hardware,
            zones_per_row=zones_per_row,
            slots_per_zone=max(slots_per_zone, 1),
        )
        context.stats.setdefault(self.name, {}).update(
            {"zones_per_row": zones_per_row, "slots_per_zone": slots_per_zone}
        )


@dataclass
class WeaverCompilationResult:
    """Everything the evaluation harness needs from one compilation."""

    program: WQasmProgram
    context: CompilationContext
    #: The reference QAOA circuit, kept as formula and angles; its gates
    #: are built on first read (see :class:`~repro.qaoa.QaoaReference`).
    native_circuit: QaoaReference
    compile_seconds: float
    #: JSON-safe per-pass / per-primitive performance profile.
    profile: dict | None = None

    @property
    def stats(self) -> dict:
        return self.context.stats


# Shared with the device's SLM index: one rounding rule for every
# position-keyed lookup (see repro.fpqa.geometry.position_key).
_position_key = position_key


class _CodeGenerator:
    """Drives the FPQA device and records the wQasm program."""

    def __init__(
        self,
        context: CompilationContext,
        coloring: ColoringResult,
        schedule: FragmentSchedule,
    ):
        self.context = context
        self.coloring = coloring
        self.schedule = schedule
        self.geometry = context.geometry
        self.hardware = context.hardware
        self.formula = context.formula
        self.num_qubits = context.formula.num_vars
        self.profiler = context.profiler
        self.device = FPQADevice(context.hardware)
        self.operations: list[AnnotatedOperation] = []
        self.pending: list[FPQAInstruction] = []
        self.trap_index: dict[tuple[float, float], int] = {}
        self.column_of: dict[int, int] = {}
        self.park_xs: list[float] = []
        #: matrix bytes -> ((x, y, z), u3 gate); the same handful of
        #: matrices (H, rx(2*beta), per-clause pre/mid/post) recur dozens
        #: of times per layer, so angle extraction runs ~once per distinct
        #: matrix instead of once per pulse.
        self._raman_cache: dict[bytes, tuple[tuple[float, float, float], Gate]] = {}
        #: (matrix bytes, qubit) -> (RamanLocal pulse, logical gate tuple);
        #: one level above the angle cache: the whole immutable operation.
        self._local_op_cache: dict[tuple[bytes, int], tuple] = {}
        #: matrix bytes -> (RamanGlobal pulse, ready logical gate tuple).
        self._global_gates_cache: dict[bytes, tuple] = {}

    # ------------------------------------------------------------------
    # Emission primitives
    # ------------------------------------------------------------------
    def _emit_move(self, instruction: FPQAInstruction) -> None:
        start = perf_counter()
        self.device.apply(instruction)
        self.pending.append(instruction)
        self.profiler.add(
            "transfer" if type(instruction) is Transfer else "shuttle",
            perf_counter() - start,
        )

    def _finish_op(
        self, pulse: FPQAInstruction, gates: tuple[Instruction, ...]
    ) -> None:
        instructions = tuple(self.pending) + (pulse,)
        self.pending.clear()
        self.operations.append(AnnotatedOperation(instructions, gates))

    def _flush_pending(self) -> None:
        if self.pending:
            self.operations.append(AnnotatedOperation(tuple(self.pending), ()))
            self.pending.clear()

    def _raman_parts(
        self, matrix: np.ndarray, key: bytes
    ) -> tuple[tuple[float, float, float], Gate]:
        """(Euler angles, logical u3 gate) for ``matrix``, memoized by ``key``."""
        cache = self._raman_cache
        parts = cache.get(key)
        if parts is None:
            parts = (zyx_euler_angles(matrix), u3_from_matrix(matrix))
            cache[key] = parts
            self.profiler.miss("raman_angles")
        else:
            self.profiler.hit("raman_angles")
        return parts

    def _emit_raman_local(self, qubit: int, matrix: np.ndarray) -> None:
        start = perf_counter()
        # Both the pulse and its logical annotation are pure values of
        # (matrix, qubit); reuse whole immutable operation parts.
        matrix_key = matrix.tobytes()
        entry = self._local_op_cache.get((matrix_key, qubit))
        if entry is None:
            (x, y, z), gate = self._raman_parts(matrix, matrix_key)
            entry = (RamanLocal(qubit, x, y, z), (Instruction(gate, (qubit,)),))
            self._local_op_cache[(matrix_key, qubit)] = entry
        else:
            self.profiler.hit("raman_angles")
        instruction, gates = entry
        self.device.apply(instruction)
        self._finish_op(instruction, gates)
        self.profiler.add("raman_local", perf_counter() - start)

    def _emit_raman_global(self, matrix: np.ndarray) -> None:
        start = perf_counter()
        key = matrix.tobytes()
        entry = self._global_gates_cache.get(key)
        if entry is None:
            (x, y, z), gate = self._raman_parts(matrix, key)
            entry = (
                RamanGlobal(x, y, z),
                tuple(
                    Instruction(gate, (qubit,))
                    for qubit in range(self.num_qubits)
                ),
            )
            self._global_gates_cache[key] = entry
        else:
            self.profiler.hit("raman_angles")
        instruction, gates = entry
        self.device.apply(instruction)
        self._finish_op(instruction, gates)
        self.profiler.add("raman_global", perf_counter() - start)

    def _emit_rydberg(self, expected: set[frozenset[int]]) -> None:
        start = perf_counter()
        instruction = RydbergPulse()
        clusters = self.device.apply(instruction)
        got = {frozenset(cluster.qubits) for cluster in clusters}
        if got != expected:
            raise CompilationError(
                f"Rydberg pulse produced clusters {sorted(map(sorted, got))}, "
                f"plan intended {sorted(map(sorted, expected))}"
            )
        gates = tuple(
            Instruction(_cluster_gate(cluster.size), tuple(sorted(cluster.qubits)))
            for cluster in clusters
        )
        self._finish_op(instruction, gates)
        self.profiler.add("rydberg", perf_counter() - start)

    # ------------------------------------------------------------------
    # Movement primitives
    # ------------------------------------------------------------------
    def _row_loaded(self) -> bool:
        return bool(self.device.aod_atoms)

    def _park_columns(self) -> None:
        moves = []
        loaded_cols = {col for col, _ in self.device.aod_atoms}
        for index, park_x in enumerate(self.park_xs):
            delta = park_x - self.device.aod_col_x[index]
            if abs(delta) > 1e-9:
                moves.append(
                    ShuttleMove("column", index, delta, loaded=index in loaded_cols)
                )
        if moves:
            self._emit_move(ParallelShuttle(tuple(moves)))

    def _align_columns(self, xs: list[float]) -> None:
        """Send columns ``0..len(xs)-1`` to ``xs`` (must be sorted)."""
        self._park_columns()
        moves = []
        loaded_cols = {col for col, _ in self.device.aod_atoms}
        for index, x in enumerate(xs):
            delta = x - self.device.aod_col_x[index]
            if abs(delta) > 1e-9:
                moves.append(
                    ShuttleMove("column", index, delta, loaded=index in loaded_cols)
                )
        if moves:
            self._emit_move(ParallelShuttle(tuple(moves)))

    def _row_to(self, y: float) -> None:
        delta = y - self.device.aod_row_y[0]
        if abs(delta) > 1e-9:
            self._emit_move(
                Shuttle(ShuttleMove("row", 0, delta, loaded=self._row_loaded()))
            )

    def _transfer(self, trap_position: Position, column: int) -> None:
        key = _position_key(trap_position)
        if key not in self.trap_index:
            raise CompilationError(f"no SLM trap at {trap_position}")
        self._emit_move(Transfer(self.trap_index[key], column, 0))

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def generate(self, measure: bool) -> WQasmProgram:
        placements = self.coloring.placements
        layers_plans = self._plan_layers()
        setup = self._setup_device(layers_plans)
        # QAOA initialization: Hadamard on every qubit via one global pulse.
        self._emit_raman_global(_H)
        for layer, (gamma, beta) in enumerate(
            zip(self.context.parameters.gammas, self.context.parameters.betas)
        ):
            plans = layers_plans[layer]
            for color in range(self.coloring.num_colors):
                for wave in plans[color].waves:
                    self._run_wave(wave)
                self._execute_zone(color, gamma)
            # Mixer: RX(2*beta) on every qubit via one global pulse.
            self._emit_raman_global(gate_matrix("rx", (2.0 * beta,)))
        self._flush_pending()
        program = WQasmProgram(
            num_qubits=self.num_qubits,
            setup=setup,
            operations=self.operations,
            measured=measure,
            name=f"weaver-{self.formula.name}",
        )
        return program

    def _plan_layers(self) -> list[list[ZoneMovePlan]]:
        parked = {
            var: self.geometry.home_position(var, self.num_qubits)
            for var in range(self.num_qubits)
        }
        layers = []
        #: frozen parked map -> (plans, parked map after the layer).  The
        #: zone plan is a pure function of where the atoms start, so once
        #: the parked map returns to a layer-start state already seen
        #: (always true from layer 2 on: every layer visits the zones in
        #: the same order), the remaining layers reuse the first plan.
        cache: dict[tuple, tuple[list[ZoneMovePlan], dict[int, Position]]] = {}
        for _ in range(self.context.parameters.num_layers):
            key = tuple(sorted(parked.items()))
            hit = cache.get(key)
            if hit is not None:
                self.profiler.hit("zone_plans")
                plans, parked = hit
                layers.append(plans)
                continue
            self.profiler.miss("zone_plans")
            plans, parked = plan_zone_moves(
                self.coloring,
                self.geometry,
                parked,
                self.hardware.min_trap_spacing_um,
            )
            cache[key] = (plans, parked)
            layers.append(plans)
        return layers

    def _setup_device(
        self, layers_plans: list[list[ZoneMovePlan]]
    ) -> tuple[FPQAInstruction, ...]:
        positions: list[Position] = []

        def add_trap(position: Position) -> None:
            key = _position_key(position)
            if key not in self.trap_index:
                self.trap_index[key] = len(positions)
                positions.append(position)

        for var in range(self.num_qubits):
            add_trap(self.geometry.home_position(var, self.num_qubits))
        for placement in self.coloring.placements:
            color, slot = placement.color, placement.slot
            if placement.arity == 3:
                add_trap(self.geometry.target_position(color, slot))
            if placement.arity in (2, 3):
                stage = self.geometry.stage_positions(color, slot)
                add_trap(stage[0])
                add_trap(stage[1])

        num_columns = 1
        for plans in layers_plans:
            for plan in plans:
                for wave in plan.waves:
                    num_columns = max(num_columns, len(wave))
        for color in range(self.coloring.num_colors):
            group = self.coloring.group_placements(color)
            three = sum(1 for p in group if p.arity == 3)
            two = sum(1 for p in group if p.arity == 2)
            num_columns = max(num_columns, 2 * three, 2 * two)

        max_x = max(p[0] for p in positions)
        min_y = min(p[1] for p in positions)
        park_x0 = max_x + 2.0 * self.hardware.safe_spacing_um
        spacing = 2.0 * self.hardware.min_trap_spacing_um
        self.park_xs = [park_x0 + i * spacing for i in range(num_columns)]
        row_y = min_y - 2.0 * self.hardware.safe_spacing_um

        setup: list[FPQAInstruction] = [
            SlmInit(tuple(positions)),
            AodInit(tuple(self.park_xs), (row_y,)),
        ]
        for var in range(self.num_qubits):
            home = self.geometry.home_position(var, self.num_qubits)
            setup.append(BindAtom(qubit=var, slm_index=self.trap_index[_position_key(home)]))
        for instruction in setup:
            self.device.apply(instruction)
        return tuple(setup)

    # ------------------------------------------------------------------
    # Waves
    # ------------------------------------------------------------------
    def _run_wave(self, wave: ShuttleWave) -> None:
        self._align_columns([source[0] for source in wave.sources])
        by_source_y: dict[float, list[int]] = {}
        for index, source in enumerate(wave.sources):
            by_source_y.setdefault(source[1], []).append(index)
        for y in sorted(by_source_y):
            self._row_to(y)
            for index in by_source_y[y]:
                self._transfer(wave.sources[index], index)
        moves = []
        for index, (source, dest) in enumerate(zip(wave.sources, wave.destinations)):
            delta = dest[0] - source[0]
            if abs(delta) > 1e-9:
                moves.append(ShuttleMove("column", index, delta, loaded=True))
        if moves:
            self._emit_move(ParallelShuttle(tuple(moves)))
        by_dest_y: dict[float, list[int]] = {}
        for index, dest in enumerate(wave.destinations):
            by_dest_y.setdefault(dest[1], []).append(index)
        for y in sorted(by_dest_y):
            self._row_to(y)
            for index in by_dest_y[y]:
                self._transfer(wave.destinations[index], index)

    # ------------------------------------------------------------------
    # Zone execution
    # ------------------------------------------------------------------
    def _clause_matrices(
        self, mode: str, placement: ClausePlacement, gamma: float
    ) -> dict[str, np.ndarray | None]:
        """Per-clause Raman matrix set, cached by (signs, weight*gamma)."""
        before = gate_compression.clause_matrix_misses
        matrices = cached_clause_matrices(
            mode, placement.signs, gamma * placement.weight
        )
        if gate_compression.clause_matrix_misses > before:
            self.profiler.miss("clause_matrices")
        else:
            self.profiler.hit("clause_matrices")
        return matrices

    def _execute_zone(self, color: int, gamma: float) -> None:
        group = self.coloring.group_placements(color)
        three = [p for p in group if p.arity == 3]
        two = [p for p in group if p.arity == 2]
        one = [p for p in group if p.arity == 1]
        for placement in one:
            self._emit_raman_local(
                placement.qubits[0], unit_raman_matrix(placement, gamma)
            )
        if three:
            self._pickup_controls(color, three)
            if self.schedule.use_compression:
                self._zone_compressed(color, three, gamma)
            else:
                self._zone_ladder(color, three, gamma)
            self._drop_controls(color, three)
        if two:
            self._zone_pairs(color, two, gamma)

    def _control_stage_sites(
        self, color: int, placements: list[ClausePlacement]
    ) -> list[tuple[int, Position]]:
        """(atom, stage trap) for every control, sorted by x."""
        sites: list[tuple[int, Position]] = []
        for placement in placements:
            stage = self.geometry.stage_positions(color, placement.slot)
            sites.append((placement.controls[0], stage[0]))
            sites.append((placement.controls[1], stage[1]))
        sites.sort(key=lambda item: item[1][0])
        return sites

    def _pickup_controls(self, color: int, placements: list[ClausePlacement]) -> None:
        sites = self._control_stage_sites(color, placements)
        self._align_columns([pos[0] for _, pos in sites])
        self._row_to(self.geometry.stage_row_y(color))
        for column, (atom, pos) in enumerate(sites):
            self.column_of[atom] = column
            self._transfer(pos, column)

    def _drop_controls(self, color: int, placements: list[ClausePlacement]) -> None:
        self._set_stance(color, placements, "stage")
        for placement in placements:
            stage = self.geometry.stage_positions(color, placement.slot)
            for atom, pos in zip(placement.controls, stage):
                self._transfer(pos, self.column_of.pop(atom))

    def _stance_positions(
        self, color: int, placement: ClausePlacement, stance: str
    ) -> tuple[Position, Position]:
        if stance == "stage":
            return self.geometry.stage_positions(color, placement.slot)
        if stance == "tri":
            return self.geometry.control_positions(color, placement.slot)
        if stance == "pair":
            return self.geometry.pair_positions(color, placement.slot)
        if stance == "bt":
            return self.geometry.bt_positions(color, placement.slot)
        if stance == "at":
            return self.geometry.at_positions(color, placement.slot)
        raise CompilationError(f"unknown stance {stance!r}")

    def _set_stance(
        self, color: int, placements: list[ClausePlacement], stance: str
    ) -> None:
        moves = []
        row_y: float | None = None
        for placement in placements:
            targets = self._stance_positions(color, placement, stance)
            for atom, (x, y) in zip(placement.controls, targets):
                row_y = y
                column = self.column_of[atom]
                delta = x - self.device.aod_col_x[column]
                if abs(delta) > 1e-9:
                    moves.append(ShuttleMove("column", column, delta, loaded=True))
        if row_y is not None:
            delta = row_y - self.device.aod_row_y[0]
            if abs(delta) > 1e-9:
                moves.append(ShuttleMove("row", 0, delta, loaded=True))
        if moves:
            self._emit_move(ParallelShuttle(tuple(moves)))

    # --- compressed mode ------------------------------------------------
    def _zone_compressed(
        self, color: int, placements: list[ClausePlacement], gamma: float
    ) -> None:
        matrices = {
            p.clause_index: self._clause_matrices("compressed", p, gamma)
            for p in placements
        }
        triangles = {frozenset(p.qubits) for p in placements}
        pairs = {frozenset(p.controls) for p in placements}
        self._set_stance(color, placements, "tri")
        for p in placements:
            m = matrices[p.clause_index]
            if m["ctrl_pre_a"] is not None:
                self._emit_raman_local(p.controls[0], m["ctrl_pre_a"])
            if m["ctrl_pre_b"] is not None:
                self._emit_raman_local(p.controls[1], m["ctrl_pre_b"])
            self._emit_raman_local(p.target, m["target_pre"])
        self._emit_rydberg(triangles)
        for p in placements:
            self._emit_raman_local(p.target, matrices[p.clause_index]["target_mid"])
        self._emit_rydberg(triangles)
        for p in placements:
            m = matrices[p.clause_index]
            self._emit_raman_local(p.target, m["target_post"])
            self._emit_raman_local(p.controls[0], m["ctrl_post_a"])
            self._emit_raman_local(p.controls[1], m["ctrl_post_b"])
        self._set_stance(color, placements, "pair")
        for p in placements:
            self._emit_raman_local(p.controls[1], matrices[p.clause_index]["b_pre"])
        self._emit_rydberg(pairs)
        for p in placements:
            self._emit_raman_local(p.controls[1], matrices[p.clause_index]["b_mid"])
        self._emit_rydberg(pairs)
        for p in placements:
            self._emit_raman_local(p.controls[1], matrices[p.clause_index]["b_post"])

    # --- ladder (uncompressed) mode --------------------------------------
    def _zone_ladder(
        self, color: int, placements: list[ClausePlacement], gamma: float
    ) -> None:
        matrices = {
            p.clause_index: self._clause_matrices("ladder", p, gamma)
            for p in placements
        }
        pairs = {frozenset(p.controls) for p in placements}
        bt_pairs = {frozenset((p.qubits[1], p.qubits[2])) for p in placements}
        at_pairs = {frozenset((p.qubits[0], p.qubits[2])) for p in placements}

        def ladder(
            stance_pairs: set[frozenset[int]],
            role: int,
            pre: str,
            mid: str,
            post: str,
        ) -> None:
            for p in placements:
                self._emit_raman_local(p.qubits[role], matrices[p.clause_index][pre])
            self._emit_rydberg(stance_pairs)
            for p in placements:
                self._emit_raman_local(p.qubits[role], matrices[p.clause_index][mid])
            self._emit_rydberg(stance_pairs)
            for p in placements:
                self._emit_raman_local(p.qubits[role], matrices[p.clause_index][post])

        self._set_stance(color, placements, "pair")
        # quad(a, b)
        ladder(pairs, 1, "pair_b_pre", "pair_b_mid", "pair_b_post")
        # cubic opening CX(a, b)
        for p in placements:
            self._emit_raman_local(p.qubits[1], matrices[p.clause_index]["cubic_b_side"])
        self._emit_rydberg(pairs)
        for p in placements:
            self._emit_raman_local(p.qubits[1], matrices[p.clause_index]["cubic_b_side"])
        # cubic inner CX(b, t) RZ CX(b, t)
        self._set_stance(color, placements, "bt")
        ladder(bt_pairs, 2, "cubic_t_pre", "cubic_t_mid", "cubic_t_post")
        # cubic closing CX(a, b)
        self._set_stance(color, placements, "pair")
        for p in placements:
            self._emit_raman_local(p.qubits[1], matrices[p.clause_index]["cubic_b_side"])
        self._emit_rydberg(pairs)
        for p in placements:
            self._emit_raman_local(p.qubits[1], matrices[p.clause_index]["cubic_b_side"])
        # quad(b, t) and quad(a, t) on the hover stances
        self._set_stance(color, placements, "bt")
        ladder(bt_pairs, 2, "bt_t_pre", "bt_t_mid", "bt_t_post")
        self._set_stance(color, placements, "at")
        ladder(at_pairs, 2, "at_t_pre", "at_t_mid", "at_t_post")
        # linear terms
        for p in placements:
            m = matrices[p.clause_index]
            self._emit_raman_local(p.qubits[0], m["lin_a"])
            self._emit_raman_local(p.qubits[1], m["lin_b"])
            self._emit_raman_local(p.qubits[2], m["lin_t"])

    # --- 2-literal clauses ------------------------------------------------
    def _zone_pairs(
        self, color: int, placements: list[ClausePlacement], gamma: float
    ) -> None:
        sites = self._control_stage_sites(color, placements)
        self._align_columns([pos[0] for _, pos in sites])
        self._row_to(self.geometry.stage_row_y(color))
        for column, (atom, pos) in enumerate(sites):
            self.column_of[atom] = column
            self._transfer(pos, column)
        self._set_stance(color, placements, "pair")
        matrices = {
            p.clause_index: self._clause_matrices("pair", p, gamma)
            for p in placements
        }
        pairs = {frozenset(p.controls) for p in placements}
        for p in placements:
            self._emit_raman_local(p.controls[1], matrices[p.clause_index]["b_pre"])
        self._emit_rydberg(pairs)
        for p in placements:
            self._emit_raman_local(p.controls[1], matrices[p.clause_index]["b_mid"])
        self._emit_rydberg(pairs)
        for p in placements:
            m = matrices[p.clause_index]
            self._emit_raman_local(p.controls[1], m["b_post"])
            self._emit_raman_local(p.controls[0], m["a_post"])
        self._drop_controls(color, placements)


class FPQACompiler:
    """The FPQA pipeline: MAX-3SAT formula -> validated wQasm program.

    This is the implementation behind the ``"fpqa"`` target; prefer
    ``repro.compile(formula, target="fpqa")`` in user code.
    """

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        geometry: ZoneGeometry | None = None,
        coloring_algorithm: str = "dsatur",
        compression: bool | None = None,
    ):
        self.hardware = hardware or FPQAHardwareParams()
        self._auto_geometry = geometry is None
        self.geometry = geometry or zone_layout(self.hardware)
        self.coloring_algorithm = coloring_algorithm
        self.compression = compression

    def compile(
        self,
        formula: CnfFormula,
        parameters: QaoaParameters | None = None,
        measure: bool = True,
    ) -> WeaverCompilationResult:
        """Compile ``formula`` to an FPQA program (the paper's FPQA path)."""
        start = time.perf_counter()
        parameters = parameters or QaoaParameters()
        context = CompilationContext(
            formula=formula,
            parameters=parameters,
            hardware=self.hardware,
            geometry=self.geometry,
            auto_geometry=self._auto_geometry,
            compression_override=self.compression,
        )
        manager = PassManager(
            [
                ClauseColoringPass(self.coloring_algorithm),
                ZoneLayoutPass(),
                ColorShuttlingPass(),
                GateCompressionPass(),
            ]
        )
        manager.run(context)
        coloring: ColoringResult = context.require("coloring")
        schedule: FragmentSchedule = context.require("fragments")
        profiler = context.profiler
        generator = _CodeGenerator(context, coloring, schedule)
        codegen_start = time.perf_counter()
        program = generator.generate(measure=measure)
        profiler.add_pass("codegen", time.perf_counter() - codegen_start)
        profiler.set_cache(
            "rydberg_clusters",
            hits=generator.device.cluster_cache_hits,
            misses=generator.device.cluster_resolutions,
        )
        elapsed = time.perf_counter() - start
        context.stats.setdefault("total", {})["seconds"] = elapsed
        profile = profiler.profile(total_seconds=elapsed)
        return WeaverCompilationResult(
            program=program,
            context=context,
            native_circuit=QaoaReference(formula, parameters),
            compile_seconds=elapsed,
            profile=profile,
        )
