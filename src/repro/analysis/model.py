"""Abstract FPQA machine for static analysis.

:class:`AbstractDeviceState` tracks the same state as
:class:`~repro.fpqa.device.FPQADevice` — trap layers, occupancy, qubit
bindings, AOD geometry — but where the concrete device *raises*
:class:`FPQAConstraintError` on a Table-1 precondition violation, the
abstract machine *reports* a diagnostic through a sink and recovers with
a best-effort state update, so one fault does not hide every fault after
it.  The recovery policy mirrors hardware intent: geometry-changing
instructions (shuttles, far transfers) are applied even when flagged, so
downstream interference analysis sees the positions the program would
actually produce; occupancy-violating instructions (double binds,
invalid transfers) are skipped, since hardware cannot perform them at
all.

Rydberg cluster resolution reuses the device's semantics (union of atoms
within the Rydberg radius, connected components, equidistance check for
clusters of three or more) but is vectorized with numpy and cached per
geometry epoch, because the analyzer's one linear pass cannot afford the
checker's per-pulse unitary reconstruction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

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
from . import registry as R
from .diagnostics import Diagnostic, SourceLocation

Sink = Callable[[Diagnostic], None]


class AbstractDeviceState:
    """Diagnostic-emitting mirror of the FPQA state machine."""

    def __init__(self, hardware: FPQAHardwareParams, sink: Sink):
        self.hardware = hardware
        self.sink = sink
        #: Current stream position; a SourceLocation is only materialized
        #: when a diagnostic actually fires (the clean path is hot).
        self.op_index: int | None = None
        self.instr_index: int | None = None
        self.slm_positions: list[tuple[float, float]] = []
        self.slm_atoms: list[int | None] = []
        self.aod_col_x: list[float] = []
        self.aod_row_y: list[float] = []
        self.aod_atoms: dict[tuple[int, int], int] = {}
        self.qubit_location: dict[int, tuple] = {}
        #: Qubits ever bound (liveness), including ones later flagged.
        self.ever_bound: set[int] = set()
        self._geometry_epoch = 0
        self._cluster_cache_epoch = -1
        self._cluster_cache: list[tuple[tuple[int, ...], bool]] = []
        self.cluster_resolutions = 0
        self._handlers = {
            SlmInit: self._init_slm,
            AodInit: self._init_aod,
            BindAtom: self._bind,
            Transfer: self._transfer,
            Shuttle: self._apply_shuttle,
            ParallelShuttle: self._apply_parallel_shuttle,
            RamanLocal: self._raman_local,
            RamanGlobal: self._raman_global,
            RydbergPulse: self._noop,
        }

    # ------------------------------------------------------------------
    def report(self, rule: R.LintRule, message: str, qubits: tuple[int, ...] = ()) -> None:
        location = SourceLocation(
            operation=self.op_index, instruction=self.instr_index
        )
        self.sink(rule.diagnostic(message, location=location, qubits=qubits))

    def apply(self, instruction: FPQAInstruction) -> None:
        handler = self._handlers.get(type(instruction))
        if handler is None:
            self.report(
                R.LAYER_UNINITIALIZED, f"unknown instruction {instruction!r}"
            )
            return
        handler(instruction)

    def qubit_position(self, qubit: int) -> tuple[float, float] | None:
        loc = self.qubit_location.get(qubit)
        if loc is None:
            return None
        if loc[0] == "slm":
            return self.slm_positions[loc[1]]
        _, col, row = loc
        return (self.aod_col_x[col], self.aod_row_y[row])

    # ------------------------------------------------------------------
    # Layer initialization (static geometry envelope)
    # ------------------------------------------------------------------
    def _init_slm(self, instruction: SlmInit) -> None:
        if self.slm_positions:
            self.report(R.LAYER_REINITIALIZED, "@slm layer is already initialized")
            return
        positions = list(instruction.positions)
        self._check_static_spacing(positions)
        self.slm_positions = positions
        self.slm_atoms = [None] * len(positions)
        self._geometry_epoch += 1

    def _check_static_spacing(self, positions: list[tuple[float, float]]) -> None:
        spacing = self.hardware.min_trap_spacing_um
        cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
        floor = math.floor
        for x, y in positions:
            cell = (floor(x / spacing), floor(y / spacing))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for ox, oy in cells.get((cell[0] + dx, cell[1] + dy), ()):
                        if (x - ox) ** 2 + (y - oy) ** 2 < spacing**2 - 1e-9:
                            self.report(
                                R.TRAP_SPACING,
                                f"@slm traps at ({ox:.2f}, {oy:.2f}) and "
                                f"({x:.2f}, {y:.2f}) violate the minimum "
                                f"spacing of {spacing} um",
                            )
            cells.setdefault(cell, []).append((x, y))

    def _init_aod(self, instruction: AodInit) -> None:
        if self.aod_col_x or self.aod_row_y:
            self.report(R.LAYER_REINITIALIZED, "@aod layer is already initialized")
            return
        spacing = self.hardware.min_trap_spacing_um
        for name, coords in (("column x", instruction.xs), ("row y", instruction.ys)):
            for a, b in zip(coords, coords[1:]):
                if b <= a:
                    self.report(
                        R.TRAP_SPACING,
                        f"@aod {name} coordinates must be strictly increasing",
                    )
                elif b - a < spacing:
                    self.report(
                        R.TRAP_SPACING,
                        f"@aod adjacent {name} coordinates closer than the "
                        f"minimum spacing ({b - a:.2f} um)",
                    )
        self.aod_col_x = list(instruction.xs)
        self.aod_row_y = list(instruction.ys)
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Occupancy dataflow
    # ------------------------------------------------------------------
    def _bind(self, instruction: BindAtom) -> None:
        qubit = instruction.qubit
        self.ever_bound.add(qubit)
        if qubit in self.qubit_location:
            self.report(
                R.DOUBLE_BIND, f"qubit {qubit} is already bound", qubits=(qubit,)
            )
            return
        if instruction.slm_index is not None:
            idx = instruction.slm_index
            if not self.slm_positions:
                self.report(
                    R.LAYER_UNINITIALIZED,
                    f"@bind addresses SLM trap {idx} before @slm",
                    qubits=(qubit,),
                )
                return
            if not 0 <= idx < len(self.slm_positions):
                self.report(
                    R.BIND_RANGE, f"@bind slm index {idx} out of range", qubits=(qubit,)
                )
                return
            occupant = self.slm_atoms[idx]
            if occupant is not None:
                self.report(
                    R.BIND_OCCUPIED,
                    f"SLM trap {idx} already holds an atom (qubit {occupant})",
                    qubits=(qubit, occupant),
                )
                return
            self.slm_atoms[idx] = qubit
            self.qubit_location[qubit] = ("slm", idx)
            self._geometry_epoch += 1
            return
        col, row = instruction.aod_col, instruction.aod_row
        if not self.aod_col_x and not self.aod_row_y:
            self.report(
                R.LAYER_UNINITIALIZED,
                f"@bind addresses AOD crossing ({col}, {row}) before @aod",
                qubits=(qubit,),
            )
            return
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            self.report(
                R.BIND_RANGE,
                f"@bind aod crossing ({col}, {row}) out of range",
                qubits=(qubit,),
            )
            return
        occupant = self.aod_atoms.get((col, row))
        if occupant is not None:
            self.report(
                R.BIND_OCCUPIED,
                f"AOD crossing ({col}, {row}) already holds an atom "
                f"(qubit {occupant})",
                qubits=(qubit, occupant),
            )
            return
        self.aod_atoms[(col, row)] = qubit
        self.qubit_location[qubit] = ("aod", col, row)
        self._geometry_epoch += 1

    def _transfer(self, instruction: Transfer) -> None:
        idx, col, row = instruction.slm_index, instruction.aod_col, instruction.aod_row
        if not self.slm_positions or not self.aod_col_x:
            self.report(
                R.LAYER_UNINITIALIZED, "@transfer before trap layers are initialized"
            )
            return
        if not 0 <= idx < len(self.slm_positions):
            self.report(R.TRANSFER_RANGE, f"@transfer slm index {idx} out of range")
            return
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            self.report(
                R.TRANSFER_RANGE, f"@transfer aod crossing ({col}, {row}) out of range"
            )
            return
        slm_pos = self.slm_positions[idx]
        aod_pos = (self.aod_col_x[col], self.aod_row_y[row])
        distance = math.dist(slm_pos, aod_pos)
        if distance > self.hardware.transfer_max_distance_um:
            self.report(
                R.TRANSFER_DISTANCE,
                f"@transfer between traps {distance:.2f} um apart exceeds the "
                f"maximum of {self.hardware.transfer_max_distance_um} um",
            )
            # Flagged but applied: the handoff geometry is wrong, not the
            # occupancy bookkeeping, and downstream analysis needs the
            # atom where the program believes it is.
        slm_atom = self.slm_atoms[idx]
        aod_atom = self.aod_atoms.get((col, row))
        if slm_atom is not None and aod_atom is None:
            self.slm_atoms[idx] = None
            self.aod_atoms[(col, row)] = slm_atom
            self.qubit_location[slm_atom] = ("aod", col, row)
        elif slm_atom is None and aod_atom is not None:
            del self.aod_atoms[(col, row)]
            self.slm_atoms[idx] = aod_atom
            self.qubit_location[aod_atom] = ("slm", idx)
        else:
            involved = tuple(q for q in (slm_atom, aod_atom) if q is not None)
            self.report(
                R.TRANSFER_INVALID,
                "@transfer requires exactly one occupied and one empty trap "
                f"(slm {idx} holds {slm_atom}, aod ({col}, {row}) holds {aod_atom})",
                qubits=involved,
            )
            return
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Shuttling (order preservation)
    # ------------------------------------------------------------------
    def _apply_shuttle(self, instruction: Shuttle) -> None:
        self._shuttle([instruction.move])

    def _apply_parallel_shuttle(self, instruction: ParallelShuttle) -> None:
        seen: set[tuple[str, int]] = set()
        for move in instruction.moves:
            key = (move.axis, move.index)
            if key in seen:
                self.report(
                    R.SHUTTLE_CONFLICT,
                    f"parallel shuttle moves the same {move.axis} {move.index} twice",
                )
            seen.add(key)
        self._shuttle(list(instruction.moves))

    def _shuttle(self, moves: list[ShuttleMove]) -> None:
        # An order violation can only appear at a pair whose left or
        # right member moved, so checking the moved indices' neighbor
        # pairs covers every possible new violation without rescanning
        # the whole grid per shuttle (the concrete device checks the
        # same pairs).
        cols, rows = self.aod_col_x, self.aod_row_y
        touched: set[tuple[str, int]] = set()
        for move in moves:
            coords = cols if move.axis == "column" else rows
            if not 0 <= move.index < len(coords):
                self.report(
                    R.SHUTTLE_RANGE, f"@shuttle {move.axis} {move.index} out of range"
                )
                continue
            coords[move.index] += move.offset
            touched.add((move.axis, move.index))
        spacing = self.hardware.min_trap_spacing_um
        threshold = spacing - 1e-9
        for axis, index in touched:
            coords = cols if axis == "column" else rows
            name = axis
            for left in (index - 1, index):
                if 0 <= left and left + 1 < len(coords):
                    gap = coords[left + 1] - coords[left]
                    if gap < threshold:
                        self.report(
                            R.SHUTTLE_ORDER,
                            f"shuttle brings adjacent {name}s {left} and "
                            f"{left + 1} within {gap:.2f} um (minimum "
                            f"{spacing} um); rows/columns may not cross or "
                            "crowd (Table 1)",
                        )
        # Flagged moves still take effect: the analyzer follows the
        # geometry the program encodes so later cluster checks compare
        # against what would physically happen.
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Pulses
    # ------------------------------------------------------------------
    def _raman_local(self, instruction: RamanLocal) -> None:
        if instruction.qubit not in self.qubit_location:
            self.report(
                R.RAMAN_UNBOUND,
                f"@raman local targets unbound qubit {instruction.qubit}",
                qubits=(instruction.qubit,),
            )

    def _raman_global(self, instruction: RamanGlobal) -> None:
        pass  # no pre-condition (Table 1)

    def _noop(self, instruction: FPQAInstruction) -> None:
        pass

    # ------------------------------------------------------------------
    # Rydberg interference sets
    # ------------------------------------------------------------------
    def resolve_clusters(self) -> list[tuple[tuple[int, ...], bool]]:
        """Interacting clusters under the current geometry.

        Returns ``(qubits, equidistant)`` pairs for every cluster of two
        or more atoms, sorted by qubit tuple; ``equidistant`` is whether
        a >=3 cluster satisfies the tolerance (2-clusters are trivially
        equidistant).  Cached per geometry epoch, like the device's
        resolver, so back-to-back pulses with no movement are free.
        """
        if self._cluster_cache_epoch == self._geometry_epoch:
            return self._cluster_cache
        self.cluster_resolutions += 1
        qubits = sorted(self.qubit_location)
        clusters: list[tuple[tuple[int, ...], bool]] = []
        n = len(qubits)
        if n >= 2:
            positions = [self.qubit_position(q) for q in qubits]
            radius = self.hardware.rydberg_radius_um
            # A KD-tree radius query beats the device's O(n^2) distance
            # matrix by an order of magnitude at uf100 scale; the pair
            # set (distance <= radius, boundary inclusive) is identical.
            pairs = cKDTree(np.asarray(positions)).query_pairs(
                radius, output_type="ndarray"
            )
            parent = list(range(n))

            def find(i: int) -> int:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i, j in pairs:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[ri] = rj
            groups: dict[int, list[int]] = {}
            for i, root in enumerate(map(find, range(n))):
                group = groups.get(root)
                if group is None:
                    groups[root] = [i]
                else:
                    group.append(i)
            tol = self.hardware.equidistance_tolerance_um
            for members in groups.values():
                if len(members) < 2:
                    continue
                member_qubits = tuple(qubits[i] for i in members)
                equidistant = True
                if len(members) >= 3:
                    dists = [
                        math.dist(positions[a], positions[b])
                        for ai, a in enumerate(members)
                        for b in members[ai + 1 :]
                    ]
                    equidistant = max(dists) - min(dists) <= tol
                clusters.append((member_qubits, equidistant))
            clusters.sort(key=lambda c: c[0])
        self._cluster_cache = clusters
        self._cluster_cache_epoch = self._geometry_epoch
        return clusters
