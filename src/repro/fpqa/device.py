"""FPQA device state machine.

Tracks trap layers, atom positions, and qubit bindings while validating
every instruction against the pre-conditions of paper Table 1.  The same
machine serves two roles:

* the wOptimizer drives it while lowering a circuit, guaranteeing emitted
  programs are physically executable; and
* the wChecker replays a wQasm annotation stream through it to learn atom
  positions before each Rydberg pulse (§6, Figure 9).

Hot-path notes: instruction dispatch is a ``type -> handler`` dict (not an
isinstance chain), and Rydberg cluster resolution uses the same
spatial-hash neighbor query as the trap spacing check plus dirty tracking
(consecutive pulses with no movement in between reuse the previous cluster
set).  The device keeps no instruction log: its callers already hold the
program they replay or emit.  The dense O(n^2) resolver it
replaced is kept only as a test oracle (``tests/oracles/device.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import FPQAConstraintError
from .geometry import position_key
from .hardware import FPQAHardwareParams
from .instructions import (
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

Location = tuple  # ("slm", index) | ("aod", col, row)


@dataclass(frozen=True)
class RydbergCluster:
    """A maximal group of mutually interacting atoms during a pulse."""

    qubits: tuple[int, ...]
    positions: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return len(self.qubits)


class FPQADevice:
    """Mutable FPQA state: trap layers and atoms."""

    def __init__(self, hardware: FPQAHardwareParams | None = None):
        self.hardware = hardware or FPQAHardwareParams()
        self.slm_positions: list[tuple[float, float]] = []
        self.slm_atoms: list[int | None] = []
        self.aod_col_x: list[float] = []
        self.aod_row_y: list[float] = []
        self.aod_atoms: dict[tuple[int, int], int] = {}
        self.qubit_location: dict[int, Location] = {}
        #: position_key -> SLM trap index; the O(1) backing of
        #: :meth:`slm_index_at`, kept in lockstep with ``slm_positions``.
        self._slm_key_index: dict[tuple[float, float], int] = {}
        #: Bumped on every mutation that can move an atom; the cluster
        #: cache is valid while the epoch it was computed at still holds.
        self._geometry_epoch = 0
        self._cluster_cache_epoch = -1
        self._cluster_cache: list[RydbergCluster] = []
        #: Cluster-resolution statistics (surfaced in compile profiles).
        self.cluster_cache_hits = 0
        self.cluster_resolutions = 0
        self._handlers = {
            SlmInit: self._init_slm,
            AodInit: self._init_aod,
            BindAtom: self._bind,
            Transfer: self._transfer,
            Shuttle: self._apply_shuttle,
            ParallelShuttle: self._apply_parallel_shuttle,
            RamanLocal: self._apply_raman_local,
            RamanGlobal: self._apply_raman_global,
            RydbergPulse: self._apply_rydberg,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_atoms(self) -> int:
        return len(self.qubit_location)

    def qubit_position(self, qubit: int) -> tuple[float, float]:
        """Current (x, y) of the atom bound to ``qubit``."""
        loc = self.qubit_location.get(qubit)
        if loc is None:
            raise FPQAConstraintError(f"qubit {qubit} is not bound to any atom")
        if loc[0] == "slm":
            return self.slm_positions[loc[1]]
        _, col, row = loc
        return (self.aod_col_x[col], self.aod_row_y[row])

    def atom_positions(self) -> dict[int, tuple[float, float]]:
        """Positions of all bound atoms, keyed by qubit id."""
        return {q: self.qubit_position(q) for q in self.qubit_location}

    def slm_index_at(self, x: float, y: float) -> int | None:
        """Index of the SLM trap at (x, y), if any.

        O(1): both this lookup and the compiler's trap index are backed by
        the same :func:`~repro.fpqa.geometry.position_key` rounding (6
        decimal places), so the two can never disagree about which trap
        sits at a coordinate.  (Historically this was a linear scan with
        its own ``1e-6`` tolerance, which could mismatch the key index.)
        """
        return self._slm_key_index.get(position_key((x, y)))

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def lose_atom(self, qubit: int) -> None:
        """Simulate atom loss: the trap empties, the qubit vanishes.

        Atom loss is the dominant hardware failure in neutral-atom arrays
        (imperfect transfers, background-gas collisions).  Injected losses
        let tests confirm that downstream operations fail loudly — a lost
        atom turns later transfers, Raman pulses, and Rydberg clusters on
        that qubit into detectable constraint violations.
        """
        location = self.qubit_location.pop(qubit, None)
        if location is None:
            raise FPQAConstraintError(f"qubit {qubit} holds no atom to lose")
        if location[0] == "slm":
            self.slm_atoms[location[1]] = None
        else:
            del self.aod_atoms[(location[1], location[2])]
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------
    def apply(self, instruction: FPQAInstruction) -> list[RydbergCluster] | None:
        """Validate and execute ``instruction``; Rydberg returns clusters."""
        handler = self._handlers.get(type(instruction))
        if handler is None:
            raise FPQAConstraintError(f"unknown instruction {instruction!r}")
        return handler(instruction)

    def run(self, instructions: list[FPQAInstruction]) -> None:
        for instruction in instructions:
            self.apply(instruction)

    def _apply_raman_local(self, instruction: RamanLocal) -> None:
        if instruction.qubit not in self.qubit_location:
            raise FPQAConstraintError(
                f"@raman local targets unbound qubit {instruction.qubit}"
            )

    def _apply_raman_global(self, instruction: RamanGlobal) -> None:
        pass  # no pre-condition (Table 1)

    def _apply_rydberg(self, instruction: RydbergPulse) -> list[RydbergCluster]:
        return self.resolve_rydberg_clusters()

    def _apply_shuttle(self, instruction: Shuttle) -> None:
        self._shuttle([instruction.move])

    def _apply_parallel_shuttle(self, instruction: ParallelShuttle) -> None:
        self._shuttle(list(instruction.moves))

    # ------------------------------------------------------------------
    # Layer initialization
    # ------------------------------------------------------------------
    def _init_slm(self, instruction: SlmInit) -> None:
        if self.slm_positions:
            raise FPQAConstraintError("SLM layer is already initialized")
        positions = list(instruction.positions)
        self._check_spacing(positions, self.hardware.min_trap_spacing_um, "@slm")
        self.slm_positions = positions
        self.slm_atoms = [None] * len(positions)
        self._slm_key_index = {
            position_key(position): index
            for index, position in enumerate(positions)
        }
        self._geometry_epoch += 1

    def _init_aod(self, instruction: AodInit) -> None:
        if self.aod_col_x or self.aod_row_y:
            raise FPQAConstraintError("AOD layer is already initialized")
        for name, coords in (("column x", instruction.xs), ("row y", instruction.ys)):
            for a, b in zip(coords, coords[1:]):
                if b <= a:
                    raise FPQAConstraintError(
                        f"@aod {name} coordinates must be strictly increasing"
                    )
                if b - a < self.hardware.min_trap_spacing_um:
                    raise FPQAConstraintError(
                        f"@aod adjacent {name} coordinates closer than the "
                        f"minimum spacing ({b - a:.2f} um)"
                    )
        self.aod_col_x = list(instruction.xs)
        self.aod_row_y = list(instruction.ys)
        self._geometry_epoch += 1

    def _check_spacing(
        self, positions: list[tuple[float, float]], spacing: float, what: str
    ) -> None:
        """Pairwise minimum-distance check via a spatial hash (O(n))."""
        cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for x, y in positions:
            cell = (math.floor(x / spacing), math.floor(y / spacing))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for ox, oy in cells.get((cell[0] + dx, cell[1] + dy), ()):
                        if (x - ox) ** 2 + (y - oy) ** 2 < spacing**2 - 1e-9:
                            raise FPQAConstraintError(
                                f"{what} traps at ({ox:.2f}, {oy:.2f}) and "
                                f"({x:.2f}, {y:.2f}) violate the minimum "
                                f"spacing of {spacing} um"
                            )
            cells.setdefault(cell, []).append((x, y))

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def _bind(self, instruction: BindAtom) -> None:
        qubit = instruction.qubit
        if qubit in self.qubit_location:
            raise FPQAConstraintError(f"qubit {qubit} is already bound")
        if instruction.slm_index is not None:
            idx = instruction.slm_index
            if not 0 <= idx < len(self.slm_positions):
                raise FPQAConstraintError(f"@bind slm index {idx} out of range")
            if self.slm_atoms[idx] is not None:
                raise FPQAConstraintError(f"SLM trap {idx} already holds an atom")
            self.slm_atoms[idx] = qubit
            self.qubit_location[qubit] = ("slm", idx)
            self._geometry_epoch += 1
            return
        col, row = instruction.aod_col, instruction.aod_row
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            raise FPQAConstraintError(f"@bind aod crossing ({col}, {row}) out of range")
        if (col, row) in self.aod_atoms:
            raise FPQAConstraintError(f"AOD crossing ({col}, {row}) already holds an atom")
        self.aod_atoms[(col, row)] = qubit
        self.qubit_location[qubit] = ("aod", col, row)
        self._geometry_epoch += 1

    def _transfer(self, instruction: Transfer) -> None:
        idx, col, row = instruction.slm_index, instruction.aod_col, instruction.aod_row
        if not 0 <= idx < len(self.slm_positions):
            raise FPQAConstraintError(f"@transfer slm index {idx} out of range")
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            raise FPQAConstraintError(f"@transfer aod crossing ({col}, {row}) out of range")
        slm_pos = self.slm_positions[idx]
        aod_pos = (self.aod_col_x[col], self.aod_row_y[row])
        distance = math.dist(slm_pos, aod_pos)
        if distance > self.hardware.transfer_max_distance_um:
            raise FPQAConstraintError(
                f"@transfer between traps {distance:.2f} um apart exceeds the "
                f"maximum of {self.hardware.transfer_max_distance_um} um"
            )
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
            raise FPQAConstraintError(
                "@transfer requires exactly one occupied and one empty trap "
                f"(slm {idx} holds {slm_atom}, aod ({col}, {row}) holds {aod_atom})"
            )
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Shuttling
    # ------------------------------------------------------------------
    def _shuttle(self, moves: list[ShuttleMove]) -> None:
        new_cols = list(self.aod_col_x)
        new_rows = list(self.aod_row_y)
        for move in moves:
            coords = new_cols if move.axis == "column" else new_rows
            if not 0 <= move.index < len(coords):
                raise FPQAConstraintError(
                    f"@shuttle {move.axis} {move.index} out of range"
                )
            coords[move.index] += move.offset
        spacing = self.hardware.min_trap_spacing_um
        for name, coords in (("column", new_cols), ("row", new_rows)):
            for i, (a, b) in enumerate(zip(coords, coords[1:])):
                if b - a < spacing - 1e-9:
                    raise FPQAConstraintError(
                        f"@shuttle would bring adjacent {name}s {i} and {i + 1} "
                        f"within {b - a:.2f} um (minimum {spacing} um); "
                        "rows/columns may not cross or crowd (Table 1)"
                    )
        self.aod_col_x = new_cols
        self.aod_row_y = new_rows
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Rydberg resolution
    # ------------------------------------------------------------------
    def resolve_rydberg_clusters(self) -> list[RydbergCluster]:
        """Maximal interacting clusters under the current geometry.

        Two atoms interact when closer than the Rydberg radius; clusters
        are the connected components of the interaction graph.  A cluster
        of three or more atoms must be (approximately) equidistant for the
        digital CZ/CCZ semantics to hold (§7); otherwise the pulse is
        rejected.  Singleton clusters are unaffected by the pulse.

        The interaction graph is built from a spatial hash (radius-sized
        cells, 3x3 neighborhood probes) and the result is cached until the
        next atom movement: back-to-back pulses in the same stance — every
        mid-fragment pulse pair in the ladder/compressed schedules, and the
        wChecker's replay of them — skip resolution entirely.
        """
        if self._cluster_cache_epoch == self._geometry_epoch:
            self.cluster_cache_hits += 1
            return list(self._cluster_cache)
        self.cluster_resolutions += 1
        clusters = self._resolve_spatial_hash()
        self._cluster_cache = clusters
        self._cluster_cache_epoch = self._geometry_epoch
        return list(clusters)

    def _resolve_spatial_hash(self) -> list[RydbergCluster]:
        """Connected components via radius-cell hashing (near-linear)."""
        qubits = sorted(self.qubit_location)
        n = len(qubits)
        if n == 0:
            return []
        positions = [self.qubit_position(q) for q in qubits]
        radius = self.hardware.rydberg_radius_um
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        cells: dict[tuple[int, int], list[int]] = {}
        cells_get = cells.get
        floor = math.floor
        sqrt = math.sqrt
        for i, (x, y) in enumerate(positions):
            cell_x, cell_y = floor(x / radius), floor(y / radius)
            for dx in (-1, 0, 1):
                column = cell_x + dx
                for dy in (-1, 0, 1):
                    neighbors = cells_get((column, cell_y + dy))
                    if not neighbors:
                        continue
                    for j in neighbors:
                        ox, oy = positions[j]
                        # Same arithmetic as the dense oracle resolver
                        # (sqrt of the coordinate-square sum), so the two
                        # agree bit-for-bit at the radius boundary.
                        if sqrt((x - ox) ** 2 + (y - oy) ** 2) <= radius:
                            ri, rj = find(i), find(j)
                            if ri != rj:
                                parent[ri] = rj
            cell = (cell_x, cell_y)
            members = cells_get(cell)
            if members is None:
                cells[cell] = [i]
            else:
                members.append(i)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        clusters = []
        tol = self.hardware.equidistance_tolerance_um
        for members in groups.values():
            if len(members) < 2:
                continue
            member_qubits = tuple(qubits[i] for i in members)
            member_positions = tuple(positions[i] for i in members)
            if len(members) >= 3:
                dists = [
                    math.sqrt(
                        (positions[a][0] - positions[b][0]) ** 2
                        + (positions[a][1] - positions[b][1]) ** 2
                    )
                    for ai, a in enumerate(members)
                    for b in members[ai + 1 :]
                ]
                if max(dists) - min(dists) > tol:
                    raise FPQAConstraintError(
                        f"Rydberg cluster {member_qubits} is not equidistant "
                        f"(pairwise distances {min(dists):.2f}..{max(dists):.2f} um); "
                        "the digital C^nZ semantics does not apply (§7)"
                    )
            clusters.append(RydbergCluster(member_qubits, member_positions))
        clusters.sort(key=lambda c: c.qubits)
        return clusters
