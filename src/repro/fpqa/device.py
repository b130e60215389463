"""FPQA device state machine.

Tracks trap layers, atom positions, and qubit bindings while validating
every instruction against the pre-conditions of paper Table 1.  It is
the one FPQA machine model, and three drivers share it:

* codegen: the wOptimizer drives it while lowering a circuit, so emitted
  programs are physically executable;
* the wChecker replays a wQasm annotation stream through it to learn atom
  positions before each Rydberg pulse (§6, Figure 9);
* wLint (:mod:`repro.analysis.program`) replays a program through it in
  report mode and turns every violation into a diagnostic.

Every Table-1 check goes through :meth:`FPQADevice._violation` with the
wLint rule code it maps to.  Without a sink the device *raises*
:class:`FPQAConstraintError` and leaves its state as it was before the
failing instruction.  With a sink it hands the error to the sink and
recovers the way hardware intent suggests, so one fault does not hide
every fault after it: geometry changes are applied even when flagged
(shuttles, far transfers), so later cluster checks see the positions the
program would produce; occupancy violations (double binds, invalid
transfers, out-of-range binds, transfers and moves) are skipped, since
hardware cannot perform them at all.

Hot-path notes: instruction dispatch is a ``type -> handler`` dict (not an
isinstance chain), and Rydberg cluster resolution uses a spatial-hash
neighbor query, like the trap spacing check, plus dirty tracking
(consecutive pulses with no movement in between reuse the previous cluster
set).  A shuttle checks only the AOD gaps next to the lines it moves.
The device keeps no instruction log: its callers already hold the
program they replay or emit.  The dense O(n^2) resolver and the
full-rescan shuttle check it replaced are kept only as test oracles
(``tests/oracles/device.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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

#: Receives each violation in report mode (see the module docstring).
ViolationSink = Callable[[FPQAConstraintError], None]

#: Key offsets of the cells (x+1, y-1), (x+1, y), (x+1, y+1) and
#: (x, y+1) in the Rydberg resolver's spatial hash.
_FORWARD_CELLS = ((1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1)


@dataclass(frozen=True)
class RydbergCluster:
    """A maximal group of mutually interacting atoms during a pulse.

    ``equidistant`` is false for a cluster of three or more atoms whose
    pairwise distances spread beyond the equidistance tolerance; only a
    device in report mode returns such a cluster.
    """

    qubits: tuple[int, ...]
    positions: tuple[tuple[float, float], ...]
    equidistant: bool = True

    @property
    def size(self) -> int:
        return len(self.qubits)


class FPQADevice:
    """Mutable FPQA state: trap layers and atoms.

    ``sink`` selects the error path: ``None`` raises on the first
    violated pre-condition, a callable receives every violation instead.
    """

    def __init__(
        self,
        hardware: FPQAHardwareParams | None = None,
        sink: ViolationSink | None = None,
    ) -> None:
        self.hardware = hardware or FPQAHardwareParams()
        self.sink = sink
        self.slm_positions: list[tuple[float, float]] = []
        self.slm_atoms: list[int | None] = []
        self.aod_col_x: list[float] = []
        self.aod_row_y: list[float] = []
        self.aod_atoms: dict[tuple[int, int], int] = {}
        self.qubit_location: dict[int, Location] = {}
        #: position_key -> SLM trap index; the O(1) backing of
        #: :meth:`slm_index_at`, built on its first call after ``@slm``
        #: (only codegen asks, so a replay never pays for it).
        self._slm_key_index: dict[tuple[float, float], int] | None = None
        #: Bumped on every mutation that can move an atom; the cluster
        #: cache is valid while the epoch it was computed at still holds.
        self._geometry_epoch = 0
        self._cluster_cache_epoch = -1
        self._cluster_cache: list[RydbergCluster] = []
        #: Cluster-resolution statistics (surfaced in compile profiles).
        self.cluster_cache_hits = 0
        self.cluster_resolutions = 0
        self._handlers: dict[type, Callable[[Any], list[RydbergCluster] | None]] = {
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

    def _violation(self, code: str, message: str, qubits: tuple[int, ...] = ()) -> None:
        """Raise, or report to the sink, one violated pre-condition.

        ``code`` is the wLint rule (``WL###``) the check maps to.  In
        report mode the caller goes on to recover.
        """
        error = FPQAConstraintError(message, code=code, qubits=qubits)
        if self.sink is None:
            raise error
        self.sink(error)

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
        index = self._slm_key_index
        if index is None:
            index = self._slm_key_index = {
                position_key(position): i
                for i, position in enumerate(self.slm_positions)
            }
        return index.get(position_key((x, y)))

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
            self._violation("WL001", f"unknown instruction {instruction!r}")
            return None
        return handler(instruction)

    def run(self, instructions: list[FPQAInstruction]) -> None:
        for instruction in instructions:
            self.apply(instruction)

    def _apply_raman_local(self, instruction: RamanLocal) -> None:
        qubit = instruction.qubit
        if qubit not in self.qubit_location:
            self._violation(
                "WL027", f"@raman local targets unbound qubit {qubit}", (qubit,)
            )

    def _apply_raman_global(self, instruction: RamanGlobal) -> None:
        pass  # no pre-condition (Table 1)

    def _apply_rydberg(self, instruction: RydbergPulse) -> list[RydbergCluster]:
        return self.resolve_rydberg_clusters()

    def _apply_shuttle(self, instruction: Shuttle) -> None:
        self._shuttle((instruction.move,))

    def _apply_parallel_shuttle(self, instruction: ParallelShuttle) -> None:
        seen: set[tuple[str, int]] = set()
        for move in instruction.moves:
            key = (move.axis, move.index)
            if key in seen:
                self._violation(
                    "WL012",
                    f"parallel shuttle moves the same {move.axis} {move.index} twice",
                )
            seen.add(key)
        self._shuttle(instruction.moves)

    # ------------------------------------------------------------------
    # Layer initialization
    # ------------------------------------------------------------------
    def _init_slm(self, instruction: SlmInit) -> None:
        if self.slm_positions:
            self._violation("WL002", "@slm layer is already initialized")
            return
        positions = list(instruction.positions)
        self._check_spacing(positions)
        self.slm_positions = positions
        self.slm_atoms = [None] * len(positions)
        self._slm_key_index = None
        self._geometry_epoch += 1

    def _init_aod(self, instruction: AodInit) -> None:
        if self.aod_col_x or self.aod_row_y:
            self._violation("WL002", "@aod layer is already initialized")
            return
        spacing = self.hardware.min_trap_spacing_um
        for name, coords in (("column x", instruction.xs), ("row y", instruction.ys)):
            for a, b in zip(coords, coords[1:]):
                if b <= a:
                    self._violation(
                        "WL003", f"@aod {name} coordinates must be strictly increasing"
                    )
                elif b - a < spacing:
                    self._violation(
                        "WL003",
                        f"@aod adjacent {name} coordinates closer than the "
                        f"minimum spacing ({b - a:.2f} um)",
                    )
        self.aod_col_x = list(instruction.xs)
        self.aod_row_y = list(instruction.ys)
        self._geometry_epoch += 1

    def _check_spacing(self, positions: list[tuple[float, float]]) -> None:
        """Pairwise minimum-distance check of SLM traps via a spatial hash (O(n))."""
        spacing = self.hardware.min_trap_spacing_um
        cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for x, y in positions:
            cell = (math.floor(x / spacing), math.floor(y / spacing))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for ox, oy in cells.get((cell[0] + dx, cell[1] + dy), ()):
                        if (x - ox) ** 2 + (y - oy) ** 2 < spacing**2 - 1e-9:
                            self._violation(
                                "WL003",
                                f"@slm traps at ({ox:.2f}, {oy:.2f}) and "
                                f"({x:.2f}, {y:.2f}) violate the minimum "
                                f"spacing of {spacing} um",
                            )
            cells.setdefault(cell, []).append((x, y))

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def _bind(self, instruction: BindAtom) -> None:
        qubit = instruction.qubit
        if qubit in self.qubit_location:
            self._violation("WL020", f"qubit {qubit} is already bound", (qubit,))
            return
        idx = instruction.slm_index
        if idx is not None:
            if not self.slm_positions:
                self._violation(
                    "WL001", f"@bind addresses SLM trap {idx} before @slm", (qubit,)
                )
                return
            if not 0 <= idx < len(self.slm_positions):
                self._violation("WL022", f"@bind slm index {idx} out of range", (qubit,))
                return
            occupant = self.slm_atoms[idx]
            if occupant is not None:
                self._violation(
                    "WL021",
                    f"SLM trap {idx} already holds an atom (qubit {occupant})",
                    (qubit, occupant),
                )
                return
            self.slm_atoms[idx] = qubit
            self.qubit_location[qubit] = ("slm", idx)
            self._geometry_epoch += 1
            return
        col, row = instruction.aod_col, instruction.aod_row
        assert col is not None and row is not None  # BindAtom's invariant
        if not self.aod_col_x and not self.aod_row_y:
            self._violation(
                "WL001",
                f"@bind addresses AOD crossing ({col}, {row}) before @aod",
                (qubit,),
            )
            return
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            self._violation(
                "WL022", f"@bind aod crossing ({col}, {row}) out of range", (qubit,)
            )
            return
        occupant = self.aod_atoms.get((col, row))
        if occupant is not None:
            self._violation(
                "WL021",
                f"AOD crossing ({col}, {row}) already holds an atom (qubit {occupant})",
                (qubit, occupant),
            )
            return
        self.aod_atoms[(col, row)] = qubit
        self.qubit_location[qubit] = ("aod", col, row)
        self._geometry_epoch += 1

    def _transfer(self, instruction: Transfer) -> None:
        idx, col, row = instruction.slm_index, instruction.aod_col, instruction.aod_row
        if not self.slm_positions or not self.aod_col_x:
            self._violation("WL001", "@transfer before trap layers are initialized")
            return
        if not 0 <= idx < len(self.slm_positions):
            self._violation("WL024", f"@transfer slm index {idx} out of range")
            return
        if not (0 <= col < len(self.aod_col_x) and 0 <= row < len(self.aod_row_y)):
            self._violation(
                "WL024", f"@transfer aod crossing ({col}, {row}) out of range"
            )
            return
        slm_pos = self.slm_positions[idx]
        aod_pos = (self.aod_col_x[col], self.aod_row_y[row])
        distance = math.dist(slm_pos, aod_pos)
        if distance > self.hardware.transfer_max_distance_um:
            # In report mode the handoff still happens: the geometry is
            # wrong, not the occupancy bookkeeping.
            self._violation(
                "WL025",
                f"@transfer between traps {distance:.2f} um apart exceeds the "
                f"maximum of {self.hardware.transfer_max_distance_um} um",
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
            self._violation(
                "WL023",
                "@transfer requires exactly one occupied and one empty trap "
                f"(slm {idx} holds {slm_atom}, aod ({col}, {row}) holds {aod_atom})",
                tuple(q for q in (slm_atom, aod_atom) if q is not None),
            )
            return
        self._geometry_epoch += 1

    # ------------------------------------------------------------------
    # Shuttling
    # ------------------------------------------------------------------
    def _shuttle(self, moves: Sequence[ShuttleMove]) -> None:
        # Moves land in copies, committed only after the checks: a
        # rejected shuttle (raise mode) leaves the grid as it was.
        new_cols = list(self.aod_col_x)
        new_rows = list(self.aod_row_y)
        moved_cols: set[int] = set()
        moved_rows: set[int] = set()
        for move in moves:
            if move.axis == "column":
                coords, moved = new_cols, moved_cols
            else:
                coords, moved = new_rows, moved_rows
            if not 0 <= move.index < len(coords):
                self._violation(
                    "WL010", f"@shuttle {move.axis} {move.index} out of range"
                )
                continue
            coords[move.index] += move.offset
            moved.add(move.index)
        # Every gap held the minimum spacing before this shuttle (the
        # @aod init checks them all, and so did each accepted shuttle),
        # so only a gap with a moved end can break it now.  Checking
        # those once each, in index order, columns first, reports the
        # violation a rescan of every gap would report first.
        spacing = self.hardware.min_trap_spacing_um
        for name, coords, moved in (
            ("column", new_cols, moved_cols),
            ("row", new_rows, moved_rows),
        ):
            if not moved:
                continue
            last = len(coords) - 1
            for i in sorted({left for index in moved for left in (index - 1, index)}):
                if not 0 <= i < last:
                    continue
                gap = coords[i + 1] - coords[i]
                if gap < spacing - 1e-9:
                    self._violation(
                        "WL011",
                        f"shuttle brings adjacent {name}s {i} and {i + 1} "
                        f"within {gap:.2f} um (minimum {spacing} um); "
                        "rows/columns may not cross or crowd (Table 1)",
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
        digital CZ/CCZ semantics to hold (§7); otherwise the pulse
        violates its pre-condition, on every pulse in that stance.
        Singleton clusters are unaffected by the pulse.

        The interaction graph is built from a spatial hash (radius-sized
        cells, see :meth:`_resolve_spatial_hash`) and the result is cached
        until the next atom movement: back-to-back pulses in the same
        stance — every mid-fragment pulse pair in the ladder/compressed
        schedules, and the wChecker's replay of them — skip resolution.
        """
        if self._cluster_cache_epoch == self._geometry_epoch:
            self.cluster_cache_hits += 1
        else:
            self.cluster_resolutions += 1
            self._cluster_cache = self._resolve_spatial_hash()
            self._cluster_cache_epoch = self._geometry_epoch
        for cluster in self._cluster_cache:
            if not cluster.equidistant:
                self._violation(
                    "WL042",
                    f"Rydberg cluster {list(cluster.qubits)} is not equidistant "
                    f"within {self.hardware.equidistance_tolerance_um} um; the "
                    "digital C^nZ semantics does not apply (§7)",
                    cluster.qubits,
                )
        return list(self._cluster_cache)

    def _resolve_spatial_hash(self) -> list[RydbergCluster]:
        """Connected components via radius-cell hashing (near-linear).

        Each atom lands in a radius-sized cell; a pair within the radius
        sits in one cell or in two adjacent ones, so each cell is checked
        against itself and its four "forward" neighbours, which visits
        every nearby pair once.  Cells are keyed by one int,
        ``(cell_x << 32) + cell_y`` (distinct while ``|cell_y| < 2**31``,
        i.e. for any trap array under kilometres wide), so a neighbour is
        one addition away.
        """
        location = self.qubit_location
        qubits = sorted(location)
        slm, cols, rows = self.slm_positions, self.aod_col_x, self.aod_row_y
        positions = [
            slm[loc[1]] if loc[0] == "slm" else (cols[loc[1]], rows[loc[2]])
            for loc in map(location.__getitem__, qubits)
        ]
        radius = self.hardware.rydberg_radius_um
        floor = math.floor
        cells: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(positions):
            key = (floor(x / radius) << 32) + floor(y / radius)
            members = cells.get(key)
            if members is None:
                cells[key] = [i]
            else:
                members.append(i)
        cells_get = cells.get
        sqrt = math.sqrt
        pairs: list[tuple[int, int]] = []
        for key, members in cells.items():
            if len(members) > 1:
                for k, i in enumerate(members):
                    x, y = positions[i]
                    for j in members[k + 1 :]:
                        ox, oy = positions[j]
                        # Same arithmetic as the dense oracle resolver
                        # (sqrt of the coordinate-square sum), so the
                        # two agree bit-for-bit at the radius boundary.
                        if sqrt((x - ox) ** 2 + (y - oy) ** 2) <= radius:
                            pairs.append((i, j))
            for offset in _FORWARD_CELLS:
                others = cells_get(key + offset)
                if others is None:
                    continue
                for i in members:
                    x, y = positions[i]
                    for j in others:
                        ox, oy = positions[j]
                        if sqrt((x - ox) ** 2 + (y - oy) ** 2) <= radius:
                            pairs.append((i, j))
        if not pairs:
            return []
        parent: dict[int, int] = {}

        def find(i: int) -> int:
            while (up := parent.get(i, i)) != i:
                i = up
            return i

        for i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups: dict[int, list[int]] = {}
        for i in sorted({i for pair in pairs for i in pair}):
            groups.setdefault(find(i), []).append(i)
        clusters = []
        tol = self.hardware.equidistance_tolerance_um
        for members in groups.values():
            if len(members) == 2:  # most clusters: no equidistance to check
                i, j = members
                clusters.append(
                    RydbergCluster(
                        (qubits[i], qubits[j]), (positions[i], positions[j])
                    )
                )
                continue
            dists = [
                sqrt(
                    (positions[a][0] - positions[b][0]) ** 2
                    + (positions[a][1] - positions[b][1]) ** 2
                )
                for ai, a in enumerate(members)
                for b in members[ai + 1 :]
            ]
            clusters.append(
                RydbergCluster(
                    tuple([qubits[i] for i in members]),
                    tuple([positions[i] for i in members]),
                    max(dists) - min(dists) <= tol,
                )
            )
        clusters.sort(key=lambda c: c.qubits)
        return clusters
