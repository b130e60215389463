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
isinstance chain; :meth:`FPQADevice.handler` hands a handler to a driver
with its own dispatch table).  ``@slm`` runs one vectorized numpy pass
over the traps; the exact per-pair spacing loop runs only when that pass
flags a pair, and then reports the violations.  The same pass finds the
static trap pairs within the Rydberg radius, and the trap layer is hashed
once, so a pulse probes only the AOD-held atoms against it.  Dirty
tracking lets consecutive pulses with no movement in between reuse the
previous cluster set.  A shuttle copies only the axes it moves and checks
only the AOD gaps next to the lines it moves.  The device keeps no
instruction log: its callers already hold the program they replay or
emit.  The dense O(n^2) resolver and the full-rescan shuttle check it
replaced are kept only as test oracles (``tests/oracles/device.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

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
#: (x, y+1) in a spatial hash keyed ``(cell_x << 32) + cell_y``.
_FORWARD_CELLS = ((1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1)

#: Key offsets of a cell and its eight neighbours in the same hash.
_NEIGHBOUR_CELLS = tuple((dx << 32) + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))

#: How far the vectorized pre-passes over the SLM layer reach beyond the
#: distance they screen for, so they flag every pair the exact Python
#: arithmetic would accept.
_SLACK_UM = 1e-6


def _points(positions: Sequence[tuple[float, float]], reach: float) -> np.ndarray | None:
    """``positions`` as an ``(n, 2)`` float array for :func:`_close_pairs`.

    ``None`` when they are not all finite (x, y) pairs or lie so far out
    that ``reach``-sized cell keys would overflow 64 bits; the exact
    Python paths handle those.
    """
    try:
        points = np.array(positions, dtype=float)
    except (TypeError, ValueError):
        return None
    if points.shape != (len(positions), 2) or not np.isfinite(points).all():
        return None
    if len(points) and np.abs(points).max() >= reach * 2**30:
        return None
    return points


def _close_pairs(
    points: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` of points closer than ``reach``, each pair
    once, with their squared distances.

    Vectorized spatial hash: points land in ``reach``-sized cells, so a
    close pair sits in one cell or in two adjacent ones.  Each round
    pairs every point with the ``t``-th later point of its own cell or of
    one forward neighbour cell.
    """
    cells = np.floor(points / reach).astype(np.int64)
    keys = (cells[:, 0] << 32) + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    firsts, seconds = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for offset in (0, *_FORWARD_CELLS):
        hi = np.searchsorted(keys, keys + offset, "right")
        if offset:
            lo = np.searchsorted(keys, keys + offset, "left")
        else:
            lo = np.arange(1, len(keys) + 1)
        counts = hi - lo
        for t in range(int(counts.max(initial=0))):
            live = counts > t
            firsts.append(order[live])
            seconds.append(order[lo[live] + t])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    delta = points[first] - points[second]
    squared = (delta * delta).sum(axis=1)
    close = squared < reach * reach
    return first[close], second[close], squared[close]


def _within(a: Sequence[float], b: Sequence[float], radius: float) -> bool:
    """Whether two atoms interact: the dense oracle resolver's arithmetic
    (sqrt of the coordinate-square sum), so the two agree bit-for-bit at
    the radius boundary."""
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) <= radius


_Spot = tuple[float, float, int]  # (x, y, id)


def _sweep_pairs(spots: list[_Spot], radius: float) -> Iterator[tuple[_Spot, _Spot]]:
    """Pairs of spots within ``radius``, by a sweep in x order.

    Sorts ``spots`` in place, then compares each with the later ones up
    to a radius (plus slack) further right.
    """
    spots.sort()
    reach = radius + _SLACK_UM
    count = len(spots)
    for k in range(count):
        spot = spots[k]
        for j in range(k + 1, count):
            other = spots[j]
            if other[0] - spot[0] > reach:
                break
            if _within(spot, other, radius):
                yield spot, other


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
        #: The SLM layer as the Rydberg resolver sees it, hashed once per
        #: ``@slm`` (see :meth:`_hash_slm_layer`): radius-sized trap cells
        #: and the trap pairs within the radius.
        self._trap_cells: dict[int, list[int]] = {}
        self._static_pairs: list[tuple[int, int]] = []
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

    def handler(self, kind: type) -> Callable[[Any], list[RydbergCluster] | None]:
        """The bound method :meth:`apply` runs for instructions of type
        ``kind``; a replay loop with its own dispatch table calls it
        directly, one call fewer per step."""
        return self._handlers[kind]

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
        # The Rydberg radius is at least the minimum trap spacing (see
        # FPQAHardwareParams), so one vectorized pass over the traps at
        # the radius serves the spacing check and the resolver's static
        # trap pairs.
        reach = self.hardware.rydberg_radius_um + _SLACK_UM
        points = _points(positions, reach)
        close = None if points is None else _close_pairs(points, reach)
        self._check_spacing(positions, close)
        self.slm_positions = positions
        self.slm_atoms = [None] * len(positions)
        self._slm_key_index = None
        self._hash_slm_layer(points, close)
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

    def _check_spacing(
        self,
        positions: list[tuple[float, float]],
        close: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        """Pairwise minimum-distance check of the SLM traps.

        ``close`` holds the trap pairs the vectorized pass found, with
        their squared distances (``None`` when it could not run).  Only
        when one of them sits closer than the minimum spacing plus
        :data:`_SLACK_UM` does the exact loop (:meth:`_report_close_traps`)
        run, so a valid layout never pays for it and a faulty one is
        reported with the same findings, in the same order.
        """
        limit = (self.hardware.min_trap_spacing_um + _SLACK_UM) ** 2
        if close is None or bool((close[2] < limit).any()):
            self._report_close_traps(positions)

    def _report_close_traps(self, positions: list[tuple[float, float]]) -> None:
        """Report every trap pair closer than the minimum spacing (spatial hash)."""
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
        slm, cols, rows = self.slm_positions, self.aod_col_x, self.aod_row_y
        if not slm or not cols:
            self._violation("WL001", "@transfer before trap layers are initialized")
            return
        if not 0 <= idx < len(slm):
            self._violation("WL024", f"@transfer slm index {idx} out of range")
            return
        if not (0 <= col < len(cols) and 0 <= row < len(rows)):
            self._violation(
                "WL024", f"@transfer aod crossing ({col}, {row}) out of range"
            )
            return
        distance = math.dist(slm[idx], (cols[col], rows[row]))
        if distance > self.hardware.transfer_max_distance_um:
            # In report mode the handoff still happens: the geometry is
            # wrong, not the occupancy bookkeeping.
            self._violation(
                "WL025",
                f"@transfer between traps {distance:.2f} um apart exceeds the "
                f"maximum of {self.hardware.transfer_max_distance_um} um",
            )
        crossing = (col, row)
        slm_atom = self.slm_atoms[idx]
        aod_atom = self.aod_atoms.get(crossing)
        if slm_atom is not None and aod_atom is None:
            self.slm_atoms[idx] = None
            self.aod_atoms[crossing] = slm_atom
            self.qubit_location[slm_atom] = ("aod", col, row)
        elif slm_atom is None and aod_atom is not None:
            del self.aod_atoms[crossing]
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
        # Moves land in copies of the axes they touch, committed only
        # after the checks: a rejected shuttle (raise mode) leaves the
        # grid as it was.
        new_cols: list[float] | None = None
        new_rows: list[float] | None = None
        moved_cols: list[int] = []
        moved_rows: list[int] = []
        for move in moves:
            if move.axis == "column":
                if new_cols is None:
                    new_cols = list(self.aod_col_x)
                coords, moved = new_cols, moved_cols
            else:
                if new_rows is None:
                    new_rows = list(self.aod_row_y)
                coords, moved = new_rows, moved_rows
            index = move.index
            if not 0 <= index < len(coords):
                self._violation("WL010", f"@shuttle {move.axis} {index} out of range")
                continue
            coords[index] += move.offset
            moved.append(index)
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
            assert coords is not None
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
        if new_cols is not None:
            self.aod_col_x = new_cols
        if new_rows is not None:
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

    def _hash_slm_layer(
        self,
        points: np.ndarray | None,
        close: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        """Hash the static SLM trap layer for the Rydberg resolver.

        Traps land in radius-sized cells keyed by one int,
        ``(cell_x << 32) + cell_y`` (distinct while ``|cell_y| < 2**31``,
        i.e. for any trap array under kilometres wide), so a neighbour
        cell is one addition away.  The trap pairs within the radius come
        from the vectorized pass of ``@slm`` (``points`` and ``close``;
        ``None`` when it could not run), decided by the resolver's exact
        arithmetic.
        """
        positions = self.slm_positions
        radius = self.hardware.rydberg_radius_um
        if points is None or close is None:
            floor = math.floor
            keys = [(floor(x / radius) << 32) + floor(y / radius) for x, y in positions]
            spots = [(x, y, index) for index, (x, y) in enumerate(positions)]
            self._static_pairs = [(a[2], b[2]) for a, b in _sweep_pairs(spots, radius)]
        else:
            cells = np.floor(points / radius).astype(np.int64)
            keys = ((cells[:, 0] << 32) + cells[:, 1]).tolist()
            first, second, squared = close
            near = squared <= (radius + _SLACK_UM) ** 2
            self._static_pairs = [
                (i, j)
                for i, j in zip(first[near].tolist(), second[near].tolist())
                if _within(positions[i], positions[j], radius)
            ]
        trap_cells: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            members = trap_cells.get(key)
            if members is None:
                trap_cells[key] = [index]
            else:
                members.append(index)
        self._trap_cells = trap_cells

    def _resolve_spatial_hash(self) -> list[RydbergCluster]:
        """Connected components of the interaction graph (near-linear).

        SLM traps never move, so the trap pairs within the radius are
        found once per ``@slm`` (:meth:`_hash_slm_layer`) and a pulse keeps
        those whose traps both hold an atom.  Each AOD-held atom probes
        the trap cells around its own, and the AOD atoms meet each other
        in a sweep in x order.  Only the atoms in some pair are sorted
        and grouped.
        """
        trap_cells = self._trap_cells
        slm, slm_atoms = self.slm_positions, self.slm_atoms
        cols, rows = self.aod_col_x, self.aod_row_y
        radius = self.hardware.rydberg_radius_um
        sqrt = math.sqrt
        #: qubit -> position, for every atom in some interacting pair.
        position: dict[int, tuple[float, float]] = {}
        pairs: list[tuple[int, int]] = []
        for i, j in self._static_pairs:
            a, b = slm_atoms[i], slm_atoms[j]
            if a is not None and b is not None:
                pairs.append((a, b))
                position[a] = slm[i]
                position[b] = slm[j]
        floor = math.floor
        held: list[_Spot] = []
        for (col, row), qubit in self.aod_atoms.items():
            x, y = cols[col], rows[row]
            held.append((x, y, qubit))
            key = (floor(x / radius) << 32) + floor(y / radius)
            for offset in _NEIGHBOUR_CELLS:
                for trap in trap_cells.get(key + offset, ()):
                    other = slm_atoms[trap]
                    if other is None:
                        continue
                    ox, oy = slm[trap]
                    # Same arithmetic as the dense oracle resolver (sqrt
                    # of the coordinate-square sum), so the two agree
                    # bit-for-bit at the radius boundary.
                    if sqrt((x - ox) ** 2 + (y - oy) ** 2) <= radius:
                        pairs.append((qubit, other))
                        position[qubit] = (x, y)
                        position[other] = (ox, oy)
        for (x, y, a), (ox, oy, b) in _sweep_pairs(held, radius):
            pairs.append((a, b))
            position[a] = (x, y)
            position[b] = (ox, oy)
        if not pairs:
            return []
        parent: dict[int, int] = {}

        def find(i: int) -> int:
            while (up := parent.get(i, i)) != i:
                i = up
            return i

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for qubit in sorted(position):
            groups.setdefault(find(qubit), []).append(qubit)
        clusters = []
        tol = self.hardware.equidistance_tolerance_um
        for members in groups.values():
            if len(members) == 2:  # most clusters: no equidistance to check
                a, b = members
                clusters.append(RydbergCluster((a, b), (position[a], position[b])))
                continue
            spots = [position[qubit] for qubit in members]
            dists = [
                sqrt((x - ox) ** 2 + (y - oy) ** 2)
                for k, (x, y) in enumerate(spots)
                for ox, oy in spots[k + 1 :]
            ]
            clusters.append(
                RydbergCluster(
                    tuple(members), tuple(spots), max(dists) - min(dists) <= tol
                )
            )
        clusters.sort(key=lambda c: c.qubits)
        return clusters
