"""Tests for the FPQA device state machine and hardware model (Table 1)."""

import math
import random

import pytest
from oracles.device import shuttle_full_rescan

from repro.exceptions import FPQAConstraintError
from repro.fpqa import (
    AodInit,
    BindAtom,
    FPQADevice,
    FPQAHardwareParams,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    ShuttleMove,
    SlmInit,
    Transfer,
    instruction_duration_us,
)


@pytest.fixture
def hw() -> FPQAHardwareParams:
    return FPQAHardwareParams()


@pytest.fixture
def device(hw) -> FPQADevice:
    dev = FPQADevice(hw)
    dev.apply(SlmInit(((0.0, 0.0), (20.0, 0.0), (40.0, 0.0))))
    dev.apply(AodInit((100.0, 120.0), (50.0,)))
    return dev


class TestHardwareParams:
    def test_defaults_valid(self):
        FPQAHardwareParams()

    def test_negative_spacing_rejected(self):
        with pytest.raises(FPQAConstraintError):
            FPQAHardwareParams(min_trap_spacing_um=-1.0)

    def test_radius_below_spacing_rejected(self):
        with pytest.raises(FPQAConstraintError):
            FPQAHardwareParams(min_trap_spacing_um=5.0, rydberg_radius_um=4.0)

    def test_fidelity_range_checked(self):
        with pytest.raises(FPQAConstraintError):
            FPQAHardwareParams(fidelity_cz=1.5)

    def test_with_overrides(self, hw):
        changed = hw.with_overrides(fidelity_ccz=0.99)
        assert changed.fidelity_ccz == 0.99
        assert hw.fidelity_ccz == 0.98  # original untouched

    def test_cluster_fidelity_by_size(self, hw):
        assert hw.cluster_fidelity(2) == hw.fidelity_cz
        assert hw.cluster_fidelity(3) == hw.fidelity_ccz
        assert hw.cluster_fidelity(4) == pytest.approx(hw.fidelity_ccz**2)

    def test_loaded_move_uses_acceleration_model(self, hw):
        expected = 2.0 * math.sqrt(100.0 / hw.aod_acceleration_um_per_us2)
        assert hw.shuttle_duration_us(100.0, loaded=True) == pytest.approx(
            expected + hw.shuttle_settle_us
        )

    def test_empty_move_is_fast(self, hw):
        assert hw.shuttle_duration_us(100.0, loaded=False) < hw.shuttle_duration_us(
            100.0, loaded=True
        )


class TestLayerInit:
    def test_slm_spacing_enforced(self, hw):
        dev = FPQADevice(hw)
        with pytest.raises(FPQAConstraintError):
            dev.apply(SlmInit(((0.0, 0.0), (2.0, 0.0))))

    def test_slm_double_init_rejected(self, device):
        with pytest.raises(FPQAConstraintError):
            device.apply(SlmInit(((0.0, 100.0),)))

    def test_aod_requires_increasing_coordinates(self, hw):
        dev = FPQADevice(hw)
        with pytest.raises(FPQAConstraintError):
            dev.apply(AodInit((10.0, 5.0), (0.0,)))

    def test_aod_min_gap_enforced(self, hw):
        dev = FPQADevice(hw)
        with pytest.raises(FPQAConstraintError):
            dev.apply(AodInit((0.0, 2.0), (0.0,)))


class TestBindAndTransfer:
    def test_bind_to_slm(self, device):
        device.apply(BindAtom(qubit=0, slm_index=1))
        assert device.qubit_position(0) == (20.0, 0.0)

    def test_bind_same_qubit_twice_rejected(self, device):
        device.apply(BindAtom(qubit=0, slm_index=0))
        with pytest.raises(FPQAConstraintError):
            device.apply(BindAtom(qubit=0, slm_index=1))

    def test_bind_occupied_trap_rejected(self, device):
        device.apply(BindAtom(qubit=0, slm_index=0))
        with pytest.raises(FPQAConstraintError):
            device.apply(BindAtom(qubit=1, slm_index=0))

    def test_bind_to_aod_crossing(self, device):
        device.apply(BindAtom(qubit=3, aod_col=0, aod_row=0))
        assert device.qubit_position(3) == (100.0, 50.0)

    def test_bind_requires_exactly_one_target(self):
        with pytest.raises(FPQAConstraintError):
            BindAtom(qubit=0)
        with pytest.raises(FPQAConstraintError):
            BindAtom(qubit=0, slm_index=1, aod_col=0, aod_row=0)

    def test_transfer_requires_proximity(self, device):
        device.apply(BindAtom(qubit=0, slm_index=0))
        with pytest.raises(FPQAConstraintError):
            device.apply(Transfer(slm_index=0, aod_col=0, aod_row=0))

    def test_transfer_roundtrip(self, device):
        device.apply(BindAtom(qubit=0, slm_index=0))
        # Align the AOD crossing over the trap, then lift and drop.
        device.apply(Shuttle(ShuttleMove("column", 0, -100.0)))
        device.apply(Shuttle(ShuttleMove("row", 0, -50.0)))
        device.apply(Transfer(slm_index=0, aod_col=0, aod_row=0))
        assert device.qubit_location[0] == ("aod", 0, 0)
        device.apply(Transfer(slm_index=0, aod_col=0, aod_row=0))
        assert device.qubit_location[0] == ("slm", 0)

    def test_transfer_both_empty_rejected(self, device):
        device.apply(Shuttle(ShuttleMove("column", 0, -100.0)))
        device.apply(Shuttle(ShuttleMove("row", 0, -50.0)))
        with pytest.raises(FPQAConstraintError):
            device.apply(Transfer(slm_index=0, aod_col=0, aod_row=0))


class TestShuttling:
    def test_columns_cannot_cross(self, device):
        with pytest.raises(FPQAConstraintError):
            device.apply(Shuttle(ShuttleMove("column", 0, 30.0)))

    def test_columns_cannot_crowd(self, device):
        with pytest.raises(FPQAConstraintError):
            device.apply(Shuttle(ShuttleMove("column", 0, 18.0)))

    def test_parallel_shuttle_atomic_validation(self, device):
        # Moving both columns together by the same offset keeps order.
        device.apply(
            ParallelShuttle(
                (ShuttleMove("column", 0, 30.0), ShuttleMove("column", 1, 30.0))
            )
        )
        assert device.aod_col_x == [130.0, 150.0]

    def test_parallel_shuttle_rejects_duplicate_target(self):
        with pytest.raises(FPQAConstraintError):
            ParallelShuttle(
                (ShuttleMove("row", 0, 1.0), ShuttleMove("row", 0, 2.0))
            )

    def test_shuttle_out_of_range_index(self, device):
        with pytest.raises(FPQAConstraintError):
            device.apply(Shuttle(ShuttleMove("row", 5, 1.0)))

    def test_bad_axis_rejected(self):
        with pytest.raises(FPQAConstraintError):
            ShuttleMove("diagonal", 0, 1.0)


class TestShuttleDifferential:
    """The device checks only the gaps next to moved AOD lines; the
    oracle rescans every gap.  On random shuttle sequences both must
    accept and reject the same move sets, with the same message, and
    end at the same coordinates."""

    @staticmethod
    def _random_moves(rng, device, spacing):
        moves = []
        picked = set()
        for _ in range(rng.randint(1, 4)):
            axis = rng.choice(("column", "row"))
            coords = device.aod_col_x if axis == "column" else device.aod_row_y
            # Mostly valid lines, sometimes one past either end.
            if rng.random() < 0.9:
                index = rng.randrange(len(coords))
            else:
                index = rng.choice((-1, len(coords)))
            if (axis, index) in picked:
                continue
            picked.add((axis, index))
            neighbour = (
                coords[index + 1] - coords[index]
                if 0 <= index < len(coords) - 1
                else spacing
            )
            offset = rng.choice(
                (
                    spacing * rng.uniform(-3.0, 3.0),  # free move
                    neighbour - spacing,  # exactly to the minimum
                    neighbour - spacing + 1e-3,  # crowds by a hair
                    neighbour + spacing,  # crosses the neighbour
                    -neighbour + spacing / 2,  # crowds from the other side
                    rng.choice((-1.0, 1.0)) * spacing,  # restores spacing
                )
            )
            moves.append(ShuttleMove(axis, index, offset))
        return moves

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_full_rescan(self, seed, hw):
        rng = random.Random(seed)
        spacing = hw.min_trap_spacing_um
        xs = [0.0]
        for _ in range(rng.randint(0, 7)):
            xs.append(xs[-1] + spacing * rng.choice((1.0, 1.5, 3.0)))
        ys = [0.0]
        for _ in range(rng.randint(0, 4)):
            ys.append(ys[-1] + spacing * rng.choice((1.0, 2.0)))
        device, oracle = FPQADevice(hw), FPQADevice(hw)
        for dev in (device, oracle):
            dev.apply(AodInit(tuple(xs), tuple(ys)))
        rejected = 0
        for _ in range(60):
            moves = self._random_moves(rng, device, spacing)
            if not moves:
                continue
            instruction = (
                Shuttle(moves[0]) if len(moves) == 1 else ParallelShuttle(tuple(moves))
            )
            outcomes = []
            for apply in (device.apply, lambda _: shuttle_full_rescan(oracle, moves)):
                try:
                    apply(instruction)
                    outcomes.append(None)
                except FPQAConstraintError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            rejected += outcomes[0] is not None
            assert device.aod_col_x == oracle.aod_col_x
            assert device.aod_row_y == oracle.aod_row_y
        assert 0 < rejected < 60


class TestRydberg:
    def test_pair_within_radius_clusters(self, hw):
        dev = FPQADevice(hw)
        dev.apply(SlmInit(((0.0, 0.0), (6.0, 0.0), (100.0, 0.0))))
        for qubit, idx in enumerate(range(3)):
            dev.apply(BindAtom(qubit=qubit, slm_index=idx))
        clusters = dev.apply(RydbergPulse())
        assert len(clusters) == 1
        assert clusters[0].qubits == (0, 1)

    def test_triangle_forms_ccz_cluster(self, hw):
        dev = FPQADevice(hw)
        side = 6.0
        height = side * math.sqrt(3) / 2
        dev.apply(
            SlmInit(((0.0, 0.0), (side, 0.0), (side / 2, height)))
        )
        for qubit in range(3):
            dev.apply(BindAtom(qubit=qubit, slm_index=qubit))
        clusters = dev.apply(RydbergPulse())
        assert len(clusters) == 1
        assert clusters[0].size == 3

    def test_non_equidistant_triple_rejected(self, hw):
        dev = FPQADevice(hw)
        dev.apply(SlmInit(((0.0, 0.0), (6.0, 0.0), (12.5, 0.0))))
        for qubit in range(3):
            dev.apply(BindAtom(qubit=qubit, slm_index=qubit))
        with pytest.raises(FPQAConstraintError):
            dev.apply(RydbergPulse())

    def test_isolated_atoms_ignored(self, hw):
        dev = FPQADevice(hw)
        dev.apply(SlmInit(((0.0, 0.0), (50.0, 0.0))))
        dev.apply(BindAtom(qubit=0, slm_index=0))
        dev.apply(BindAtom(qubit=1, slm_index=1))
        assert dev.apply(RydbergPulse()) == []

    def test_empty_device_pulse(self, hw):
        assert FPQADevice(hw).apply(RydbergPulse()) == []


class TestRaman:
    def test_local_requires_bound_qubit(self, device):
        with pytest.raises(FPQAConstraintError):
            device.apply(RamanLocal(7, 0.1, 0.2, 0.3))

    def test_global_has_no_precondition(self, device):
        device.apply(RamanGlobal(0.1, 0.2, 0.3))


class TestDurations:
    def test_setup_instructions_are_free(self, hw):
        assert instruction_duration_us(SlmInit(((0.0, 0.0),)), hw) == 0.0
        assert instruction_duration_us(BindAtom(qubit=0, slm_index=0), hw) == 0.0

    def test_parallel_shuttle_costs_longest_member(self, hw):
        group = ParallelShuttle(
            (ShuttleMove("column", 0, 10.0), ShuttleMove("column", 1, 90.0))
        )
        single = Shuttle(ShuttleMove("column", 1, 90.0))
        assert instruction_duration_us(group, hw) == pytest.approx(
            instruction_duration_us(single, hw)
        )

    def test_pulse_durations(self, hw):
        assert instruction_duration_us(RydbergPulse(), hw) == hw.rydberg_pulse_duration_us
        assert (
            instruction_duration_us(RamanLocal(0, 0, 0, 0), hw)
            == hw.raman_local_duration_us
        )
        assert (
            instruction_duration_us(Transfer(0, 0, 0), hw) == hw.transfer_duration_us
        )
