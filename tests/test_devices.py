"""The device-profile subsystem: registry, validation, cost models, provenance."""

import json
import time

import pytest

import repro
from repro.devices import (
    DeviceProfile,
    cost_model_for,
    device_info,
    get_device,
    list_devices,
    load_spec_file,
    profile_from_spec,
    register_device,
)
from repro.devices.registry import resolve_device
from repro.exceptions import (
    DeviceSpecError,
    TargetError,
    UnknownDeviceError,
)
from repro.fpqa import FPQAHardwareParams
from repro.metrics import program_duration_us, program_eps
from repro.targets.result import CompilationResult

BUILTIN_FPQA = ("rubidium-baseline", "aquila-256", "rubidium-nextgen", "zone-lite-16")
BUILTIN_SC = ("washington-127", "washington-127-cal", "heavyhex-23")


def _seed_program_eps(program, hardware, duration_us):
    """Replica of the pre-devices ``program_eps``: logs taken per instruction."""
    import math

    from repro.fpqa.instructions import (
        RamanGlobal,
        RamanLocal,
        RydbergPulse,
        Transfer,
    )

    log_eps = 0.0
    previous_was_transfer = False
    for operation in program.operations:
        for instruction in operation.instructions:
            is_transfer = isinstance(instruction, Transfer)
            if is_transfer and not previous_was_transfer:
                log_eps += math.log(hardware.fidelity_transfer)
            previous_was_transfer = is_transfer
            if isinstance(instruction, RamanLocal):
                log_eps += math.log(hardware.fidelity_raman_local)
            elif isinstance(instruction, RamanGlobal):
                log_eps += math.log(hardware.fidelity_raman_global)
            elif isinstance(instruction, RydbergPulse):
                largest = max(
                    (len(gate.qubits) for gate in operation.gates), default=0
                )
                if largest >= 2:
                    log_eps += math.log(hardware.cluster_fidelity(largest))
    log_eps += -duration_us * program.num_qubits / hardware.t2_us
    if program.measured:
        log_eps += program.num_qubits * math.log(hardware.fidelity_measurement)
    return math.exp(log_eps)


class TestRegistry:
    def test_builtin_catalog(self):
        names = list_devices()
        assert len(names) >= 6
        for name in BUILTIN_FPQA + BUILTIN_SC:
            assert name in names

    def test_kind_filter(self):
        assert set(list_devices(kind="fpqa")) >= set(BUILTIN_FPQA)
        assert set(list_devices(kind="superconducting")) >= set(BUILTIN_SC)
        assert not set(list_devices(kind="fpqa")) & set(BUILTIN_SC)

    def test_aliases(self):
        assert get_device("default").name == "rubidium-baseline"
        assert get_device("washington").name == "washington-127"

    def test_unknown_device(self):
        with pytest.raises(UnknownDeviceError, match="unknown device"):
            get_device("made-up-machine")

    def test_instance_passthrough(self):
        profile = get_device("rubidium-baseline")
        assert resolve_device(profile) is profile

    def test_register_and_duplicate(self):
        profile = DeviceProfile(
            name="test-register-lab", kind="fpqa", params={"fidelity_cz": 0.993}
        )
        register_device(profile)
        try:
            assert get_device("test-register-lab") == profile
            with pytest.raises(Exception, match="already registered"):
                register_device(profile)
            register_device(profile, replace=True)  # replace is allowed
        finally:
            from repro.devices import registry

            registry._REGISTRY.pop("test-register-lab", None)

    def test_device_info_shape(self):
        infos = device_info()
        assert {info["name"] for info in infos} == set(list_devices())
        one = device_info("zone-lite-16")[0]
        assert one["kind"] == "fpqa"
        assert one["max_qubits"] == 16


class TestCompileEveryDevice:
    def test_every_fpqa_device_compiles(self, tiny_formula):
        for name in list_devices(kind="fpqa"):
            result = repro.compile(tiny_formula, target="fpqa", device=name)
            assert result.succeeded, (name, result.error)
            assert result.device == name
            assert 0.0 < result.eps <= 1.0

    def test_every_superconducting_device_compiles(self, tiny_formula):
        for name in list_devices(kind="superconducting"):
            result = repro.compile(
                tiny_formula, target="superconducting", device=name
            )
            assert result.succeeded, (name, result.error)
            assert result.device == name

    def test_target_inferred_from_device_kind(self, tiny_formula):
        result = repro.compile(tiny_formula, device="washington-127")
        assert result.target == "superconducting"

    def test_devices_rank_by_fidelity(self, tiny_formula):
        eps = {
            name: repro.compile(tiny_formula, target="fpqa", device=name).eps
            for name in ("rubidium-nextgen", "rubidium-baseline", "zone-lite-16")
        }
        assert eps["rubidium-nextgen"] > eps["rubidium-baseline"] > eps["zone-lite-16"]

    def test_capacity_enforced(self, uf20):
        with pytest.raises(repro.RoutingError, match="capacity"):
            repro.compile(uf20, target="fpqa", device="zone-lite-16")

    def test_kind_mismatch_is_target_error(self, tiny_formula):
        with pytest.raises(TargetError, match="superconducting"):
            repro.compile(tiny_formula, target="fpqa", device="washington-127")


class TestValidation:
    def test_radius_inside_spacing(self):
        with pytest.raises(DeviceSpecError, match="Rydberg radius"):
            DeviceProfile(
                name="bad", kind="fpqa",
                params={"min_trap_spacing_um": 9.0, "rydberg_radius_um": 5.0},
            )

    def test_safe_spacing_inside_radius(self):
        with pytest.raises(DeviceSpecError, match="safe spacing"):
            DeviceProfile(
                name="bad", kind="fpqa", params={"safe_spacing_um": 6.0}
            )

    def test_negative_duration(self):
        with pytest.raises(DeviceSpecError, match=">= 0"):
            DeviceProfile(
                name="bad", kind="fpqa", params={"transfer_duration_us": -1.0}
            )

    def test_fidelity_out_of_range(self):
        with pytest.raises(DeviceSpecError, match="fidelity_cz"):
            DeviceProfile(name="bad", kind="fpqa", params={"fidelity_cz": 1.2})

    def test_empty_moves_slower_than_loaded(self):
        with pytest.raises(DeviceSpecError, match="empty-trap"):
            DeviceProfile(
                name="bad", kind="fpqa",
                params={
                    "aod_speed_um_per_us": 10.0,
                    "aod_empty_speed_um_per_us": 1.0,
                },
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DeviceSpecError, match="unknown FPQA parameter"):
            DeviceProfile(name="bad", kind="fpqa", params={"warp_factor": 9})

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeviceSpecError, match="unknown kind"):
            DeviceProfile(name="bad", kind="photonic")

    def test_sc_error_out_of_range(self):
        with pytest.raises(DeviceSpecError, match="error_2q"):
            DeviceProfile(
                name="bad", kind="superconducting", params={"error_2q": 1.5}
            )

    def test_sc_unknown_coupling_kind(self):
        with pytest.raises(DeviceSpecError, match="coupling kind"):
            DeviceProfile(
                name="bad", kind="superconducting",
                params={"coupling": {"kind": "torus"}},
            )

    def test_sc_max_qubits_must_match_coupling(self):
        with pytest.raises(DeviceSpecError, match="max_qubits"):
            DeviceProfile(
                name="bad", kind="superconducting", max_qubits=5,
                params={"coupling": {"kind": "line", "num_qubits": 7}},
            )


class TestSpecFiles:
    def test_json_spec_round_trip(self, tmp_path):
        spec = {
            "name": "spec-file-device",
            "kind": "fpqa",
            "description": "from disk",
            "max_qubits": 32,
            "params": {"fidelity_ccz": 0.97},
        }
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(spec))
        profile = load_spec_file(path)
        assert profile.name == "spec-file-device"
        assert profile.params["fidelity_ccz"] == 0.97
        # Defaults are resolved into the stored parameter set.
        assert profile.params["rydberg_radius_um"] == 8.0

    def test_toml_builtin_loaded(self):
        profile = get_device("zone-lite-16")
        assert profile.source.endswith("zone-lite-16.toml")
        assert profile.hardware.aod_speed_um_per_us == 0.3

    def test_malformed_json_is_spec_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DeviceSpecError):
            load_spec_file(path)

    def test_unknown_top_level_key(self):
        with pytest.raises(DeviceSpecError, match="unknown"):
            profile_from_spec({"name": "x", "kind": "fpqa", "color": "red"})


class TestProvenance:
    def test_profile_round_trip(self):
        for name in list_devices():
            profile = get_device(name)
            assert DeviceProfile.from_dict(profile.to_dict()) == profile

    def test_result_carries_profile(self, tiny_formula):
        result = repro.compile(tiny_formula, target="fpqa", device="aquila-256")
        payload = json.loads(json.dumps(result.to_dict()))
        restored = CompilationResult.from_dict(payload)
        assert restored.device == "aquila-256"
        profile = DeviceProfile.from_dict(restored.device_profile)
        assert profile == get_device("aquila-256")
        # The reconstructed profile yields the exact hardware numbers.
        assert profile.hardware == get_device("aquila-256").hardware

    def test_deviceless_result_round_trips(self, tiny_formula):
        result = repro.compile(tiny_formula, target="fpqa")
        restored = CompilationResult.from_dict(result.to_dict())
        assert restored.device is None
        assert restored.device_profile is None


class TestCostModel:
    def test_shared_per_hardware(self):
        hw = FPQAHardwareParams()
        assert cost_model_for(hw) is cost_model_for(FPQAHardwareParams())
        profile = get_device("rubidium-baseline")
        assert profile.cost_model is cost_model_for(hw)

    def test_matches_metrics_entrypoints(self, compiled_uf20):
        program = compiled_uf20.program
        hw = FPQAHardwareParams()
        model = cost_model_for(hw)
        assert model.program_duration_us(program) == pytest.approx(
            program_duration_us(program, hw)
        )
        assert model.program_eps(program) == pytest.approx(
            program_eps(program, hw)
        )

    def test_geometry_cached_once(self):
        from repro.fpqa.geometry import zone_layout

        hw = FPQAHardwareParams()
        assert zone_layout(hw) is zone_layout(FPQAHardwareParams())
        model = cost_model_for(hw)
        assert model.geometry is model.geometry

    def test_precompute_beats_seed_path(self, compiled_uf20):
        """Repeated evaluation via the precomputed tables beats the seed path.

        The seed metrics called ``math.log(hardware.fidelity_*)`` on every
        instruction of every call; the cost model hoists those into
        per-device constants.  ``_seed_program_eps`` below is a faithful
        replica of the seed implementation: first assert the numbers are
        identical, then that the table-driven walk is faster (best of
        several rounds on both sides, so scheduler noise on a 1-CPU box
        cannot flip the comparison; the observed gap is ~1.4x).
        """
        program = compiled_uf20.program
        hw = FPQAHardwareParams()
        model = cost_model_for(hw)
        duration = model.program_duration_us(program)
        assert model.program_eps(program, duration) == pytest.approx(
            _seed_program_eps(program, hw, duration), rel=1e-12
        )

        def best_of(func, rounds, evaluations):
            times = []
            for _ in range(rounds):
                start = time.perf_counter()
                for _ in range(evaluations):
                    func()
                times.append(time.perf_counter() - start)
            return min(times)

        def measure(rounds, evaluations):
            seed = best_of(
                lambda: _seed_program_eps(program, hw, duration),
                rounds, evaluations,
            )
            table = best_of(
                lambda: model.program_eps(program, duration), rounds, evaluations,
            )
            return seed, table

        model.program_eps(program, duration)  # warm the interpreter
        seed_time, table_time = measure(rounds=5, evaluations=20)
        if table_time >= seed_time:  # pragma: no cover — noisy-runner fallback
            # One preempted round shouldn't fail CI: re-measure longer so
            # the ~1.4x structural gap dominates scheduler noise.
            seed_time, table_time = measure(rounds=7, evaluations=100)
        assert table_time < seed_time


class TestSessionDeviceSweep:
    def test_grid_order_and_cache(self, tiny_formula):
        session = repro.CompilerSession()
        devices = ["rubidium-baseline", "rubidium-nextgen"]
        rows = session.compile_many([tiny_formula], targets="fpqa", devices=devices)
        assert [row.device for row in rows] == devices
        assert all(row.succeeded for row in rows)
        again = session.compile_many(
            [tiny_formula], targets="fpqa", devices=devices
        )
        assert all(row.cached for row in again)

    def test_device_on_unsupporting_target_is_error_row(self, tiny_formula):
        session = repro.CompilerSession()
        rows = session.compile_many(
            [tiny_formula], targets="atomique", devices=["rubidium-baseline"]
        )
        assert rows[0].error is not None
        assert "device" in rows[0].error

    def test_session_compile_single_device(self, tiny_formula):
        session = repro.CompilerSession()
        row = session.compile(tiny_formula, target="fpqa", device="aquila-256")
        assert row.device == "aquila-256"
        assert session.compile(
            tiny_formula, target="fpqa", device="aquila-256"
        ).cached


class TestEvaluationDeviceAxis:
    def test_result_store_device_cells(self):
        from repro.evaluation import EvaluationConfig, ResultStore

        config = EvaluationConfig(
            fixed_instances=("uf20-01",), devices=("rubidium-nextgen",)
        )
        store = ResultStore(config)
        rows = store.device_sweep_results("rubidium-nextgen")
        assert (rows[0].target, rows[0].device) == ("fpqa", "rubidium-nextgen")
        assert rows[0].succeeded
        assert rows[0].device_profile["name"] == "rubidium-nextgen"
        # Cached: a second call does not recompile.
        assert store.device_sweep_results("rubidium-nextgen")[0] is rows[0]

    def test_device_sweep_table(self):
        from repro.evaluation import EvaluationConfig, ResultStore
        from repro.evaluation.artifact import device_sweep_table

        config = EvaluationConfig(
            fixed_instances=("uf20-01",),
            devices=("rubidium-baseline", "rubidium-nextgen"),
        )
        store = ResultStore(config)
        rows = device_sweep_table(store, config.devices)
        assert [row["device"] for row in rows] == list(config.devices)
        assert rows[1]["eps"] > rows[0]["eps"]
