"""Declarative device profiles: one validated hardware description each.

A :class:`DeviceProfile` is the unit of retargeting below the target
level (paper §7 keeps the compiler hardware-agnostic behind "a class with
adjustable hardware parameters"): the same ``fpqa`` pipeline compiles for
any FPQA generation, and the ``superconducting`` pipeline for any
coupling map + calibration, by naming a profile.  Profiles are plain data
(JSON/TOML specs under ``devices/specs/``), validated on construction,
and carry a precomputed noise-aware cost model.
"""

from __future__ import annotations

import dataclasses
import functools

from ..exceptions import DeviceSpecError, WeaverError
from ..fpqa.hardware import FPQAHardwareParams
from .cost import FPQACostModel, cost_model_for

KIND_FPQA = "fpqa"
KIND_SUPERCONDUCTING = "superconducting"
KINDS = (KIND_FPQA, KIND_SUPERCONDUCTING)

_FPQA_FIELDS = {f.name for f in dataclasses.fields(FPQAHardwareParams)}

#: Superconducting spec keys besides the coupling map description.
_SC_FIELDS = {
    "duration_1q_us",
    "duration_2q_us",
    "duration_readout_us",
    "error_1q",
    "error_2q",
    "error_readout",
    "t1_us",
    "t2_us",
    "calibration_seed",
}

_COUPLING_KINDS = ("heavy-hex", "grid", "line", "edges")


def _positive(params: dict, names: tuple[str, ...], what: str) -> None:
    for name in names:
        value = params.get(name)
        if value is not None and not value > 0:
            raise DeviceSpecError(f"{what}: {name} must be positive, got {value}")


def _non_negative(params: dict, names: tuple[str, ...], what: str) -> None:
    for name in names:
        value = params.get(name)
        if value is not None and value < 0:
            raise DeviceSpecError(f"{what}: {name} must be >= 0, got {value}")


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """One concrete quantum device the framework can compile for.

    ``params`` holds the spec's hardware numbers, normalized to the full
    resolved parameter set at construction so that equality and the JSON
    round trip are stable.  Validation happens eagerly: a profile that
    constructs is guaranteed to yield working hardware/backend objects
    and a physically consistent geometry.
    """

    name: str
    kind: str
    description: str = ""
    vendor: str = ""
    generation: str = ""
    #: Qubit/atom capacity; ``None`` means unbounded at this model scale.
    max_qubits: int | None = None
    params: dict = dataclasses.field(default_factory=dict)
    #: Where the profile came from ("builtin", a spec path, or "user").
    source: str = "user"

    def __post_init__(self) -> None:
        if not self.name:
            raise DeviceSpecError("device profile needs a non-empty name")
        if self.kind not in KINDS:
            raise DeviceSpecError(
                f"device {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        if self.max_qubits is not None and self.max_qubits <= 0:
            raise DeviceSpecError(
                f"device {self.name!r}: max_qubits must be positive"
            )
        if not isinstance(self.params, dict):
            raise DeviceSpecError(
                f"device {self.name!r}: params must be an object, "
                f"not {type(self.params).__name__}"
            )
        if self.kind == KIND_FPQA:
            object.__setattr__(self, "params", self._validate_fpqa())
        else:
            object.__setattr__(self, "params", self._validate_superconducting())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_fpqa(self) -> dict:
        what = f"device {self.name!r}"
        unknown = set(self.params) - _FPQA_FIELDS
        if unknown:
            raise DeviceSpecError(
                f"{what}: unknown FPQA parameter(s): {', '.join(sorted(unknown))}"
            )
        _positive(
            self.params,
            (
                "min_trap_spacing_um",
                "rydberg_radius_um",
                "safe_spacing_um",
                "transfer_max_distance_um",
                "aod_speed_um_per_us",
                "aod_acceleration_um_per_us2",
                "aod_empty_speed_um_per_us",
                "t1_us",
                "t2_us",
            ),
            what,
        )
        _non_negative(
            self.params,
            (
                "raman_local_duration_us",
                "raman_global_duration_us",
                "rydberg_pulse_duration_us",
                "transfer_duration_us",
                "shuttle_settle_us",
                "measurement_duration_us",
                "equidistance_tolerance_um",
            ),
            what,
        )
        try:
            hardware = FPQAHardwareParams(**self.params)
        except WeaverError as exc:
            raise DeviceSpecError(f"{what}: {exc}") from exc
        except TypeError as exc:
            raise DeviceSpecError(f"{what}: {exc}") from exc
        # Cross-field physics the parameter class itself does not enforce.
        if hardware.safe_spacing_um < hardware.rydberg_radius_um:
            raise DeviceSpecError(
                f"{what}: safe spacing {hardware.safe_spacing_um} um is inside "
                f"the Rydberg radius {hardware.rydberg_radius_um} um — 'safe' "
                "atoms would still interact"
            )
        if hardware.aod_empty_speed_um_per_us < hardware.aod_speed_um_per_us:
            raise DeviceSpecError(
                f"{what}: empty-trap moves cannot be slower than loaded moves "
                f"({hardware.aod_empty_speed_um_per_us} < "
                f"{hardware.aod_speed_um_per_us} um/us)"
            )
        # A profile must admit a zone layout, or the fpqa target can never
        # place a single clause; surface that at load time, not compile time.
        try:
            from ..fpqa.geometry import zone_layout

            zone_layout(hardware)
        except WeaverError as exc:
            raise DeviceSpecError(f"{what}: no valid zone geometry: {exc}") from exc
        return dataclasses.asdict(hardware)

    def _validate_superconducting(self) -> dict:
        what = f"device {self.name!r}"
        params = dict(self.params)
        coupling_spec = params.pop("coupling", {"kind": "heavy-hex"})
        unknown = set(params) - _SC_FIELDS
        if unknown:
            raise DeviceSpecError(
                f"{what}: unknown superconducting parameter(s): "
                f"{', '.join(sorted(unknown))}"
            )
        if not isinstance(coupling_spec, dict) or "kind" not in coupling_spec:
            raise DeviceSpecError(
                f"{what}: coupling must be an object with a 'kind' key"
            )
        if coupling_spec["kind"] not in _COUPLING_KINDS:
            raise DeviceSpecError(
                f"{what}: unknown coupling kind {coupling_spec['kind']!r} "
                f"(expected one of {', '.join(_COUPLING_KINDS)})"
            )
        _positive(params, ("t1_us", "t2_us"), what)
        _non_negative(
            params,
            ("duration_1q_us", "duration_2q_us", "duration_readout_us"),
            what,
        )
        for name in ("error_1q", "error_2q", "error_readout"):
            value = params.get(name)
            if value is not None and not 0.0 <= value < 1.0:
                raise DeviceSpecError(
                    f"{what}: {name} must be in [0, 1), got {value}"
                )
        seed = params.get("calibration_seed")
        if seed is not None and not isinstance(seed, int):
            raise DeviceSpecError(f"{what}: calibration_seed must be an integer")
        resolved = dict(params)
        resolved["coupling"] = dict(coupling_spec)
        # Building the backend validates the coupling map (and, with a
        # calibration seed, the generated edge errors) end to end.
        coupling = _build_coupling(self.name, resolved["coupling"])
        if not coupling.is_connected():
            raise DeviceSpecError(f"{what}: coupling map is not connected")
        backend = self._build_backend(coupling, resolved)
        if self.max_qubits is not None and self.max_qubits != backend.num_qubits:
            raise DeviceSpecError(
                f"{what}: max_qubits {self.max_qubits} does not match the "
                f"{backend.num_qubits}-qubit coupling map"
            )
        object.__setattr__(self, "max_qubits", backend.num_qubits)
        return resolved

    # ------------------------------------------------------------------
    # Resolved hardware objects
    # ------------------------------------------------------------------
    @functools.cached_property
    def hardware(self) -> FPQAHardwareParams:
        """The FPQA parameter set (``kind == "fpqa"`` only)."""
        self._require_kind(KIND_FPQA)
        return FPQAHardwareParams(**self.params)

    @functools.cached_property
    def backend(self):
        """The superconducting backend model (``kind`` must match)."""
        self._require_kind(KIND_SUPERCONDUCTING)
        coupling = _build_coupling(self.name, self.params["coupling"])
        return self._build_backend(coupling, self.params)

    def _build_backend(self, coupling, params: dict):
        from ..superconducting.backend import SuperconductingBackend

        kwargs = {
            key: params[key]
            for key in _SC_FIELDS - {"calibration_seed"}
            if key in params
        }
        backend = SuperconductingBackend(
            name=self.name, coupling=coupling, **kwargs
        )
        seed = params.get("calibration_seed")
        if seed is not None:
            backend = backend.with_overrides(
                edge_errors=_calibration_scatter(backend, seed)
            )
        return backend

    @property
    def cost_model(self) -> FPQACostModel:
        """The precomputed FPQA cost model (shared per hardware config)."""
        return cost_model_for(self.hardware)

    def _require_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise DeviceSpecError(
                f"device {self.name!r} is a {self.kind} profile, not {kind}"
            )

    # ------------------------------------------------------------------
    # JSON round trip (result provenance)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot; :meth:`from_dict` reconstructs it exactly."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "vendor": self.vendor,
            "generation": self.generation,
            "max_qubits": self.max_qubits,
            "params": dict(self.params),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeviceProfile":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise DeviceSpecError(f"malformed device payload: {exc}") from exc

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeviceProfile):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # params is a dict; hash the identity fields
        return hash((self.name, self.kind))


def _build_coupling(device_name: str, spec: dict):
    from ..superconducting.coupling import (
        CouplingMap,
        grid_coupling,
        heavy_hex_coupling,
        line_coupling,
    )

    kind = spec["kind"]
    extra = set(spec) - {"kind", "long_rows", "row_length", "rows", "cols",
                         "num_qubits", "edges"}
    if extra:
        raise DeviceSpecError(
            f"device {device_name!r}: unknown coupling key(s): "
            f"{', '.join(sorted(extra))}"
        )
    try:
        if kind == "heavy-hex":
            return heavy_hex_coupling(
                long_rows=spec.get("long_rows", 7),
                row_length=spec.get("row_length", 15),
            )
        if kind == "grid":
            return grid_coupling(spec["rows"], spec["cols"])
        if kind == "line":
            return line_coupling(spec["num_qubits"])
        return CouplingMap(
            spec["num_qubits"], [tuple(edge) for edge in spec["edges"]]
        )
    except KeyError as exc:
        raise DeviceSpecError(
            f"device {device_name!r}: coupling kind {kind!r} needs key {exc}"
        ) from exc


def _calibration_scatter(backend, seed: int) -> dict:
    """Deterministic log-normal per-coupler error scatter (real-device-like)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    errors = {}
    for a, b in backend.coupling.edges:
        scatter = float(rng.lognormal(mean=0.0, sigma=0.6))
        errors[(min(a, b), max(a, b))] = min(backend.error_2q * scatter, 0.5)
    return errors
