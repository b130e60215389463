"""``repro.devices``: declarative device profiles behind the targets.

The retargeting story has two axes: *how* to compile (a target) and
*what machine* to compile for (a device profile).  This package supplies
the second axis::

    import repro

    repro.list_devices()                       # built-in machines
    repro.compile(w, target="fpqa", device="aquila-256")

    profile = repro.get_device("rubidium-baseline")
    profile.cost_model.program_eps(program)    # precomputed tables

See :mod:`repro.devices.profile` for the schema and validation rules,
:mod:`repro.devices.loader` for the JSON/TOML spec format, and
``devices/specs/`` for the built-in machines.
"""

from .cost import FPQACostModel, ProgramCost, cost_model_for
from .loader import load_spec_file, profile_from_spec
from .profile import DeviceProfile
from .registry import (
    device_info,
    get_device,
    list_devices,
    register_device,
    resolve_device,
)

__all__ = [
    "DeviceProfile",
    "FPQACostModel",
    "ProgramCost",
    "cost_model_for",
    "device_info",
    "get_device",
    "list_devices",
    "load_spec_file",
    "profile_from_spec",
    "register_device",
    "resolve_device",
]
