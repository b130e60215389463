"""String-keyed target registry: the retargeting seam.

Adding a backend is one call::

    from repro.targets import register_target

    register_target("my-device", MyDeviceTarget)

after which ``repro.compile(workload, target="my-device")``, the
``weaver compile --target my-device`` CLI, and
``CompilerSession.compile_many`` all reach it with no further wiring —
the property OpenQL and the MQT collection demonstrate for growing
compiler frameworks cheaply.
"""

from __future__ import annotations

from typing import Callable

from ..baselines import AtomiqueTarget, DpqaTarget, GeyserTarget
from ..exceptions import TargetError, UnknownTargetError
from .base import Target
from .builtin import FPQATarget, NoCompressFPQATarget, SuperconductingTarget

_REGISTRY: dict[str, Callable[..., Target]] = {}
_ALIASES: dict[str, str] = {}


def register_target(
    name: str,
    factory: Callable[..., Target],
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a target factory under ``name`` (plus optional aliases)."""
    if not replace and name in _REGISTRY:
        raise TargetError(f"target {name!r} is already registered")
    _REGISTRY[name] = factory
    for alias in aliases:
        _ALIASES[alias] = name


def resolve_target_name(name: str) -> str:
    """Canonical registry key for ``name`` (follows aliases)."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise UnknownTargetError(name, available=tuple(available_targets()))
    return canonical


def canonical_target_table(table: dict | None, what: str) -> dict:
    """A per-target table (budgets, target options) keyed by canonical
    names, so an entry under an alias (``"weaver"``) applies to its
    target (``"fpqa"``).

    An unregistered key, or an alias given together with its canonical
    name, raises :class:`~repro.exceptions.TargetError`.
    """
    canonical: dict = {}
    for name, value in (table or {}).items():
        key = resolve_target_name(name)
        if key in canonical:
            raise TargetError(
                f"{what} has two entries for target {key!r} "
                "(a name and its alias); keep one"
            )
        canonical[key] = value
    return canonical


def get_target(name: str | Target, **options) -> Target:
    """Instantiate a registered target (or pass an instance through)."""
    if isinstance(name, Target):
        if options:
            raise TargetError(
                "target options are only accepted with a target *name*; "
                f"got a {type(name).__name__} instance plus options {sorted(options)}"
            )
        return name
    return _REGISTRY[resolve_target_name(name)](**options)


def available_targets() -> list[str]:
    """Sorted canonical target names."""
    return sorted(_REGISTRY)


def target_info(name: str | None = None) -> list[dict]:
    """Describe one target, or all of them (the ``repro targets`` view).

    Uses class-level metadata when the factory exposes ``describe``
    (every :class:`Target` subclass does), so listing targets never
    constructs hardware backends; plain-function factories fall back to
    instantiating once.
    """
    names = [resolve_target_name(name)] if name else available_targets()
    return [
        _REGISTRY[key].describe()
        if hasattr(_REGISTRY[key], "describe")
        else _REGISTRY[key]().describe()
        for key in names
    ]


# ----------------------------------------------------------------------
# Built-in registrations.  "weaver" is an alias kept for the evaluation
# harness, whose figures label the FPQA path by the system's name.
# ----------------------------------------------------------------------
register_target("fpqa", FPQATarget, aliases=("weaver",))
register_target("fpqa-nocompress", NoCompressFPQATarget)
register_target("superconducting", SuperconductingTarget)
register_target("atomique", AtomiqueTarget)
register_target("geyser", GeyserTarget)
register_target("dpqa", DpqaTarget)
