"""One compile request: what every front end canonicalizes, keys and runs.

``repro.compile``, :class:`~repro.CompilerSession` and
:class:`~repro.service.CompilationService` all turn their arguments into
one frozen :class:`CompileRequest`:

* ``.key`` is the single content address.  The session cache, the
  :class:`~repro.targets.artifacts.ArtifactStore`, the service's
  in-flight dedup and journal replay all use it, so a cache directory
  written by a session serves hits to ``weaver serve --store-dir`` and
  the reverse.
* :meth:`CompileRequest.to_wire` / :meth:`CompileRequest.from_wire` are
  the ``submit`` fields of the socket protocol, which are also the job
  journal's ``submit`` record.
* :func:`run_request` is the one unit of work (compile, then optionally
  simulate and analyze) behind a session cell and a service job alike;
  :func:`execute` is the body it shares with ``repro.compile``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Any

from ..exceptions import (
    AnalysisError,
    ProtocolError,
    SimulationError,
    TargetError,
    WeaverError,
    WorkloadError,
)
from ..qaoa.builder import QaoaParameters
from ..telemetry.trace import span as _span
from .base import Target
from .registry import get_target, resolve_target_name
from .result import CompilationResult, jsonify
from .workload import Workload, coerce_workload

#: What :meth:`CompileRequest.from_wire` fills in when no session or
#: service supplies defaults (a client, or a test replaying a line).
_NO_DEFAULTS = SimpleNamespace(parameters=None, budgets={}, target_options={})


# ----------------------------------------------------------------------
# Option canonicalization (re-exported by repro.sim and repro.analysis;
# here so that building a request never imports the simulator or the
# analyzer)
# ----------------------------------------------------------------------
#: Default shot count for every simulation entry point.
DEFAULT_SHOTS = 1024

#: Default cap on exactly-replayed error trajectories per run.
DEFAULT_MAX_TRAJECTORIES = 8

#: Keys accepted in a ``simulate=`` options dict.
_SIM_OPTION_KEYS = ("shots", "noise", "seed", "max_trajectories")


def canonical_sim_options(simulate: Any) -> dict | None:
    """Normalize a ``simulate=`` argument into a canonical options dict.

    ``None``/``False`` disable simulation; ``True`` selects the
    defaults; a dict may set ``shots``, ``noise``, ``seed`` and
    ``max_trajectories``.  The canonical form is JSON-stable (it keys
    session caches and service artifacts), so ``seed`` must be an
    integer here, not a Generator.
    """
    if simulate is None or simulate is False:
        return None
    options: dict[str, Any] = {
        "shots": DEFAULT_SHOTS,
        "noise": 1.0,
        "seed": 0,
        "max_trajectories": DEFAULT_MAX_TRAJECTORIES,
    }
    if simulate is True:
        return options
    if not isinstance(simulate, dict):
        raise SimulationError(
            f"simulate must be a bool or an options dict, got "
            f"{type(simulate).__name__}"
        )
    unknown = set(simulate) - set(_SIM_OPTION_KEYS)
    if unknown:
        raise SimulationError(
            f"unknown simulate option(s): {', '.join(sorted(unknown))} "
            f"(expected {', '.join(_SIM_OPTION_KEYS)})"
        )
    options.update(simulate)
    if not isinstance(options["shots"], int) or options["shots"] < 1:
        raise SimulationError(
            f"simulate shots must be a positive integer, got {options['shots']!r}"
        )
    seed = options["seed"]
    if seed is not None and not isinstance(seed, int):
        raise SimulationError(
            "simulate seed must be an integer (a Generator cannot key a "
            "cache); pass it to simulate_result directly instead"
        )
    noise = options["noise"]
    if noise is not None and not isinstance(noise, (int, float)):
        raise SimulationError(
            f"simulate noise must be a number or None, got {noise!r}"
        )
    return options


#: Keys accepted in an ``analyze=`` options dict (reserved: the analyzer
#: currently takes no tuning knobs).
_ANALYZE_OPTION_KEYS: tuple[str, ...] = ()


def canonical_analyze_options(analyze: Any) -> dict | None:
    """Normalize an ``analyze=`` argument into a canonical options dict.

    ``None``/``False`` disable analysis; ``True`` or ``{}`` select the
    defaults.  The canonical form is JSON-stable — it keys session
    caches and service artifacts, exactly like
    :func:`canonical_sim_options`.
    """
    if analyze is None or analyze is False:
        return None
    if analyze is True:
        return {}
    if not isinstance(analyze, dict):
        raise AnalysisError(
            f"analyze must be a bool or an options dict, got "
            f"{type(analyze).__name__}"
        )
    unknown = set(analyze) - set(_ANALYZE_OPTION_KEYS)
    if unknown:
        raise AnalysisError(
            f"unknown analyze option(s): {', '.join(sorted(unknown))}"
        )
    return dict(analyze)


def workload_to_payload(workload: Workload) -> dict:
    """Serialize a workload's full content for the wire."""
    if workload.formula is not None:
        from ..sat.dimacs import to_dimacs

        payload = {
            "kind": "cnf",
            "name": workload.name,
            "text": to_dimacs(workload.formula),
        }
        # DIMACS has no clause weights; a weighted MAX-SAT formula lists
        # them beside the text (plain formulas keep their three fields).
        weights = [clause.weight for clause in workload.formula.clauses]
        if any(weight != 1.0 for weight in weights):
            payload["weights"] = weights
        return payload
    from ..qasm import circuit_to_qasm

    return {
        "kind": "qasm",
        "name": workload.name,
        "text": circuit_to_qasm(workload.raw_circuit),
    }


def payload_to_workload(payload: Any) -> Workload:
    """Rebuild a workload from its wire form."""
    if not isinstance(payload, dict):
        raise ProtocolError("workload payload must be a JSON object")
    kind = payload.get("kind")
    text = payload.get("text")
    name = payload.get("name") or "workload"
    if not isinstance(text, str):
        raise ProtocolError("workload payload needs a 'text' string")
    if kind == "cnf":
        from ..sat.dimacs import parse_dimacs

        try:
            formula = parse_dimacs(text, name=name)
            if "weights" in payload:
                formula = _weighted(formula, payload["weights"])
            return Workload.from_formula(formula, name=name)
        except WeaverError as exc:
            raise WorkloadError(f"bad CNF workload payload: {exc}") from exc
    if kind == "qasm":
        try:
            return Workload.from_qasm(text, name=name)
        except WeaverError as exc:
            raise WorkloadError(f"bad QASM workload payload: {exc}") from exc
    raise ProtocolError(f"unknown workload kind {kind!r}; expected 'cnf' or 'qasm'")


def _weighted(formula, weights: Any):
    """``formula`` with clause ``i`` weighted ``weights[i]``."""
    from ..sat.cnf import Clause, CnfFormula

    if not isinstance(weights, list) or len(weights) != formula.num_clauses or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
    ):
        raise WorkloadError(
            f"'weights' must list one number per clause ({formula.num_clauses})"
        )
    clauses = [
        Clause(clause.literals, weight) for clause, weight in zip(formula.clauses, weights)
    ]
    return CnfFormula(num_vars=formula.num_vars, clauses=clauses, name=formula.name)


def _canonical_device(device: Any) -> Any:
    """Validate a device argument: a registry name or a DeviceProfile.

    Anything else is rejected up front rather than deep in a worker
    process.
    """
    if device is None or isinstance(device, str):
        return device
    from ..devices.profile import DeviceProfile

    if isinstance(device, DeviceProfile):
        return device
    raise TargetError(
        f"devices entries must be names or DeviceProfile instances, "
        f"got {type(device).__name__}"
    )


@dataclass(frozen=True, eq=False)
class CompileRequest:
    """One compilation request, canonicalized once at construction.

    ``__post_init__`` coerces the workload, resolves the target through
    the registry (following aliases), checks the device, and
    canonicalizes ``simulate``/``analyze``.  ``None`` or ``False``
    disables either one; anything else, ``{}`` included, enables it with
    the defaults filled in.  The key and the wire workload are computed
    on first use and cached, so treat a request as a value.

    A :class:`Target` instance (only ``repro.compile`` accepts one) is
    recorded by its name; its configuration is not part of ``.key``, and
    no cache ever sees such a request.
    """

    workload: Workload
    target: str = "fpqa"
    #: A registered device-profile name or a DeviceProfile (``None``:
    #: the target's default machine).
    device: Any = None
    parameters: QaoaParameters | None = None
    #: Target-specific compile options (``measure=False``, ...).
    options: dict = field(default_factory=dict)
    #: Target factory options (``hardware=...``); the device rides apart.
    target_options: dict = field(default_factory=dict)
    #: Compile budget in seconds (``None``: the target's default).
    budget: float | None = None
    simulate: dict | None = None
    analyze: dict | None = None

    def __post_init__(self) -> None:
        target = self.target
        canonical: dict[str, Any] = {
            "workload": coerce_workload(self.workload),
            "target": target.name
            if isinstance(target, Target)
            else resolve_target_name(target),
            "device": _canonical_device(self.device),
            "options": dict(self.options or {}),
            "target_options": dict(self.target_options or {}),
            "simulate": canonical_sim_options(self.simulate),
            "analyze": canonical_analyze_options(self.analyze),
        }
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    @classmethod
    def under(
        cls,
        defaults: Any,
        workload: Any,
        target: str = "fpqa",
        timeout: float | None = None,
        **fields: Any,
    ) -> "CompileRequest":
        """A request under a session's or a service's ``defaults``.

        ``defaults`` supplies the QAOA ``parameters`` and the target's
        entries in its ``budgets`` and ``target_options`` tables;
        ``timeout`` overrides the budget.
        """
        name = resolve_target_name(target)
        return cls(
            workload,
            name,
            parameters=defaults.parameters,
            target_options=defaults.target_options.get(name),
            budget=timeout if timeout is not None else defaults.budgets.get(name),
            **fields,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"sim"`` for compile + execute, ``"lint"`` for compile +
        static analysis, ``"compile"`` otherwise.  A request that both
        simulates and lints counts as ``"sim"`` (the simulator dominates
        its cost)."""
        if self.simulate is not None:
            return "sim"
        if self.analyze is not None:
            return "lint"
        return "compile"

    @property
    def device_name(self) -> str | None:
        """The device as a name (profiles report their own)."""
        if self.device is None or isinstance(self.device, str):
            return self.device
        return str(self.device.name)

    @property
    def factory_options(self) -> dict:
        """Keyword arguments for the target factory, device included."""
        if self.device is None:
            return self.target_options
        return {**self.target_options, "device": self.device}

    @cached_property
    def wire_workload(self) -> dict:
        """The workload's full content as it travels and is journaled."""
        return workload_to_payload(self.workload)

    @cached_property
    def key(self) -> str:
        """Content address: hex SHA-256 over everything that shapes the
        artifact.

        The workload contributes its name as well as its content: the
        name is part of the artifact bytes (the result's ``workload``
        field and the wQasm program name), so a renamed copy is another
        artifact.  A device name contributes its full registered profile,
        so an alias and its canonical name share a key.
        """
        device = None
        if self.device is not None:
            from ..devices.registry import resolve_device

            device = resolve_device(self.device).to_dict()
        identity = {
            "workload": self.wire_workload,
            "target": self.target,
            "device": device,
            "parameters": None if self.parameters is None else repr(self.parameters),
            "options": jsonify(sorted(self.options.items())),
            "target_options": jsonify(sorted(self.target_options.items())),
            "budget": self.budget,
            "simulate": jsonify(self.simulate),
            "analyze": jsonify(self.analyze),
        }
        payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def error_row(self, error: str) -> CompilationResult:
        """A failed result row for this request (sessions and services
        report failures as rows, never as exceptions)."""
        return CompilationResult(
            target=self.target,
            workload=self.workload.name,
            num_qubits=self.workload.num_qubits,
            num_clauses=self.workload.num_clauses,
            device=self.device_name,
            error=error,
        )

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_wire(self, client: str = "default", priority: int = 0) -> dict:
        """The ``submit`` fields, in protocol order.

        The socket protocol sends them after ``"op"`` (leaving out
        ``simulate``/``analyze`` when unset); the job journal writes
        them, reordered, after its own header.  ``timeout`` carries the
        resolved budget.
        """
        return {
            "workload": self.wire_workload,
            "target": self.target,
            "device": self.device_name,
            "options": self.options,
            "client": client,
            "priority": priority,
            "timeout": self.budget,
            "simulate": self.simulate,
            "analyze": self.analyze,
        }

    @classmethod
    def from_wire(cls, message: dict, defaults: Any = None) -> "CompileRequest":
        """Rebuild a request from a protocol ``submit`` message or a
        journal ``submit`` record, rejecting malformed fields with
        :class:`~repro.exceptions.ProtocolError`.

        ``defaults`` is the receiving session or service (see
        :meth:`under`); a wire ``timeout`` overrides its budget.
        """
        workload = payload_to_workload(message.get("workload"))
        options = message.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        for name in ("simulate", "analyze"):
            value = message.get(name)
            if value is not None and not isinstance(value, (bool, dict)):
                raise ProtocolError(f"'{name}' must be true or an options object")
        return cls.under(
            defaults if defaults is not None else _NO_DEFAULTS,
            workload,
            message.get("target") or "fpqa",
            timeout=message.get("timeout"),
            device=message.get("device"),
            options=options,
            simulate=message.get("simulate"),
            analyze=message.get("analyze"),
        )


# ----------------------------------------------------------------------
# The unit of work
# ----------------------------------------------------------------------
def execute(
    runner: Target, request: CompileRequest, on_error: str = "raise"
) -> CompilationResult:
    """Compile ``request`` on ``runner``, then simulate and/or analyze.

    The body shared by :func:`repro.compile` (``on_error="raise"``) and
    :func:`run_request` (``"result"``: failures become the row's
    ``error``, a failed simulation or analysis included).
    """
    result = runner.compile(
        request.workload,
        parameters=request.parameters,
        budget_seconds=request.budget,
        on_error=on_error,
        **request.options,
    )
    if not result.succeeded:
        return result
    try:
        if request.simulate is not None:
            from ..sim import attach_simulation

            attach_simulation(result, workload=request.workload, options=request.simulate)
        if request.analyze is not None:
            from ..analysis import attach_analysis

            attach_analysis(result, options=request.analyze)
    except Exception as exc:  # noqa: BLE001 — sweeps report, never crash
        if on_error == "raise":
            raise
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_request(request: CompileRequest) -> CompilationResult:
    """Compile one request into a result row; errors never propagate.

    The unit of work behind a ``CompilerSession`` cell and a
    :mod:`repro.service` job alike.  Both run it through the one executor
    core, :class:`repro.targets.executor.Executor`; it is module-level so
    requests pickle cleanly into its process workers.
    """
    with _span(f"compile.{request.target}", workload=request.workload.name):
        try:
            runner = get_target(request.target, **request.factory_options)
        except Exception as exc:  # noqa: BLE001 — sessions report, never crash
            return request.error_row(f"{type(exc).__name__}: {exc}")
        return execute(runner, request, on_error="result")

