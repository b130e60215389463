"""Exception hierarchy for the Weaver reproduction.

Every package raises a subclass of :class:`WeaverError` so that callers can
catch framework errors without also swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class WeaverError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(WeaverError):
    """Invalid circuit construction or manipulation (bad qubit index, ...)."""


class SimulationError(WeaverError):
    """Unitary/statevector simulation cannot proceed (too many qubits, ...)."""


class QasmSyntaxError(WeaverError):
    """OpenQASM / wQasm source text failed to lex or parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class QasmSemanticError(WeaverError):
    """OpenQASM / wQasm source parsed but violates semantic rules."""


class AnnotationError(WeaverError):
    """A wQasm FPQA annotation violates its pre-condition (Table 1)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line


class FPQAConstraintError(WeaverError):
    """An FPQA device operation violates a hardware constraint.

    Examples: AOD rows crossing during a shuttle, traps closer than the
    minimum spacing, transferring onto an occupied trap.  A Table-1 check
    of :class:`~repro.fpqa.device.FPQADevice` sets ``code`` to the wLint
    rule it maps to (``"WL###"``) and ``qubits`` to the qubits involved;
    other raisers leave them ``None`` and empty.
    """

    def __init__(
        self, message: str, code: str | None = None, qubits: tuple[int, ...] = ()
    ) -> None:
        super().__init__(message)
        self.code = code
        self.qubits = qubits


class SatError(WeaverError):
    """Malformed CNF formula or DIMACS input."""


class ColoringError(WeaverError):
    """Graph coloring produced or received invalid data."""


class CompilationError(WeaverError):
    """A compiler pipeline could not produce a valid program."""


class CompilationTimeout(CompilationError):
    """A compiler exceeded its time budget (Geyser/DPQA on large inputs)."""

    def __init__(self, compiler: str, budget_seconds: float):
        super().__init__(
            f"{compiler} exceeded its compilation budget of {budget_seconds:.3g}s"
        )
        self.compiler = compiler
        self.budget_seconds = budget_seconds


class RoutingError(CompilationError):
    """Qubit mapping/routing failed (disconnected coupling map, ...)."""


class EquivalenceError(WeaverError):
    """wChecker determined two programs are not functionally equivalent."""


class VerificationError(WeaverError):
    """wChecker could not complete verification (unsupported instruction...)."""


class AnalysisError(WeaverError):
    """The static analyzer (wLint) was misused (bad options, no artifact)."""


class TargetError(WeaverError):
    """A compilation target was misused (wrong workload kind, bad options)."""


class UnknownTargetError(TargetError, KeyError):
    """A target name was not found in the registry.

    Also a :class:`KeyError`, matching the registry-lookup contract the
    evaluation harness has always exposed.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown target {name!r}{hint}")
        self.name = name
        self.available = available


class WorkloadError(WeaverError):
    """A workload could not be constructed or is unusable for a target."""


class ProtocolError(WeaverError):
    """A protocol line was malformed or used an unknown op/kind."""


class DeviceError(WeaverError):
    """A device profile was misused (wrong kind for a target, bad options)."""


class DeviceSpecError(DeviceError):
    """A device spec is malformed or physically inconsistent.

    Examples: Rydberg radius below the trap spacing, negative durations,
    fidelities outside ``[0, 1]``, a disconnected coupling map.
    """


class UnknownDeviceError(DeviceError, KeyError):
    """A device name was not found in the registry.

    Also a :class:`KeyError`, mirroring :class:`UnknownTargetError`.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown device {name!r}{hint}")
        self.name = name
        self.available = available
