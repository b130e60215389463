"""Diagnostics: findings, source locations, and the analysis report.

The static analyzer (wLint) never raises on a bad program — it *reports*.
Every finding is a :class:`Diagnostic` carrying a stable rule code (see
:mod:`repro.analysis.registry`), a severity, a human-readable message,
and a :class:`SourceLocation` pointing into the wQasm operation stream.
A run's findings are collected into an :class:`AnalysisReport`, the
JSON-round-trippable artifact that rides on
:class:`~repro.CompilationResult.analysis` and the service's ``lint``
jobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

#: Bump when the serialized report layout changes so stale payloads are
#: rejected rather than misread.
ANALYSIS_SCHEMA_VERSION = 1


class Severity(str, enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the artifact is not safe to execute (the
    ``weaver lint`` CLI exits 2); ``WARNING`` findings are suspicious but
    not provably wrong; ``INFO`` findings are observations.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 2, Severity.WARNING: 1, Severity.INFO: 0}


@dataclass(frozen=True)
class SourceLocation:
    """Where in the artifact a finding points.

    ``operation`` indexes :attr:`WQasmProgram.operations` (``-1`` = the
    setup block, ``None`` = whole program); ``instruction`` indexes into
    that operation's instruction tuple.  Circuit-IR findings use
    ``operation`` as the instruction index of the circuit.
    """

    operation: int | None = None
    instruction: int | None = None

    def __str__(self) -> str:
        if self.operation is None:
            return "program"
        where = "setup" if self.operation == -1 else f"op {self.operation}"
        if self.instruction is not None:
            where += f".{self.instruction}"
        return where

    def to_dict(self) -> dict:
        return {"operation": self.operation, "instruction": self.instruction}

    @classmethod
    def from_dict(cls, payload: dict) -> "SourceLocation":
        return cls(
            operation=payload.get("operation"),
            instruction=payload.get("instruction"),
        )


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one location."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    #: Qubits involved, when the finding is about specific qubits.
    qubits: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"{self.code} [{self.severity.value}] {self.location}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
            "qubits": list(self.qubits),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Diagnostic":
        return cls(
            code=payload["code"],
            severity=Severity(payload["severity"]),
            message=payload["message"],
            location=SourceLocation.from_dict(payload.get("location") or {}),
            qubits=tuple(payload.get("qubits") or ()),
        )


#: Receives each finding of an analysis pass.
Sink = Callable[[Diagnostic], None]


@dataclass
class AnalysisReport:
    """Outcome of one static-analysis run over one compiled artifact."""

    artifact: str = ""
    num_qubits: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Rule codes that actually executed (provenance: a clean report is
    #: only as strong as the rules that ran).
    rules_run: tuple[str, ...] = ()
    instructions_scanned: int = 0
    analysis_seconds: float = 0.0
    #: Pass-specific extras (cluster counts, recomputed metrics, ...).
    stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """``True`` when no error-severity finding was reported."""
        return not self.errors

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def codes(self) -> set[str]:
        """The distinct rule codes that fired."""
        return {d.code for d in self.diagnostics}

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def summary(self) -> str:
        """One-line verdict for logs and CLI output."""
        if not self.diagnostics:
            return (
                f"{self.artifact or 'artifact'}: clean "
                f"({self.instructions_scanned} instructions, "
                f"{len(self.rules_run)} rules)"
            )
        return (
            f"{self.artifact or 'artifact'}: "
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} note(s)"
        )

    def raise_on_error(self) -> None:
        """Raise :class:`~repro.exceptions.VerificationError` on errors."""
        if not self.ok:
            from ..exceptions import VerificationError

            details = "; ".join(str(d) for d in self.errors[:5])
            raise VerificationError(details)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "artifact": self.artifact,
            "num_qubits": self.num_qubits,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "rules_run": list(self.rules_run),
            "instructions_scanned": self.instructions_scanned,
            "analysis_seconds": self.analysis_seconds,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisReport":
        if payload.get("schema") != ANALYSIS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported analysis schema {payload.get('schema')!r}"
            )
        return cls(
            artifact=payload.get("artifact", ""),
            num_qubits=payload.get("num_qubits", 0),
            diagnostics=[
                Diagnostic.from_dict(d) for d in payload.get("diagnostics", [])
            ],
            rules_run=tuple(payload.get("rules_run", ())),
            instructions_scanned=payload.get("instructions_scanned", 0),
            analysis_seconds=payload.get("analysis_seconds", 0.0),
            stats=dict(payload.get("stats", {})),
        )


def format_report(report: AnalysisReport, max_findings: int = 25) -> str:
    """Render a report as the ``weaver lint`` terminal block."""
    lines = [report.summary()]
    ordered = sorted(
        report.diagnostics, key=lambda d: -d.severity.rank
    )
    for diagnostic in ordered[:max_findings]:
        lines.append(f"  {diagnostic}")
    hidden = len(ordered) - max_findings
    if hidden > 0:
        lines.append(f"  ... and {hidden} more finding(s)")
    return "\n".join(lines)
