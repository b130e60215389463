"""The :class:`Target` protocol: what it means to be a Weaver backend.

A target bundles (paper Figure 3, "retargetable back end"):

* **capabilities** — which workload forms it consumes and what it emits;
* **hardware parameters** — the device model the cost estimates use;
* **a default pass pipeline** — the names of the stages it runs, surfaced
  for documentation and the ``repro targets`` CLI listing.

Concrete targets implement :meth:`Target.run` and are registered by name
in :mod:`repro.targets.registry`; user code goes through
:func:`repro.compile` or :class:`repro.CompilerSession` and never
instantiates targets directly unless it wants non-default hardware.
"""

from __future__ import annotations

import abc
import time

from ..circuits import QuantumCircuit
from ..exceptions import CompilationTimeout, TargetError
from ..qaoa.builder import QaoaParameters
from ..sat.cnf import CnfFormula
from .result import CompilationResult
from .workload import Workload

#: Capability labels (a target advertises a subset).
CAP_FORMULA = "formula"  #: consumes CNF-formula workloads
CAP_CIRCUIT = "circuit"  #: consumes gate-level circuit workloads
CAP_WQASM = "wqasm"  #: emits a wQasm program
CAP_VERIFY = "verify"  #: results can be checked with the wChecker


class Deadline:
    """Cooperative timeout shared across a compiler's inner loops."""

    def __init__(self, budget_seconds: float | None, compiler: str):
        self.compiler = compiler
        self.budget_seconds = budget_seconds
        self.start = time.perf_counter()

    def check(self) -> None:
        if (
            self.budget_seconds is not None
            and time.perf_counter() - self.start > self.budget_seconds
        ):
            raise CompilationTimeout(self.compiler, self.budget_seconds)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def reject_unknown_options(target: str, options: dict) -> None:
    """Unknown target or compile options are an error, never a silent no-op."""
    if "device" in options:
        raise TargetError(
            f"target {target!r} does not support device profiles; "
            "only fpqa and superconducting targets are device-aware"
        )
    if options:
        raise TargetError(
            f"target {target!r} does not support option(s): "
            f"{', '.join(sorted(options))}"
        )


def measured_qaoa(
    target: str,
    workload: Workload,
    parameters: QaoaParameters | None,
    measure: bool,
    options: dict,
) -> tuple[CnfFormula, QuantumCircuit]:
    """A formula workload and its measured QAOA circuit.

    The lowering of the comparison compilers (Atomique, Geyser, DPQA):
    they take a CNF formula only, accept no compile options and always
    measure (paper §A.4.1).
    """
    if not measure:
        raise TargetError(
            f"target {target!r} always measures; measure=False is not supported"
        )
    reject_unknown_options(target, options)
    formula = workload.require_formula(target)
    return formula, workload.circuit(parameters, measure=True)


class Target(abc.ABC):
    """One compilation backend behind the unified ``repro.compile`` API."""

    #: Registry key, e.g. ``"fpqa"``.
    name: str = "target"
    #: One-line human description for the CLI listing.
    description: str = ""
    #: Subset of the ``CAP_*`` labels.
    capabilities: frozenset[str] = frozenset()
    #: Stage names of the default pass pipeline, for documentation.
    default_pipeline: tuple[str, ...] = ()
    #: Default per-compilation budget in seconds (``None`` = unlimited).
    default_budget_seconds: float | None = None

    @abc.abstractmethod
    def run(
        self,
        workload: Workload,
        parameters: QaoaParameters | None,
        deadline: Deadline | None,
        **options,
    ) -> CompilationResult:
        """Compile ``workload`` and return a result (raise on failure)."""

    # ------------------------------------------------------------------
    def compile(
        self,
        workload: Workload,
        parameters: QaoaParameters | None = None,
        budget_seconds: float | None = None,
        deadline: Deadline | None = None,
        on_error: str = "raise",
        **options,
    ) -> CompilationResult:
        """Compile with budget handling; the template every caller uses.

        ``on_error="raise"`` propagates compiler errors (interactive use);
        ``on_error="result"`` converts timeouts and failures into result
        rows, the behavior evaluation sweeps need (the paper's "X" cells).
        """
        if deadline is None:
            budget = (
                budget_seconds
                if budget_seconds is not None
                else self.default_budget_seconds
            )
            deadline = Deadline(budget, self.name)
        try:
            result = self.run(workload, parameters, deadline, **options)
            deadline.check()
        except CompilationTimeout:
            if on_error == "raise":
                raise
            return self._failure_row(workload, deadline, timed_out=True)
        except Exception as exc:  # noqa: BLE001 — sweep mode reports, not crashes
            if on_error == "raise":
                raise
            return self._failure_row(
                workload, deadline, error=f"{type(exc).__name__}: {exc}"
            )
        return result

    def _failure_row(
        self,
        workload: Workload,
        deadline: Deadline,
        timed_out: bool = False,
        error: str | None = None,
    ) -> CompilationResult:
        return CompilationResult(
            target=self.name,
            workload=workload.name,
            num_qubits=workload.num_qubits,
            num_clauses=workload.num_clauses,
            device=getattr(self, "device_name", None),
            compile_seconds=deadline.elapsed,
            timed_out=timed_out,
            error=error,
        )

    # ------------------------------------------------------------------
    @classmethod
    def describe(cls) -> dict:
        """Registry/CLI view of this target (class metadata only, so the
        ``targets`` listing never constructs backends)."""
        return {
            "name": cls.name,
            "description": cls.description,
            "capabilities": sorted(cls.capabilities),
            "pipeline": list(cls.default_pipeline),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
