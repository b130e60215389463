"""Evaluation runner: compile (compiler x workload) cells with budgets.

The paper's experiment harness runs each compiler over the benchmark suite
under a 20-hour timeout (§8.1).  At laptop scale the default budget is 60
seconds — the same compilers hit it in the same places (Geyser and DPQA
above 20 variables).

:class:`ResultStore` is the grid's view over one
:class:`~repro.CompilerSession`: each evaluation "compiler" name is a
registered target (``"weaver"`` is the registry alias of ``"fpqa"``),
every cell is a :class:`~repro.targets.CompilationResult`, and the
session's artifact store is the only cache.  A figure asks for a
compiler's cells together; Geyser's and DPQA's misses compile one per
CPU through ``compile_many``'s process pool.  With a ``cache_dir`` the
cells persist as ``<key>.json`` artifacts — the directory format
``weaver serve --store-dir`` also uses — so an interrupted sweep
recompiles only the cells it had not finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..targets.registry import resolve_target_name
from ..targets.result import CompilationResult
from ..targets.session import CompilerSession
from ..targets.workload import Workload
from .workloads import (
    FIXED_SIZE_INSTANCES,
    SCALING_SIZES,
    load_workload,
    scaling_instances,
)

#: Per-compiler compile budgets in seconds.  Mirrors the paper's single
#: 20 h budget, scaled to laptop runs; Geyser and DPQA genuinely exceed it
#: beyond 20 variables.
DEFAULT_BUDGETS: dict[str, float] = {
    "weaver": 300.0,
    "atomique": 300.0,
    "superconducting": 600.0,
    "geyser": 60.0,
    "dpqa": 60.0,
}

#: Sizes at which the exponential/quadratic compilers are actually
#: attempted; beyond the first timeout size they are recorded as timed out
#: without burning the budget again (monotone work growth).
ATTEMPT_LIMIT = {"geyser": 50, "dpqa": 50}


@dataclass
class EvaluationConfig:
    """Knobs for a full evaluation sweep."""

    compilers: tuple[str, ...] = (
        "superconducting",
        "atomique",
        "weaver",
        "dpqa",
        "geyser",
    )
    fixed_instances: tuple[str, ...] = FIXED_SIZE_INSTANCES
    scaling_sizes: tuple[int, ...] = SCALING_SIZES
    instances_per_size: int = 3
    budgets: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    #: Device profiles for the device-sweep axis (empty = skip the sweep).
    #: Each name must be registered in :mod:`repro.devices`.
    devices: tuple[str, ...] = ()

    @classmethod
    def quick(cls, **fields) -> "EvaluationConfig":
        """The small, fast sweep of ``run.py --quick`` and ``weaver bench``:
        three uf20 instances and one instance each of 20, 50 and 75
        variables."""
        return cls(
            fixed_instances=tuple(f"uf20-{i:02d}" for i in range(1, 4)),
            scaling_sizes=(20, 50, 75),
            instances_per_size=1,
            **fields,
        )


class ResultStore:
    """The evaluation grid over one :class:`~repro.CompilerSession`.

    ``compiler`` names are evaluation names; each resolves to a
    registered target.  ``cache_dir`` is the session's store directory
    (``None``: memory only); an existing regular file there raises
    :class:`NotADirectoryError`.
    """

    def __init__(
        self,
        config: EvaluationConfig | None = None,
        cache_dir: str | Path | None = None,
    ):
        self.config = config or EvaluationConfig()
        if cache_dir is not None and Path(cache_dir).is_file():
            raise NotADirectoryError(
                f"{cache_dir} is a file, not a store directory; JSON result "
                "stores from older versions are not read (the store is a "
                "directory of artifacts, the format of `weaver serve "
                "--store-dir`): pass a directory, or delete the file"
            )
        self.session = CompilerSession(
            budgets=self.config.budgets, cache_dir=cache_dir
        )

    def run(
        self, compiler: str, workload: str, device: str | None = None
    ) -> CompilationResult:
        """Compile one cell (cached by the session).

        ``device`` selects a registered device profile for device-aware
        compilers (the fpqa and superconducting paths); the result
        records it in ``device``.
        """
        return self.run_many(compiler, [workload], device)[0]

    def run_many(
        self, compiler: str, workloads: list[str], device: str | None = None
    ) -> list[CompilationResult]:
        """Compile one compiler's cells (cached by the session), in order.

        The exponential baselines (:data:`ATTEMPT_LIMIT`) spend most of a
        sweep waiting out their budgets, so their misses fan out one per
        CPU through :meth:`~repro.CompilerSession.compile_many`, each
        budget in its own worker.  The other compilers finish well inside
        theirs and compile in process, where rows share cached objects
        (an unpickled FPQA row holds ~40% more of them).
        """
        formulas = [load_workload(name) for name in workloads]
        limit = ATTEMPT_LIMIT.get(compiler)
        rows: list[CompilationResult | None] = [
            CompilationResult(
                target=resolve_target_name(compiler),
                workload=name,
                num_qubits=formula.num_vars,
                num_clauses=formula.num_clauses,
                compile_seconds=self.config.budgets.get(compiler, 60.0),
                timed_out=True,
            )
            if limit is not None and formula.num_vars > limit
            else None
            for name, formula in zip(workloads, formulas)
        ]
        attempt = [index for index, row in enumerate(rows) if row is None]
        if attempt:
            compiled = self.session.compile_many(
                [
                    Workload.from_formula(formulas[i], name=workloads[i])
                    for i in attempt
                ],
                compiler,
                parallel=1 if limit is None else len(attempt),
                devices=None if device is None else [device],
            )
            for index, result in zip(attempt, compiled):
                rows[index] = result
        return rows  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def fixed_size_results(self, compiler: str) -> list[CompilationResult]:
        """All ten uf20 cells for one compiler (Figures 8a/11a/12a)."""
        return self.run_many(compiler, list(self.config.fixed_instances))

    def scaling_results(
        self, compiler: str, num_vars: int
    ) -> list[CompilationResult]:
        """The cells of one scaling data point (Figures 8b/10b/11b/12b)."""
        names = scaling_instances(num_vars, self.config.instances_per_size)
        return self.run_many(compiler, list(names))

    def device_sweep_results(
        self, device: str, compiler: str = "weaver"
    ) -> list[CompilationResult]:
        """The fixed-suite cells of one device (the device-sweep axis)."""
        return self.run_many(compiler, list(self.config.fixed_instances), device)


def mean_of(values: list[float | None]) -> float | None:
    """Mean of the non-``None`` entries, or ``None`` if empty."""
    usable = [v for v in values if v is not None]
    if not usable:
        return None
    return sum(usable) / len(usable)
