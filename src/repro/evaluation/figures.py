"""Per-figure data generators (paper §8, Figures 8 and 10-12).

Each function returns rows of plain dictionaries — the same series the
paper plots — leaving presentation to callers (the benchmark harness
prints them with :mod:`repro.evaluation.reporting`).  Timed-out cells are
reported as ``None`` values with ``timed_out=True`` — the "X" marks in the
paper's figures.
"""

from __future__ import annotations

import numpy as np

from ..fpqa.hardware import FPQAHardwareParams
from ..metrics.complexity import (
    atomique_steps,
    dpqa_log10_steps,
    geyser_steps,
    qiskit_steps,
    weaver_steps,
)
from ..qaoa.builder import qaoa_circuit
from ..targets.builtin import FPQATarget
from ..targets.workload import Workload
from .runner import ResultStore, mean_of
from .workloads import load_workload


def _metric_cell(result, attribute: str):
    if result.timed_out or result.error:
        return None
    return getattr(result, attribute)


def _fixed_rows(store: ResultStore, attribute: str, compilers) -> list[dict]:
    columns = {compiler: store.fixed_size_results(compiler) for compiler in compilers}
    rows = []
    for index, workload in enumerate(store.config.fixed_instances):
        row: dict = {"workload": workload}
        for compiler in compilers:
            row[compiler] = _metric_cell(columns[compiler][index], attribute)
        rows.append(row)
    mean_row: dict = {"workload": "Mean"}
    for compiler in compilers:
        mean_row[compiler] = mean_of([row[compiler] for row in rows])
    rows.append(mean_row)
    return rows


def _scaling_rows(store: ResultStore, attribute: str, compilers) -> list[dict]:
    rows = []
    for num_vars in store.config.scaling_sizes:
        row: dict = {"num_vars": num_vars}
        for compiler in compilers:
            cells = [
                _metric_cell(result, attribute)
                for result in store.scaling_results(compiler, num_vars)
            ]
            row[compiler] = mean_of(cells)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 8: compilation time
# ----------------------------------------------------------------------
def fig8a_compilation_fixed(store: ResultStore) -> list[dict]:
    """Fig. 8(a): compile seconds for the ten uf20 instances + mean."""
    return _fixed_rows(store, "compile_seconds", store.config.compilers)


def fig8b_compilation_scaling(store: ResultStore) -> list[dict]:
    """Fig. 8(b): compile seconds vs variable count (X = timeout)."""
    return _scaling_rows(store, "compile_seconds", store.config.compilers)


# ----------------------------------------------------------------------
# Figure 10(a): complexity comparison (analytic step counts)
# ----------------------------------------------------------------------
def fig10a_complexity(sizes: tuple[int, ...] = (20, 50, 75, 100, 150, 250)) -> list[dict]:
    """Fig. 10(a)/Table 2 curves: step counts per compiler vs size.

    ``K`` (circuit operation count) is measured from the actual QAOA
    circuits, like the paper fits Geyser's complexity from real circuits.
    DPQA's column is log10 (the raw value overflows past ~30 variables).
    """
    rows = []
    for num_vars in sizes:
        formula = load_workload(f"uf{num_vars}-01")
        num_ops = qaoa_circuit(formula).size
        rows.append(
            {
                "num_vars": num_vars,
                "num_ops_K": num_ops,
                "superconducting": qiskit_steps(num_vars),
                "atomique": atomique_steps(num_vars),
                "weaver": weaver_steps(num_vars),
                "geyser": geyser_steps(num_ops),
                "dpqa_log10": dpqa_log10_steps(num_ops),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 10(b): number of pulses
# ----------------------------------------------------------------------
def fig10b_pulses(store: ResultStore) -> list[dict]:
    """Fig. 10(b): mean pulse counts vs size for the FPQA compilers."""
    compilers = [c for c in store.config.compilers if c != "superconducting"]
    return _scaling_rows(store, "num_pulses", compilers)


# ----------------------------------------------------------------------
# Figure 10(c): CCZ fidelity threshold
# ----------------------------------------------------------------------
def fig10c_ccz_threshold(
    store: ResultStore,
    fidelities: tuple[float, ...] = (
        0.980, 0.983, 0.986, 0.989, 0.992, 0.995, 0.997, 0.999, 0.9995,
    ),
) -> dict:
    """Fig. 10(c): Weaver EPS as a function of CCZ fidelity.

    Baselines do not use CCZ gates, so their EPS is flat; the threshold is
    the smallest swept fidelity at which Weaver's mean EPS over the uf20
    suite exceeds every baseline's (the paper reports 0.9916).
    """
    baselines = {}
    for compiler in store.config.compilers:
        if compiler in ("weaver", "geyser"):
            continue  # Geyser's EPS is excluded (§8.4)
        cells = [
            _metric_cell(result, "eps")
            for result in store.fixed_size_results(compiler)
        ]
        baselines[compiler] = mean_of(cells)
    sweep = []
    for fidelity in fidelities:
        hardware = FPQAHardwareParams().with_overrides(fidelity_ccz=fidelity)
        target = FPQATarget(hardware=hardware)
        eps_values = []
        for workload in store.config.fixed_instances:
            result = target.compile(
                Workload.from_formula(load_workload(workload), name=workload)
            )
            eps_values.append(result.eps)
        sweep.append({"ccz_fidelity": fidelity, "weaver_eps": float(np.mean(eps_values))})
    best_baseline = max(
        (value for value in baselines.values() if value is not None), default=0.0
    )
    threshold = None
    for point in sweep:
        if point["weaver_eps"] > best_baseline:
            threshold = point["ccz_fidelity"]
            break
    return {
        "sweep": sweep,
        "baselines": baselines,
        "best_baseline_eps": best_baseline,
        "threshold": threshold,
    }


# ----------------------------------------------------------------------
# Figure 11: execution time
# ----------------------------------------------------------------------
def fig11a_execution_fixed(store: ResultStore) -> list[dict]:
    """Fig. 11(a): execution seconds for the ten uf20 instances + mean."""
    return _fixed_rows(store, "execution_seconds", store.config.compilers)


def fig11b_execution_scaling(store: ResultStore) -> list[dict]:
    """Fig. 11(b): execution seconds vs variable count."""
    return _scaling_rows(store, "execution_seconds", store.config.compilers)


# ----------------------------------------------------------------------
# Figure 12: fidelity (EPS)
# ----------------------------------------------------------------------
def fig12a_eps_fixed(store: ResultStore) -> list[dict]:
    """Fig. 12(a): EPS for the ten uf20 instances (Geyser excluded)."""
    compilers = [c for c in store.config.compilers if c != "geyser"]
    return _fixed_rows(store, "eps", compilers)


def fig12b_eps_scaling(store: ResultStore) -> list[dict]:
    """Fig. 12(b): EPS vs variable count (Geyser excluded)."""
    compilers = [c for c in store.config.compilers if c != "geyser"]
    return _scaling_rows(store, "eps", compilers)
