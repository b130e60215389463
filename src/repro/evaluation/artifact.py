"""The artifact workflow of appendix §A.4.1, as a library function.

The original artifact's ``run.py`` executes eight steps: transpile
MAX-3SAT instances to QAOA circuits, run Atomique, Superconducting,
Geyser, Weaver, convert to DPQA format, run DPQA, and plot four figures.
:func:`run_artifact` reproduces that flow at laptop scale and returns (and
optionally prints) the four figures' data tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .figures import (
    fig8a_compilation_fixed,
    fig8b_compilation_scaling,
    fig10a_complexity,
    fig10b_pulses,
    fig10c_ccz_threshold,
    fig11a_execution_fixed,
    fig11b_execution_scaling,
    fig12a_eps_fixed,
    fig12b_eps_scaling,
)
from .reporting import format_table
from .runner import EvaluationConfig, ResultStore, mean_of
from .tables import table2_complexity


def device_sweep_table(store: ResultStore, devices: tuple[str, ...]) -> list[dict]:
    """Per-device means of the Weaver path over the fixed suite.

    The retargetability demonstration the paper's single-device artifact
    cannot make: one compiler, the same workloads, N machines.
    """
    rows = []
    for device in devices:
        cells = store.device_sweep_results(device)
        ok = [c for c in cells if c.succeeded]
        rows.append(
            {
                "device": device,
                "instances": len(ok),
                "compile_s": mean_of([c.compile_seconds for c in ok]),
                "execution_s": mean_of([c.execution_seconds for c in ok]),
                "eps": mean_of([c.eps for c in ok]),
                "pulses": mean_of([float(c.num_pulses) for c in ok if c.num_pulses]),
            }
        )
    return rows


@dataclass
class ArtifactReport:
    """All regenerated figure/table data plus wall-clock accounting."""

    figures: dict[str, object] = field(default_factory=dict)
    seconds_per_step: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        sections = []
        titles = {
            "fig8a": "Figure 8(a): compilation time [s], uf20 suite",
            "fig8b": "Figure 8(b): compilation time [s] vs size",
            "table2": "Table 2: compilation complexity",
            "fig10a": "Figure 10(a): complexity step counts",
            "fig10b": "Figure 10(b): number of pulses vs size",
            "fig11a": "Figure 11(a): execution time [s], uf20 suite",
            "fig11b": "Figure 11(b): execution time [s] vs size",
            "fig12a": "Figure 12(a): EPS, uf20 suite",
            "fig12b": "Figure 12(b): EPS vs size",
        }
        for key, title in titles.items():
            if key in self.figures:
                sections.append(format_table(self.figures[key], title=title))
        if "device_sweep" in self.figures:
            sections.append(
                format_table(
                    self.figures["device_sweep"],
                    title="Device sweep: Weaver path across device profiles "
                          "(fixed-suite means)",
                )
            )
        if "fig10c" in self.figures:
            data = self.figures["fig10c"]
            sections.append(
                format_table(data["sweep"], title="Figure 10(c): Weaver EPS vs CCZ fidelity")
            )
            sections.append(
                f"Fig 10(c) best baseline EPS: {data['best_baseline_eps']:.4g}; "
                f"threshold: {data['threshold']}\n"
            )
        timing = ", ".join(
            f"{k}={v:.1f}s" for k, v in self.seconds_per_step.items()
        )
        sections.append(f"step timings: {timing}\n")
        return "\n".join(sections)


def run_artifact(
    config: EvaluationConfig | None = None,
    include_ccz_sweep: bool = True,
    verbose: bool = True,
    store_path=None,
) -> ArtifactReport:
    """Execute the full evaluation and regenerate every figure/table.

    ``store_path`` is a store directory (the session ``cache_dir``):
    every compiled cell lands there as it finishes and cells already
    there are read back, so an interrupted sweep loses at most the cell
    in flight.  An existing regular file raises
    :class:`NotADirectoryError`.
    """
    store = ResultStore(config, cache_dir=store_path)
    report = ArtifactReport()

    def step(name: str, func) -> None:
        start = time.perf_counter()
        if verbose:
            print(f"[artifact] {name} ...", flush=True)
        report.figures[name] = func()
        report.seconds_per_step[name] = time.perf_counter() - start

    step("fig8a", lambda: fig8a_compilation_fixed(store))
    step("fig8b", lambda: fig8b_compilation_scaling(store))
    step("table2", table2_complexity)
    step("fig10a", fig10a_complexity)
    step("fig10b", lambda: fig10b_pulses(store))
    step("fig11a", lambda: fig11a_execution_fixed(store))
    step("fig11b", lambda: fig11b_execution_scaling(store))
    step("fig12a", lambda: fig12a_eps_fixed(store))
    step("fig12b", lambda: fig12b_eps_scaling(store))
    if include_ccz_sweep:
        step("fig10c", lambda: fig10c_ccz_threshold(store))
    if store.config.devices:
        step(
            "device_sweep",
            lambda: device_sweep_table(store, store.config.devices),
        )
    if verbose:
        print(report.render())
        lookups = store.session.stats()["caches"].get("session.results", {})
        print(
            f"[artifact] compiled {lookups.get('misses', 0)} cells; "
            f"{lookups.get('hits', 0)} lookups served from the store",
            flush=True,
        )
    return report
