"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but evidence for its design decisions:
(1) 3-qubit gate compression on/off, (2) DSatur vs first-fit coloring,
(3) Algorithm 2's parallel wave merging vs naive one-atom-per-wave moves.
"""

from conftest import run_once

from repro.evaluation import format_table, load_workload
from repro.fpqa import FPQAHardwareParams, zone_layout
from repro.metrics import program_duration_us, program_eps
from repro.passes import FPQACompiler
from repro.passes.clause_coloring import ClauseColoringPass
from repro.passes.color_shuttling import plan_zone_moves


def test_ablation_gate_compression(benchmark):
    """§5.4: compression halves entangling pulses and lifts EPS."""

    def run():
        rows = []
        for name in ("uf20-01", "uf20-02", "uf20-03"):
            formula = load_workload(name)
            on = FPQACompiler(compression=True).compile(formula)
            off = FPQACompiler(compression=False).compile(formula)
            rows.append(
                {
                    "workload": name,
                    "rydberg_on": on.program.pulse_counts()["rydberg"],
                    "rydberg_off": off.program.pulse_counts()["rydberg"],
                    "eps_on": program_eps(on.program),
                    "eps_off": program_eps(off.program),
                    "exec_on_s": program_duration_us(on.program) * 1e-6,
                    "exec_off_s": program_duration_us(off.program) * 1e-6,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: 3-qubit gate compression"))
    for row in rows:
        assert row["rydberg_on"] < row["rydberg_off"]
        assert row["eps_on"] > row["eps_off"]


def test_ablation_coloring_algorithm(benchmark):
    """DSatur vs greedy first-fit: fewer colors, fewer zones, better EPS."""

    def run():
        rows = []
        for name in ("uf20-01", "uf20-02", "uf20-03", "uf50-01"):
            formula = load_workload(name)
            dsatur = FPQACompiler(coloring_algorithm="dsatur").compile(formula)
            greedy = FPQACompiler(coloring_algorithm="greedy").compile(formula)
            rows.append(
                {
                    "workload": name,
                    "colors_dsatur": dsatur.stats["clause-coloring"]["num_colors"],
                    "colors_greedy": greedy.stats["clause-coloring"]["num_colors"],
                    "eps_dsatur": program_eps(dsatur.program),
                    "eps_greedy": program_eps(greedy.program),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: DSatur vs greedy coloring"))
    assert sum(r["colors_dsatur"] for r in rows) <= sum(
        r["colors_greedy"] for r in rows
    )


def test_ablation_parallel_wave_merging(benchmark):
    """Algorithm 2's order-preserving merging vs one atom per wave."""

    def run():
        rows = []
        for name in ("uf20-01", "uf50-01"):
            formula = load_workload(name)
            context_pass = ClauseColoringPass()
            from repro.passes.base import CompilationContext
            from repro.qaoa import QaoaParameters

            hardware = FPQAHardwareParams()
            context = CompilationContext(
                formula=formula,
                parameters=QaoaParameters(),
                hardware=hardware,
                geometry=zone_layout(hardware),
            )
            context_pass.run(context)
            coloring = context.properties["coloring"]
            geometry = context.geometry
            home = {
                v: geometry.home_position(v, formula.num_vars)
                for v in range(formula.num_vars)
            }
            plans, _ = plan_zone_moves(
                coloring, geometry, home, hardware.min_trap_spacing_um
            )
            merged_waves = sum(len(p.waves) for p in plans)
            total_atoms = sum(p.num_moved_atoms for p in plans)
            rows.append(
                {
                    "workload": name,
                    "merged_waves": merged_waves,
                    "naive_waves": total_atoms,  # one atom per wave
                    "saving": 1.0 - merged_waves / max(total_atoms, 1),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: Algorithm 2 wave merging"))
    for row in rows:
        assert row["merged_waves"] < row["naive_waves"]
