"""Profiling a compile: the ``repro.perf`` instrumentation subsystem.

Every FPQA compile carries a performance profile — per-pass timings,
per-primitive counts, cache hit rates — at negligible overhead, so
"where did the time go?" never requires a re-run under a profiler:

1. compile a mid-size random 3-SAT instance and print the profile table
   (the same table ``weaver compile --profile`` prints);
2. read individual counters from ``result.profile`` (a JSON-safe dict);
3. time a grid of sizes with the bench runner (the run record
   ``python -m repro.perf.bench`` appends to ``BENCH_compile.json``).

Run:  python examples/profiling.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.perf import format_profile_table, run_compile_bench
from repro.sat.generator import random_ksat


def main() -> None:
    formula = random_ksat(60, 256, seed=7)

    # 1. Every compile records a profile; no flags needed.
    result = repro.compile(formula, target="fpqa")
    print(f"Compiled {formula.name}: {result.compile_seconds * 1e3:.1f} ms\n")
    print(format_profile_table(result.profile))

    # 2. The profile is a plain dict (JSON round trip included), so
    #    dashboards and CI checks can consume it directly.
    raman = result.profile["primitives"]["raman_local"]
    angles = result.profile["caches"]["raman_angles"]
    hit_rate = angles["hits"] / (angles["hits"] + angles["misses"])
    print(f"\n{raman['count']} local Raman pulses, "
          f"{hit_rate:.1%} angle-cache hit rate")

    # 3. The bench runner measures a grid of sizes and returns the run
    #    record it would append to BENCH_compile.json (see
    #    `python -m repro.perf.bench --help` for the file-writing CLI).
    run = run_compile_bench(sizes=(20, 40), repeats=1, verbose=False)
    for cell in run["cells"]:
        print(f"  n={cell['num_vars']}: {cell['optimized_seconds']:.3f}s")


if __name__ == "__main__":
    main()
