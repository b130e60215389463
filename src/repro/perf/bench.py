"""Compile-time benchmark runner: the repo's performance trajectory.

Measures end-to-end ``repro.compile`` wall time over a grid of problem
sizes x targets x devices and appends one run record to
``BENCH_compile.json``.  Committing the file after meaningful perf work
gives before/after numbers measured on a known machine: a change is read
against the previous committed run.

Usage::

    python -m repro.perf.bench                       # default grid
    python -m repro.perf.bench --sizes 50,150,250 --repeats 3
    python -m repro.perf.bench --output BENCH_compile.json --label "PR 3"

File format (``schema`` 1)::

    {"schema": 1, "runs": [
        {"timestamp": ..., "label": ..., "machine": {...},
         "cells": [{"target": "fpqa", "device": null, "num_vars": 150,
                    "num_clauses": 639, "seed": 7, "repeats": 3,
                    "optimized_seconds": ..., "reference_seconds": null,
                    "speedup": null, "num_pulses": ...}, ...]}]}

``reference_seconds`` and ``speedup`` are always ``null``.  Runs before
the FPQA compile lost its unoptimized reference pipeline filled them in
for FPQA cells; the fields stay so every run in a trajectory file shares
one schema.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_SIZES = (50, 100, 150, 250)
DEFAULT_OUTPUT = "BENCH_compile.json"
BENCH_SCHEMA_VERSION = 1
#: Clause/variable ratio of the hard random 3-SAT regime (SATLIB's 4.26).
CLAUSE_RATIO = 4.26


def _time_compile(build, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``build()``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - start)
    return best


def run_compile_bench(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    targets: tuple[str, ...] = ("fpqa",),
    devices: tuple[str | None, ...] = (None,),
    seed: int = 7,
    repeats: int = 2,
    verbose: bool = False,
) -> dict:
    """Measure the grid and return one run record (no file I/O)."""
    import repro
    from ..sat.generator import random_ksat

    cells = []
    for num_vars in sizes:
        formula = random_ksat(num_vars, round(num_vars * CLAUSE_RATIO), seed=seed)
        for target in targets:
            for device in devices:
                result = repro.compile(formula, target=target, device=device)
                optimized = _time_compile(
                    lambda: repro.compile(formula, target=target, device=device),
                    repeats,
                )
                cell = {
                    "target": target,
                    "device": device,
                    "num_vars": num_vars,
                    "num_clauses": formula.num_clauses,
                    "seed": seed,
                    "repeats": repeats,
                    "optimized_seconds": optimized,
                    "reference_seconds": None,
                    "speedup": None,
                    "num_pulses": result.num_pulses,
                }
                cells.append(cell)
                if verbose:
                    print(
                        f"[bench] {target}"
                        + (f"@{device}" if device else "")
                        + f" n={num_vars}: {optimized:.3f}s",
                        file=sys.stderr,
                    )
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "cells": cells,
    }


def write_bench_file(run: dict, path: str | Path = DEFAULT_OUTPUT) -> Path:
    """Append ``run`` to the trajectory file at ``path`` (creating it)."""
    path = Path(path)
    payload = {"schema": BENCH_SCHEMA_VERSION, "runs": []}
    if path.exists():
        text = path.read_text(encoding="utf-8").strip()
        if text:
            try:
                existing = json.loads(text)
            except json.JSONDecodeError:
                existing = None
            if (
                isinstance(existing, dict)
                and existing.get("schema") == BENCH_SCHEMA_VERSION
                and isinstance(existing.get("runs"), list)
            ):
                payload = existing
            else:
                # Never lose history silently: a corrupt or foreign file
                # moves aside, and the fresh run still gets written.
                backup = path.with_suffix(path.suffix + ".bak")
                backup.write_text(text + "\n", encoding="utf-8")
                print(
                    f"[bench] {path} is corrupt or has an unknown schema; "
                    f"saved it to {backup} and starting a fresh trajectory",
                    file=sys.stderr,
                )
    payload["runs"].append(run)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench", description=__doc__
    )
    parser.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated variable counts (default %(default)s)",
    )
    parser.add_argument(
        "--targets", default="fpqa", help="comma-separated target names"
    )
    parser.add_argument(
        "--devices", default="",
        help="comma-separated device profiles (empty = target default)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--label", default=None, help="tag for this run")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    targets = tuple(t for t in args.targets.split(",") if t)
    devices = tuple(d for d in args.devices.split(",") if d) or (None,)
    run = run_compile_bench(
        sizes=sizes,
        targets=targets,
        devices=devices,
        seed=args.seed,
        repeats=args.repeats,
        verbose=True,
    )
    if args.label:
        run["label"] = args.label
    path = write_bench_file(run, args.output)
    print(f"[bench] wrote {len(run['cells'])} cells to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
