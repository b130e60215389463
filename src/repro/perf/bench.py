"""The benchmark runner: two perfbench runs per workload, one trajectory.

For every workload ``BENCHMARK.json`` declares, runs the benchmark's own
``command`` (``perfbench/run.py``) twice, untraced for the end-to-end
metrics and traced for the per-layer ones, and appends one run record
to ``BENCH_perfbench.json``.  Committing the file after meaningful perf
work gives before/after numbers measured on a known machine: a change is
read against the previous committed run.  Every run uses seed ``SEED``,
so any two runs in the file measure the same inputs.

Usage (from the root of a checkout)::

    python -m repro.perf.bench                           # run_seconds each
    python -m repro.perf.bench --seconds 5 --label "ci smoke" -o scratch.json

File format (``schema`` 1)::

    {"schema": 1, "runs": [
        {"timestamp": ..., "label": ...,
         "cells": [{"provenance": {"workload": "compile-corpus",
                                   "seed": 1, "seconds": 20.0, ...},
                    "correct": true, "attempted": ..., "failed": 0,
                    "metrics": {"compile_s": {"value": ..., "unit": "s"},
                                ...},
                    "layers": {"latency_s.p90": {...}, ...}}, ...]}]}

``provenance``, ``correct``, ``attempted``, ``failed`` and ``metrics``
are the untraced run's last two output lines; ``layers`` is the traced
run's ``metrics``.  So a cell's metric names are the ones
``BENCHMARK.json`` declares as ``end_to_end`` and ``per_layer``.  If
any run exits non-zero or reports ``correct: false``, nothing is
appended and the runner exits 1.  ``BENCH_compile.json``,
``BENCH_lint.json``, ``BENCH_service.json`` and ``BENCH_telemetry.json``
are the frozen history of the runners this one replaced; perfbench's
README maps each of their numbers to a metric here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
DEFAULT_OUTPUT = "BENCH_perfbench.json"
BENCH_SCHEMA_VERSION = 1
SEED = 1

#: One perfbench run: its exit code and standard output.
Run = tuple[int, str]


def _read_run(workload: str, mode: str, run: Run) -> tuple[dict, dict]:
    """The provenance and result lines of one perfbench run;
    ``ValueError`` naming the reason when the run failed or printed no
    readable result."""
    returncode, stdout = run
    lines = stdout.strip().splitlines()
    try:
        provenance = json.loads(lines[-2])["provenance"]
        line = json.loads(lines[-1])
        result = {key: line[key] for key in ("correct", "attempted", "failed", "metrics")}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{workload} ({mode}): no result line (exit {returncode}; {exc!r})"
        ) from exc
    if returncode != 0 or result["correct"] is not True:
        raise ValueError(
            f"{workload} ({mode}): exit {returncode}, correct {result['correct']}, "
            f"{result['failed']} of {result['attempted']} failed"
        )
    return provenance, result


def bench_cell(workload: str, untraced: Run, traced: Run) -> dict:
    """The trajectory cell of one workload's untraced and traced runs;
    ``ValueError`` naming the reason when either run failed."""
    provenance, result = _read_run(workload, "untraced", untraced)
    layers = _read_run(workload, "traced", traced)[1]["metrics"]
    return {"provenance": provenance, **result, "layers": layers}


def append_run(
    outcomes: list[tuple[str, Run, Run]], label: str | None, output: str | Path
) -> int:
    """Append one run of ``(workload, untraced, traced)`` outcomes to
    ``output`` and return 0, or append nothing and return 1."""
    cells, problems = [], []
    for workload, untraced, traced in outcomes:
        try:
            cells.append(bench_cell(workload, untraced, traced))
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        for problem in problems:
            print(f"[bench] FAILED {problem}", file=sys.stderr)
        print(f"[bench] appended nothing to {output}", file=sys.stderr)
        return 1
    run = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "cells": cells,
    }
    path = write_bench_file(run, output)
    print(f"[bench] wrote {len(cells)} cells to {path}", file=sys.stderr)
    return 0


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


def _run_workload(
    command: list[str], workload: str, seconds: float, trace: int
) -> Run:
    """Run one perfbench workload; echo its metric table."""
    print(f"[bench] {workload} (seed {SEED}, {seconds} s, trace {trace})",
          file=sys.stderr)
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    # The last two lines are the JSON the cell is built from.
    sys.stderr.write("".join(proc.stdout.splitlines(keepends=True)[:-2]))
    return proc.returncode, proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of each run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--label", default=None, help="tag for this run")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        parser.error(f"no {spec_path}: run from a source checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    outcomes = [
        (
            workload["name"],
            _run_workload(spec["command"], workload["name"], seconds, 0),
            _run_workload(spec["command"], workload["name"], seconds, 1),
        )
        for workload in spec["workloads"]
    ]
    return append_run(outcomes, args.label, args.output)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
