#!/usr/bin/env python3
"""Artifact entry point (paper appendix §A.4.1): regenerate all figures.

    python run.py [--quick] [--no-ccz-sweep]

``--quick`` restricts the sweep to one instance per size and skips the
slow compilers' timeout demonstrations; without it, expect the run to
take on the order of the benchmark suite (minutes, not the paper's 24 h).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

from repro.evaluation import EvaluationConfig  # noqa: E402
from repro.evaluation.artifact import run_artifact  # noqa: E402
from repro.evaluation.runner import DEFAULT_BUDGETS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small, fast sweep")
    parser.add_argument(
        "--no-ccz-sweep", action="store_true", help="skip the Fig. 10(c) sweep"
    )
    parser.add_argument(
        "--budget", type=float, default=60.0,
        help="Geyser/DPQA compile budget in seconds (default 60)",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="store directory: persist every compiled cell there and reuse "
             "the cells already there (interrupted sweeps recompile only "
             "missing cells); the format of `weaver serve --store-dir`",
    )
    parser.add_argument(
        "--devices", metavar="NAMES", default=None,
        help="comma-separated device profiles to sweep the Weaver path "
             "over (see `weaver devices`); adds a per-device comparison "
             "table to the report",
    )
    args = parser.parse_args()
    budgets = dict(DEFAULT_BUDGETS)
    budgets["geyser"] = args.budget
    budgets["dpqa"] = args.budget
    devices = (
        tuple(name.strip() for name in args.devices.split(",") if name.strip())
        if args.devices
        else ()
    )
    if devices:
        # Validate up front: a typo'd or non-FPQA device must fail in
        # milliseconds, not after the whole figure sweep has run.
        from repro.devices import get_device
        from repro.exceptions import DeviceError

        for name in devices:
            try:
                profile = get_device(name)
            except DeviceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if profile.kind != "fpqa":
                print(
                    f"error: --devices sweeps the Weaver FPQA path; "
                    f"{name!r} is a {profile.kind} profile",
                    file=sys.stderr,
                )
                return 2
    if args.quick:
        config = EvaluationConfig.quick(budgets=budgets, devices=devices)
    else:
        config = EvaluationConfig(budgets=budgets, devices=devices)
    try:
        run_artifact(
            config,
            include_ccz_sweep=not args.no_ccz_sweep,
            verbose=True,
            store_path=args.store,
        )
    except NotADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
