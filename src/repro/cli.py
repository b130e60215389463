"""Command-line interface: ``python -m repro <command>`` (or ``weaver``).

Commands
--------
``compile``   workload (.cnf DIMACS / .qasm) -> any registered target
``simulate``  compile a workload, then execute it on the noise simulator
``targets``   list the registered compilation targets
``devices``   list the registered device profiles
``check``     verify a wQasm file with the wChecker
``lint``      statically verify a compiled artifact with wLint
``export``    DIMACS CNF -> DPQA-format JSON (artifact step 6)
``bench``     run the laptop-scale artifact sweep (run.py --quick --no-ccz-sweep)
``serve``     host the async compilation service on a local socket
``submit``    send a workload to a running service (or query its stats)
``trace``     record any weaver command as a Chrome trace (Perfetto)
``top``       one-shot metrics snapshot of a running service
``jobs``      list a running service's jobs (``--dead``: its dead letters)

Examples::

    weaver compile problem.cnf -o program.wqasm
    weaver compile problem.cnf --target superconducting
    weaver compile problem.cnf --device aquila-256
    weaver simulate --target fpqa --device rubidium-baseline uf20-01 \
        --shots 2000 --seed 7
    weaver targets
    weaver devices rubidium-baseline
    weaver check program.wqasm
    weaver lint program.wqasm
    weaver lint uf20-01 --device rubidium-baseline --json
    weaver export problem.cnf -o gates.json
    weaver serve --socket /tmp/weaver.sock --shards 4 &
    weaver submit problem.cnf --socket /tmp/weaver.sock --target fpqa
    weaver submit problem.cnf --socket /tmp/weaver.sock --simulate
    weaver submit --stats --socket /tmp/weaver.sock
    weaver trace -o trace.json simulate uf20-01 --shots 200
    weaver trace trace.json
    weaver top --socket /tmp/weaver.sock
    weaver serve --store-dir /var/lib/weaver --max-pending 256 &
    weaver jobs --dead --socket /tmp/weaver.sock

``compile``, ``simulate``, ``lint`` and ``submit`` accept either a
workload file or a SATLIB-style instance name (``uf20-07``).
``simulate``'s stdout (counts, sampled EPS with confidence interval,
approximation ratio) is bit-identical across reruns with the same seed.

Exit codes: 0 success, 1 internal error (or failed verification),
2 user error (bad input file, unknown target, malformed wQasm).
``lint`` additionally exits 2 when the analyzer reports error-severity
findings — the exit code a CI gate keys on.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .baselines.dpqa_format import circuit_to_dpqa_json
from .checker import check_program
from .exceptions import WeaverError
from .metrics import program_duration_us, program_eps
from .passes.native_synthesis import nativize_circuit
from .qaoa import QaoaParameters, qaoa_circuit
from .sat import parse_dimacs
from .targets import Workload, compile as compile_workload, target_info
from .targets.executor import BACKENDS
from .wqasm import parse_wqasm


def _load_formula(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_dimacs(text, name=Path(path).stem)


def _print_profile(args: argparse.Namespace, result) -> None:
    if args.profile:
        from .perf import format_profile_table

        print(format_profile_table(result.profile or {}), file=sys.stderr)


def _workload_arg(source: str) -> Workload:
    """A workload from a file path or a SATLIB-style instance name."""
    import re

    if not Path(source).exists() and re.fullmatch(r"uf\d+-\d+", source):
        from .sat import satlib_instance

        return Workload.from_formula(satlib_instance(source))
    return Workload.from_file(source)


def _compile_summary(result) -> str:
    """The "compiled X for T on D" line every compiling command prints."""
    return (
        f"compiled {result.workload} for {result.target}"
        + (f" on {result.device}" if result.device else "")
        + f": {result.num_qubits} qubits"
        + (f", {result.num_clauses} clauses" if result.num_clauses else "")
        + f" ({result.compile_seconds * 1e3:.0f} ms compile)"
    )


def _print_gate_metrics(result) -> None:
    """Metrics of a gate-level result (no wQasm program to print)."""
    lines = {
        "execution_seconds": result.execution_seconds,
        "eps": result.eps,
        **{k: v for k, v in result.stats.items() if isinstance(v, (int, float))},
    }
    for key, value in lines.items():
        if value is not None:
            print(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")


def _cmd_compile(args: argparse.Namespace) -> int:
    workload = _workload_arg(args.input)
    parameters = QaoaParameters((args.gamma,), (args.beta,))
    options: dict = {"measure": not args.no_measure}
    if args.compression != "auto":
        options["compression"] = args.compression == "on"
    result = compile_workload(
        workload,
        target=args.target,
        parameters=parameters,
        budget_seconds=args.budget,
        device=args.device,
        **options,
    )
    summary = _compile_summary(result)
    if result.program is not None:
        text = result.program.to_wqasm()
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        # The result's metrics were computed on the target's own hardware
        # (the selected device profile), so report those, not defaults.
        duration_ms = (
            result.execution_seconds * 1e3
            if result.execution_seconds is not None
            else program_duration_us(result.program) / 1e3
        )
        eps = result.eps if result.eps is not None else program_eps(result.program)
        summary += (
            f"; {result.program.total_pulses} pulses, "
            f"{duration_ms:.2f} ms, "
            f"EPS {eps:.4g}"
        )
        print(summary, file=sys.stderr)
        _print_profile(args, result)
        if args.verify:
            report = check_program(result.program, reference=result.native_circuit)
            print(f"wChecker: ok={report.ok}", file=sys.stderr)
            if not report.ok:
                return 1
    else:
        # Gate-level targets have no wQasm emission; report metrics instead.
        print(summary, file=sys.stderr)
        _print_gate_metrics(result)
        _print_profile(args, result)
        if args.verify:
            print(
                f"error: --verify needs a wQasm-emitting target, not {result.target!r}",
                file=sys.stderr,
            )
            return 2
        if args.output:
            print(
                f"note: target {result.target!r} emits no program; "
                f"ignoring -o {args.output}",
                file=sys.stderr,
            )
    return 0


def _format_execution(execution, top: int) -> list[str]:
    """The deterministic stdout block of ``weaver simulate``."""
    lines = [f"shots: {execution.shots}"]
    if execution.seed is not None:
        lines.append(f"seed: {execution.seed}")
    lines.append(
        "noise: off"
        if execution.noise_scale is None
        else f"noise: x{execution.noise_scale:g}"
    )
    lines.append(f"unique outcomes: {len(execution.counts)}")
    shown = list(execution.counts.items())[:top]
    if shown:
        lines.append(f"top counts ({len(shown)} of {len(execution.counts)}):")
        for bits, count in shown:
            lines.append(f"  {bits}  {count}")
    low, high = execution.eps_ci
    lines.append(
        f"sampled EPS: {execution.eps_sampled:.6g} "
        f"(95% CI {low:.6g}-{high:.6g}, "
        f"{execution.error_free_shots}/{execution.shots} error-free)"
    )
    if execution.eps_analytic is not None:
        lines.append(f"analytic EPS: {execution.eps_analytic:.6g}")
    if execution.energy is not None:
        lines.append(f"energy: {execution.energy:.6g} unsatisfied (mean)")
        lines.append(
            f"mean satisfied: {execution.mean_satisfied:.6g}"
            f"/{execution.optimum_satisfied:g}"
        )
        lines.append(
            f"best sampled: {execution.best_satisfied:g}"
            f"/{execution.optimum_satisfied:g}"
        )
        lines.append(
            f"approximation ratio: {execution.approximation_ratio:.6g}"
        )
    return lines


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json as json_module

    from .sim import simulate_result

    workload = _workload_arg(args.input)
    parameters = QaoaParameters((args.gamma,), (args.beta,))
    result = compile_workload(
        workload,
        target=args.target,
        parameters=parameters,
        budget_seconds=args.budget,
        device=args.device,
    )
    print(_compile_summary(result), file=sys.stderr)
    import time as time_module

    started = time_module.perf_counter()
    execution = simulate_result(
        result,
        shots=args.shots,
        noise=None if args.no_noise else args.noise,
        seed=args.seed,
        formula=workload.formula,
        max_trajectories=args.max_trajectories,
    )
    print(
        f"simulated {args.shots} shots in "
        f"{time_module.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    if args.json:
        print(json_module.dumps(execution.to_dict(), indent=1))
    else:
        for line in _format_execution(execution, args.top):
            print(line)
    return 0


def _cmd_targets(args: argparse.Namespace) -> int:
    infos = target_info(args.name)
    for info in infos:
        print(f"{info['name']}")
        print(f"  {info['description']}")
        print(f"  capabilities: {', '.join(info['capabilities'])}")
        if info["pipeline"]:
            print(f"  pipeline:     {' -> '.join(info['pipeline'])}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from .devices import device_info, get_device

    for info in device_info(args.name):
        print(f"{info['name']}  [{info['kind']}]")
        print(f"  {info['description']}")
        details = []
        if info["vendor"]:
            details.append(f"vendor: {info['vendor']}")
        if info["generation"]:
            details.append(f"generation: {info['generation']}")
        if info["max_qubits"] is not None:
            details.append(f"max qubits: {info['max_qubits']}")
        if details:
            print(f"  {'; '.join(details)}")
        if args.name:
            # Detail view: the full resolved parameter set of the spec.
            profile = get_device(args.name)
            for key, value in sorted(profile.params.items()):
                print(f"    {key} = {value}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    program = parse_wqasm(text, name=Path(args.input).stem)
    report = check_program(program)
    print(f"operations checked: {report.operations_checked}")
    print(f"reconstruction method: {report.reconstructed_method}")
    print(f"ok: {report.ok}")
    for failure in report.operation_failures[:10]:
        print(f"  {failure}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from .analysis import analyze_program, format_report

    path = Path(args.input)
    if path.suffix == ".wqasm" or (
        path.exists() and not path.suffix in (".cnf", ".qasm")
    ):
        # Lint a compiled artifact directly.  Without cost-metric
        # provenance (a raw file records none), the bounds pass has
        # nothing to compare against and is skipped.
        text = path.read_text(encoding="utf-8")
        program = parse_wqasm(text, name=path.stem)
        hardware = None
        if args.device is not None:
            from .devices import get_device
            from .devices.profile import KIND_FPQA

            profile = get_device(args.device)
            if profile.kind != KIND_FPQA:
                print(
                    f"error: device {args.device!r} is not an FPQA machine; "
                    "a wQasm file can only be linted against FPQA hardware",
                    file=sys.stderr,
                )
                return 2
            hardware = profile.hardware
        report = analyze_program(program, hardware=hardware, name=path.stem)
    else:
        # Compile a workload (file or SATLIB-style name) and lint the
        # artifact, bounds pass included.
        result = compile_workload(
            _workload_arg(args.input),
            target=args.target,
            budget_seconds=args.budget,
            device=args.device,
        )
        print(_compile_summary(result), file=sys.stderr)
        report = result.analyze()
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=1))
    else:
        print(format_report(report))
    return 0 if not report.errors else 2


def _cmd_export(args: argparse.Namespace) -> int:
    formula = _load_formula(args.input)
    circuit = nativize_circuit(qaoa_circuit(formula, measure=False))
    payload = circuit_to_dpqa_json(circuit, name=formula.name)
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation import EvaluationConfig
    from .evaluation.artifact import run_artifact

    run_artifact(
        EvaluationConfig.quick(),
        include_ccz_sweep=False,
        verbose=True,
        store_path=args.store,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from .service import serve
    from .telemetry import configure, format_metrics_table

    print(
        f"serving on {args.socket} "
        f"({args.shards} shard(s), {args.backend} backend); "
        "stop with Ctrl-C or `weaver submit --shutdown`",
        file=sys.stderr,
    )
    retry = None
    if args.retries is not None:
        from .service import RetryPolicy

        # +1: the flag counts *retries*, the policy counts attempts.
        retry = RetryPolicy(max_attempts=args.retries + 1)
    chaos = None
    if args.chaos_crash or args.chaos_stall or args.chaos_drop or args.chaos_disk:
        from .service import ChaosPolicy

        chaos = ChaosPolicy(
            worker_crash=args.chaos_crash,
            worker_stall=args.chaos_stall,
            socket_drop=args.chaos_drop,
            disk_fail=args.chaos_disk,
            seed=args.chaos_seed,
        )
        print(
            f"chaos enabled: crash={args.chaos_crash} stall={args.chaos_stall} "
            f"drop={args.chaos_drop} disk={args.chaos_disk} "
            f"seed={args.chaos_seed}",
            file=sys.stderr,
        )
    tracer = None
    if args.trace:
        tracer = configure(True)
    try:
        stats = asyncio.run(
            serve(
                args.socket,
                shards=args.shards,
                backend=args.backend,
                store_dir=args.store_dir,
                max_artifacts=args.max_artifacts,
                journal_path=args.journal,
                max_pending=args.max_pending,
                hang_seconds=args.hang_seconds,
                retry=retry,
                chaos=chaos,
                verbose=True,
            )
        )
    finally:
        if tracer is not None:
            from .telemetry import chrome_trace

            spans = tracer.export()
            configure(False)
            Path(args.trace).write_text(
                json_module.dumps(chrome_trace(spans)), encoding="utf-8"
            )
            print(
                f"wrote {len(spans)} span(s) to {args.trace} "
                "(open in ui.perfetto.dev)",
                file=sys.stderr,
            )
    print("service stopped", file=sys.stderr)
    table = format_metrics_table(stats.get("metrics") or {})
    if table:
        print(table, file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from .telemetry import (
        chrome_trace,
        configure,
        format_trace_tree,
        spans_from_chrome_trace,
        write_spans_jsonl,
    )

    command = list(args.args)
    if command and command[0] == "--":
        command = command[1:]
    if len(command) == 1 and command[0].endswith(".json") and Path(command[0]).exists():
        # Summarize an existing recording instead of making a new one.
        payload = json_module.loads(Path(command[0]).read_text(encoding="utf-8"))
        spans = spans_from_chrome_trace(payload)
        print(format_trace_tree(spans))
        return 0
    if not command:
        print(
            "error: trace needs a weaver command to record "
            "(or an existing trace .json to summarize)",
            file=sys.stderr,
        )
        return 2
    if command[0] == "trace":
        print("error: trace cannot record itself", file=sys.stderr)
        return 2
    tracer = configure(True)
    try:
        rc = main(command)
    finally:
        spans = tracer.export()
        configure(False)
    if args.jsonl:
        write_spans_jsonl(spans, args.output)
    else:
        Path(args.output).write_text(
            json_module.dumps(chrome_trace(spans)), encoding="utf-8"
        )
    print(
        f"wrote {len(spans)} span(s) to {args.output}"
        + ("" if args.jsonl else " (open in ui.perfetto.dev)"),
        file=sys.stderr,
    )
    print(format_trace_tree(spans), file=sys.stderr)
    return rc


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceClient
    from .telemetry import format_metrics_table

    async def run() -> int:
        client = await ServiceClient.connect(args.socket)
        try:
            stats = await client.stats()
        finally:
            await client.close()
        print(
            f"service on {args.socket}: "
            f"{stats.get('shards')} shard(s), {stats.get('backend')} backend; "
            f"{stats.get('jobs_submitted')} submitted, "
            f"{stats.get('jobs_completed')} completed, "
            f"{stats.get('jobs_pending')} pending"
        )
        resilience = stats.get("resilience") or {}
        if resilience:
            line = (
                f"faults: {resilience.get('retries', 0)} retried, "
                f"{resilience.get('dead_letters', 0)} dead-lettered, "
                f"{resilience.get('shed', 0)} shed, "
                f"{resilience.get('worker_restarts', 0)} worker restart(s)"
            )
            recovered = resilience.get("recovered")
            if recovered and recovered.get("recovered"):
                line += f"; recovered {recovered['recovered']} from journal"
            print(line)
        table = format_metrics_table(stats.get("metrics") or {})
        if table:
            print(table)
        else:
            print("(no metrics recorded yet)")
        return 0

    return asyncio.run(run())


def _cmd_jobs(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from .service import ServiceClient

    async def run() -> int:
        client = await ServiceClient.connect(args.socket)
        try:
            jobs = await client.jobs(dead=args.dead)
        finally:
            await client.close()
        if args.json:
            print(json_module.dumps(jobs, indent=2))
            return 0
        if not jobs:
            print("(no dead-letter jobs)" if args.dead else "(no jobs)")
            return 0
        for row in jobs:
            line = (
                f"{row.get('job')}: {row.get('status')} "
                f"{row.get('kind')} {row.get('workload')} -> {row.get('target')}"
                + (f" on {row['device']}" if row.get("device") else "")
                + f" [client {row.get('client')}, "
                + f"attempts {row.get('attempts', 0)}]"
            )
            if row.get("error"):
                line += f" error: {row['error']}"
            print(line)
        return 0

    return asyncio.run(run())


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from .service import ServiceClient

    async def run() -> int:
        client = await ServiceClient.connect(args.socket)
        try:
            if args.shutdown:
                await client.shutdown()
                print("service stopping", file=sys.stderr)
                return 0
            if args.stats:
                stats = await client.stats()
                if args.json:
                    print(json_module.dumps(stats, indent=2))
                    return 0
                from .telemetry import format_metrics_table

                print(
                    f"{stats.get('jobs_submitted')} submitted, "
                    f"{stats.get('jobs_completed')} completed, "
                    f"{stats.get('jobs_pending')} pending "
                    f"({stats.get('shards')} shard(s), "
                    f"{stats.get('backend')} backend)"
                )
                artifacts = stats.get("artifacts") or {}
                rate = artifacts.get("hit_rate")
                print(
                    f"artifacts: {artifacts.get('entries')} entries, "
                    f"{artifacts.get('hits')} hits / "
                    f"{artifacts.get('misses')} misses"
                    + (f" ({rate:.0%} hit rate)" if rate is not None else "")
                )
                table = format_metrics_table(stats.get("metrics") or {})
                if table:
                    print(table)
                return 0
            if args.input is None:
                print(
                    "error: submit needs an input file (or --stats / --shutdown)",
                    file=sys.stderr,
                )
                return 2
            workload = _workload_arg(args.input)
            options: dict = {}
            if args.no_measure:
                options["measure"] = False
            simulate = None
            if args.simulate:
                simulate = {
                    "shots": args.shots,
                    "seed": args.seed,
                    "noise": None if args.no_noise else args.noise,
                    "max_trajectories": args.max_trajectories,
                }
            out = await client.submit(
                workload,
                target=args.target or "fpqa",
                device=args.device,
                client=args.client,
                priority=args.priority,
                timeout=args.budget,
                simulate=simulate,
                analyze=True if args.lint else None,
                **options,
            )
            result = out.result
            summary = (
                f"{out.job_id}: {result.target}"
                + (f" on {result.device}" if result.device else "")
                + f" <- {result.workload}"
                + (" [cached]" if out.from_cache else "")
                + (
                    f" ({result.compile_seconds * 1e3:.0f} ms compile)"
                    if not out.from_cache
                    else ""
                )
            )
            print(summary, file=sys.stderr)
            if result.error is not None:
                print(f"error: {result.error}", file=sys.stderr)
                return 1
            if result.timed_out:
                print("error: compilation timed out", file=sys.stderr)
                return 1
            if result.analysis is not None and not args.json:
                diags = result.analysis.get("diagnostics", [])
                print(
                    "wLint: "
                    + ("clean" if result.analysis.get("ok") else "FAILED")
                    + (f" ({len(diags)} finding(s))" if diags else ""),
                    file=sys.stderr,
                )
            if result.execution is not None and not args.json:
                execution = result.execution
                eps = execution.get("eps_sampled")
                line = f"sampled EPS: {eps:.6g}" if eps is not None else "simulated"
                ci = execution.get("eps_ci")
                if ci:
                    line += f" (95% CI {ci[0]:.6g}-{ci[1]:.6g})"
                print(
                    f"{line} over {execution.get('shots')} shots",
                    file=sys.stderr,
                )
            if args.json:
                print(json_module.dumps(out.raw, indent=2))
            elif result.program is not None:
                text = result.program.to_wqasm()
                if args.output:
                    Path(args.output).write_text(text, encoding="utf-8")
                else:
                    sys.stdout.write(text)
            else:
                # Gate-level targets emit no program; report metrics,
                # matching `weaver compile`.
                _print_gate_metrics(result)
            return 0
        finally:
            await client.close()

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a workload for a target")
    p_compile.add_argument(
        "input",
        help="DIMACS .cnf / OpenQASM .qasm file, or a SATLIB-style "
             "instance name like uf20-01",
    )
    p_compile.add_argument("-o", "--output", help="wQasm output path (default stdout)")
    p_compile.add_argument(
        "-t", "--target", default=None,
        help="registered target name (see `repro targets`; default fpqa, "
             "or the target matching --device's kind)",
    )
    p_compile.add_argument(
        "-d", "--device", default=None,
        help="registered device profile to compile for (see `repro devices`)",
    )
    p_compile.add_argument("--gamma", type=float, default=0.7, help="QAOA gamma")
    p_compile.add_argument("--beta", type=float, default=0.35, help="QAOA beta")
    p_compile.add_argument(
        "--compression", choices=("auto", "on", "off"), default="auto"
    )
    p_compile.add_argument(
        "--budget", type=float, default=None, help="compile budget in seconds"
    )
    p_compile.add_argument("--no-measure", action="store_true")
    p_compile.add_argument("--verify", action="store_true", help="run the wChecker")
    p_compile.add_argument(
        "--profile", action="store_true",
        help="print the per-pass / per-primitive time+count table",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_simulate = sub.add_parser(
        "simulate",
        help="compile a workload and execute it on the noise-aware simulator",
    )
    p_simulate.add_argument(
        "input",
        help="DIMACS .cnf / OpenQASM .qasm file, or a SATLIB-style "
             "instance name like uf20-01",
    )
    p_simulate.add_argument(
        "-t", "--target", default=None,
        help="registered target name (default fpqa, or the target "
             "matching --device's kind)",
    )
    p_simulate.add_argument(
        "-d", "--device", default=None,
        help="registered device profile to compile and simulate for",
    )
    p_simulate.add_argument(
        "--shots", type=int, default=1024, help="number of sampled executions"
    )
    p_simulate.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed; identical seeds give bit-identical output",
    )
    p_simulate.add_argument(
        "--noise", type=float, default=1.0,
        help="noise scale factor over the device model (default 1.0)",
    )
    p_simulate.add_argument(
        "--no-noise", action="store_true", help="simulate without noise"
    )
    p_simulate.add_argument(
        "--max-trajectories", type=int, default=8,
        help="error signatures replayed exactly; the tail uses the "
             "measurement-frame approximation (default 8)",
    )
    p_simulate.add_argument(
        "--top", type=int, default=10, help="outcome rows to print (default 10)"
    )
    p_simulate.add_argument("--gamma", type=float, default=0.7, help="QAOA gamma")
    p_simulate.add_argument("--beta", type=float, default=0.35, help="QAOA beta")
    p_simulate.add_argument(
        "--budget", type=float, default=None, help="compile budget in seconds"
    )
    p_simulate.add_argument(
        "--json", action="store_true",
        help="print the full ExecutionResult record as JSON",
    )
    p_simulate.set_defaults(func=_cmd_simulate)

    p_targets = sub.add_parser("targets", help="list registered targets")
    p_targets.add_argument("name", nargs="?", help="show only this target")
    p_targets.set_defaults(func=_cmd_targets)

    p_devices = sub.add_parser("devices", help="list registered device profiles")
    p_devices.add_argument(
        "name", nargs="?", help="show this device with its full parameter set"
    )
    p_devices.set_defaults(func=_cmd_devices)

    p_check = sub.add_parser("check", help="verify a wQasm file")
    p_check.add_argument("input", help="wQasm file")
    p_check.set_defaults(func=_cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="statically verify a compiled artifact with the wLint analyzer",
    )
    p_lint.add_argument(
        "input",
        help="wQasm file to lint, or a DIMACS .cnf / OpenQASM .qasm file "
             "or SATLIB-style instance name (like uf20-01) to compile "
             "and lint",
    )
    p_lint.add_argument(
        "-t", "--target", default=None,
        help="target for the compile-and-lint path (default fpqa, or the "
             "target matching --device's kind)",
    )
    p_lint.add_argument(
        "-d", "--device", default=None,
        help="registered device profile to lint against",
    )
    p_lint.add_argument(
        "--budget", type=float, default=None, help="compile budget in seconds"
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="print the full AnalysisReport record as JSON",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_export = sub.add_parser("export", help="DIMACS CNF -> DPQA JSON")
    p_export.add_argument("input", help="DIMACS .cnf file")
    p_export.add_argument("-o", "--output", help="JSON output path (default stdout)")
    p_export.set_defaults(func=_cmd_export)

    p_bench = sub.add_parser(
        "bench", help="quick artifact sweep (run.py --quick --no-ccz-sweep)"
    )
    p_bench.add_argument(
        "--store", metavar="DIR", default=None,
        help="store directory to persist/resume results in (the format "
             "of `weaver serve --store-dir`)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="host the async compilation service on a local socket"
    )
    p_serve.add_argument(
        "--socket", default="/tmp/weaver.sock",
        help="Unix socket path to listen on (default /tmp/weaver.sock)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=2,
        help="worker shards; jobs route by (target, device) cell",
    )
    p_serve.add_argument(
        "--backend", choices=BACKENDS, default="thread",
        help="shard executor: thread (default), process (multi-core), inline",
    )
    p_serve.add_argument(
        "--store-dir", default=None,
        help="persist compiled artifacts under this directory",
    )
    p_serve.add_argument(
        "--max-artifacts", type=int, default=512,
        help="in-memory artifact LRU bound (default 512)",
    )
    p_serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record every job as a Chrome trace and write it here "
             "on shutdown",
    )
    p_serve.add_argument(
        "--journal", metavar="PATH", default=None,
        help="durable job journal path (default <store-dir>/journal.jsonl "
             "when --store-dir is set); incomplete jobs are recovered on "
             "the next start",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=None,
        help="queue high-water mark: shed new submissions (with a "
             "retry_after hint) past this many pending jobs",
    )
    p_serve.add_argument(
        "--hang-seconds", type=float, default=None,
        help="grace beyond a job's budget before its worker counts as "
             "hung and the attempt is retried on a fresh executor",
    )
    p_serve.add_argument(
        "--retries", type=int, default=None,
        help="transient-failure retries per job (default 2; "
             "deterministic compile errors never retry)",
    )
    p_serve.add_argument(
        "--chaos-crash", type=float, default=0.0, metavar="RATE",
        help="fault injection: worker-crash probability per execution",
    )
    p_serve.add_argument(
        "--chaos-stall", type=float, default=0.0, metavar="RATE",
        help="fault injection: worker-stall probability per execution",
    )
    p_serve.add_argument(
        "--chaos-drop", type=float, default=0.0, metavar="RATE",
        help="fault injection: socket-drop probability per protocol event",
    )
    p_serve.add_argument(
        "--chaos-disk", type=float, default=0.0, metavar="RATE",
        help="fault injection: disk-write failure probability per artifact",
    )
    p_serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos fault schedule (default 0)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser(
        "trace",
        help="record a weaver command as a Chrome trace (Perfetto), or "
             "summarize an existing trace .json",
    )
    p_trace.add_argument(
        "-o", "--output", default="trace.json",
        help="trace output path (default trace.json)",
    )
    p_trace.add_argument(
        "--jsonl", action="store_true",
        help="write raw span records (JSON lines) instead of Chrome "
             "trace-event JSON",
    )
    p_trace.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="the weaver command to record (e.g. `simulate uf20-01`), or "
             "one existing trace .json file to summarize",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_top = sub.add_parser(
        "top", help="one-shot metrics snapshot of a running service"
    )
    p_top.add_argument(
        "--socket", default="/tmp/weaver.sock",
        help="service socket path (default /tmp/weaver.sock)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_jobs = sub.add_parser(
        "jobs", help="list a running service's jobs (or its dead letters)"
    )
    p_jobs.add_argument(
        "--socket", default="/tmp/weaver.sock",
        help="service socket path (default /tmp/weaver.sock)",
    )
    p_jobs.add_argument(
        "--dead", action="store_true",
        help="list quarantined poison jobs (dead letters) instead",
    )
    p_jobs.add_argument(
        "--json", action="store_true", help="print the records as JSON"
    )
    p_jobs.set_defaults(func=_cmd_jobs)

    p_submit = sub.add_parser(
        "submit", help="send a workload to a running service"
    )
    p_submit.add_argument(
        "input", nargs="?",
        help="DIMACS .cnf / OpenQASM .qasm file, or a SATLIB-style "
             "instance name like uf20-01",
    )
    p_submit.add_argument(
        "--socket", default="/tmp/weaver.sock",
        help="service socket path (default /tmp/weaver.sock)",
    )
    p_submit.add_argument(
        "-t", "--target", default=None, help="registered target name (default fpqa)"
    )
    p_submit.add_argument(
        "-d", "--device", default=None, help="registered device profile name"
    )
    p_submit.add_argument("-o", "--output", help="wQasm output path (default stdout)")
    p_submit.add_argument(
        "--client", default="cli", help="client name for fair scheduling"
    )
    p_submit.add_argument(
        "--priority", type=int, default=0, help="job priority (0 first)"
    )
    p_submit.add_argument(
        "--budget", type=float, default=None, help="compile budget in seconds"
    )
    p_submit.add_argument("--no-measure", action="store_true")
    p_submit.add_argument(
        "--simulate", action="store_true",
        help="request a sim job: the service also executes the compiled "
             "artifact on the noise-aware simulator",
    )
    p_submit.add_argument(
        "--lint", action="store_true",
        help="request a lint job: the service also statically verifies "
             "the compiled artifact with the wLint analyzer",
    )
    p_submit.add_argument(
        "--shots", type=int, default=1024,
        help="shots for --simulate (default 1024)",
    )
    p_submit.add_argument(
        "--seed", type=int, default=0, help="seed for --simulate (default 0)"
    )
    p_submit.add_argument(
        "--noise", type=float, default=1.0,
        help="noise scale for --simulate (default 1.0)",
    )
    p_submit.add_argument(
        "--no-noise", action="store_true",
        help="simulate without noise (with --simulate)",
    )
    p_submit.add_argument(
        "--max-trajectories", type=int, default=8,
        help="exactly-replayed error signatures for --simulate (default 8)",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full result record as JSON instead of wQasm",
    )
    p_submit.add_argument(
        "--stats", action="store_true", help="print service stats and exit"
    )
    p_submit.add_argument(
        "--shutdown", action="store_true", help="ask the service to stop"
    )
    p_submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point with one error handler for every command.

    User errors — bad input files, malformed wQasm/DIMACS/QASM, unknown
    targets — exit 2 with a one-line message.  Anything else is an
    internal error: exit 1, with the traceback available via
    ``REPRO_DEBUG=1``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe: not an
        # error.  Point stdout at devnull so the interpreter's exit flush
        # doesn't trip over the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (WeaverError, OSError, UnicodeDecodeError) as exc:
        # Known failure modes of user input (UnknownTargetError is a
        # WeaverError; unreadable or non-UTF-8 files land in OSError /
        # UnicodeDecodeError).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 — the CLI must not traceback
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(
            f"internal error: {type(exc).__name__}: {exc}\n"
            "(this is a bug in the compiler, not your input; "
            "set REPRO_DEBUG=1 for the full traceback)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
