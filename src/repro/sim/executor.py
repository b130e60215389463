"""The execution orchestrator: compile artifact -> sampled outcomes.

:func:`simulate_result` closes the compile->run->score loop: it lowers a
:class:`~repro.targets.result.CompilationResult` into a
:class:`~repro.sim.schedule.Schedule`, samples error trajectories from
the device-derived noise model, executes them on the statevector
engine, and scores the sampled bitstrings against the workload.

Trajectory strategy
-------------------
Every shot independently samples its error events (so the EPS estimate
is an exact Monte-Carlo estimator of the analytic model, regardless of
anything below).  For *outcomes*:

* shots with no quantum error sample from the ideal distribution
  (one statevector walk for all of them);
* the most frequent error signatures — up to ``max_trajectories`` of
  them — are replayed *exactly*, with the sampled Paulis inserted into
  the gate stream.  The ideal walk advances once over the stream and is
  their shared prefix: at each signature's first error, in first-error
  order, a copy of the ideal state forks off and runs the rest of the
  stream with that signature's inserts.  At most two states are live:
  the ideal walk and one branch;
* the long tail of rare multi-error signatures falls back to a
  measurement-frame depolarizing approximation: the shot samples an
  ideal outcome and the error-touched qubits' bits are replaced by fair
  coin flips.  On small programs (every test below ~10 qubits) the cap
  is never reached and all trajectories are exact.

The gate stream is compiled once per run into one
:class:`~repro.sim.engine.Plan`, after the signatures are drawn, with a
fusion break at every exact signature's ``(position, qubit)``.  The
ideal walk and every branch replay that same plan; none of them
re-reads the instruction list.

Readout errors are classical bit flips applied to every shot exactly.
All randomness flows from one ``numpy.random.Generator``, in a fixed
draw order, so a given seed is bit-identical across runs and machines.
The uniforms behind the clean-shot and branch samples are drawn up
front, in that order, and :meth:`~repro.sim.engine.StatevectorEngine.draw`
turns them into outcomes exactly as ``Generator.choice`` would: a
branch is sampled as soon as it finishes, the clean shots once the
ideal walk does.

Under ``sim.run`` the phases are spans that tile it: ``sim.events``
(event draws, signatures and the up-front uniforms), ``sim.ideal``
(the plan build and each stretch of the ideal walk; the last one also
samples the clean shots), one ``sim.trajectory`` per exact branch, and
``sim.sample`` (tail, readout flips, aggregation and scoring).
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import SimulationError
from ..perf import Profiler
from ..rng import as_generator
from ..telemetry.metrics import get_metrics
from ..telemetry.trace import span as _span
from .engine import StatevectorEngine, bitstring
from .noise import KIND_PAULI, KIND_READOUT, resolve_noise
from .result import ExecutionResult, wilson_interval
from .schedule import Schedule, schedule_from_circuit, schedule_from_program
from .score import score_samples
from ..targets.request import (  # noqa: F401 — re-exported option contract
    DEFAULT_MAX_TRAJECTORIES,
    DEFAULT_SHOTS,
    canonical_sim_options,
)

# ----------------------------------------------------------------------
# Schedule resolution
# ----------------------------------------------------------------------
def schedule_for_result(result) -> Schedule:
    """Lower a compilation result into its executable schedule.

    wQasm-producing targets replay the compiled pulse program on the
    device profile recorded in the result's provenance; gate-level
    targets execute their native circuit (with the superconducting
    backend's calibration when the result carries a superconducting
    profile).
    """
    profile = _device_profile(result)
    if result.program is not None:
        hardware = profile.hardware if profile is not None else None
        return schedule_from_program(result.program, hardware)
    if result.native_circuit is not None:
        backend = None
        if profile is not None and profile.kind == "superconducting":
            backend = profile.backend
        elif result.target == "superconducting":
            from ..superconducting.backend import washington_backend

            backend = washington_backend()
        return schedule_from_circuit(
            result.native_circuit, backend, name=result.workload
        )
    raise SimulationError(
        f"target {result.target!r} produced no executable artifact "
        "(neither a wQasm program nor a circuit); only program- or "
        "circuit-emitting targets can be simulated"
    )


def _device_profile(result):
    if getattr(result, "device_profile", None) is None:
        return None
    from ..devices.profile import DeviceProfile

    return DeviceProfile.from_dict(result.device_profile)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def simulate_result(
    result,
    shots: int = DEFAULT_SHOTS,
    noise=1.0,
    seed: int | np.random.Generator | None = 0,
    formula=None,
    max_trajectories: int = DEFAULT_MAX_TRAJECTORIES,
    profiler: Profiler | None = None,
) -> ExecutionResult:
    """Execute a compiled result and score the outcomes.

    ``noise`` is a scale factor over the device model (``0``/``None``
    for noiseless, ``1.0`` for the profile's physics) or a prebuilt
    :class:`~repro.sim.noise.NoiseModel`.  ``formula`` enables the
    MAX-SAT quality metrics (energy, approximation ratio); pass the
    workload's CNF formula when you have it.
    """
    with _span("sim.schedule", workload=result.workload, target=result.target):
        schedule = schedule_for_result(result)
    return run_schedule(
        schedule,
        shots=shots,
        noise=noise,
        seed=seed,
        formula=formula,
        max_trajectories=max_trajectories,
        profiler=profiler,
        target=result.target,
        device=result.device,
    )


def simulate_program(
    program,
    hardware=None,
    **options,
) -> ExecutionResult:
    """Execute a wQasm program directly (no compilation result needed)."""
    return run_schedule(schedule_from_program(program, hardware), **options)


def simulate_circuit(circuit, backend=None, **options) -> ExecutionResult:
    """Execute a gate-level circuit directly."""
    return run_schedule(schedule_from_circuit(circuit, backend), **options)


def attach_simulation(result, workload=None, options=None) -> ExecutionResult:
    """Simulate ``result`` and record the execution on the result itself.

    The execution payload lands in ``result.execution`` (JSON-safe, so
    it rides through every result serializer, cache and artifact
    store).  Returns the live :class:`ExecutionResult`.
    """
    canonical = canonical_sim_options(True if options is None else options)
    if canonical is None:
        raise SimulationError("attach_simulation called with simulation disabled")
    formula = getattr(workload, "formula", None) if workload is not None else None
    execution = simulate_result(
        result,
        shots=canonical["shots"],
        noise=canonical["noise"],
        seed=canonical["seed"],
        formula=formula,
        max_trajectories=canonical["max_trajectories"],
    )
    result.execution = execution.to_dict()
    return execution


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
def run_schedule(
    schedule: Schedule,
    shots: int = DEFAULT_SHOTS,
    noise=1.0,
    seed: int | np.random.Generator | None = 0,
    formula=None,
    max_trajectories: int = DEFAULT_MAX_TRAJECTORIES,
    profiler: Profiler | None = None,
    target: str | None = None,
    device: str | None = None,
) -> ExecutionResult:
    """Sample ``shots`` executions of ``schedule`` under ``noise``."""
    if shots < 1:
        raise SimulationError(f"shots must be positive, got {shots}")
    if max_trajectories < 0:
        raise SimulationError("max_trajectories must be non-negative")
    # The spans (the run's phases nest under this one) and the global
    # shots/sec metric observe wall time, which must never reach the
    # execution payload itself — see _deterministic_profile.
    wall_started = time.perf_counter()
    with _span(
        "sim.run", workload=schedule.name,
        shots=shots, qubits=schedule.num_qubits,
    ):
        execution = _run_schedule(
            schedule, shots, noise, seed, formula, max_trajectories,
            profiler, target, device,
        )
    elapsed = time.perf_counter() - wall_started
    metrics = get_metrics()
    metrics.inc("sim.shots", shots)
    if elapsed > 0:
        metrics.observe("sim.shots_per_second", shots / elapsed)
    return execution


def _run_schedule(
    schedule: Schedule,
    shots: int,
    noise,
    seed,
    formula,
    max_trajectories: int,
    profiler: Profiler | None,
    target: str | None,
    device: str | None,
) -> ExecutionResult:
    with _span("sim.events"):
        rng = as_generator(seed)
        profiler = profiler if profiler is not None else Profiler()
        model = resolve_noise(noise, schedule.events)
        engine = StatevectorEngine(schedule.num_qubits, profiler)
        instructions = schedule.instructions
        length = len(instructions)
        n = schedule.num_qubits

        # --- 1. sample error events per shot (exact Monte Carlo) ------
        events = model.events if model is not None else ()
        if events:
            probabilities = model.probabilities()
            fired = rng.random((shots, len(events))) < probabilities[None, :]
            error_free = int((~fired.any(axis=1)).sum())
            profiler.add("sim.events_fired", 0.0, count=int(fired.sum()))
        else:
            fired = None
            error_free = shots

        # --- 2. realize Pauli trajectories deterministically ----------
        pauli_columns = [j for j, e in enumerate(events) if e.kind == KIND_PAULI]
        readout_columns = [
            (j, e) for j, e in enumerate(events) if e.kind == KIND_READOUT
        ]
        trajectories: dict[int, list] = {}
        if fired is not None and pauli_columns:
            # One (qubits, paulis, position) per column.  A choice among
            # one is not drawn: ``integers(1)`` consumes nothing.
            choices = [
                (
                    tuple(map(int, events[j].qubits)),
                    events[j].paulis,
                    events[j].position,
                )
                for j in pauli_columns
            ]
            # Row-major: fixed draw order.  The column subset is not kept,
            # so it is not alive while the states are.
            for shot, column in np.argwhere(fired[:, pauli_columns]).tolist():
                qubits, paulis, position = choices[column]
                qubit = qubits[rng.integers(len(qubits))] if len(qubits) > 1 else qubits[0]
                pauli = paulis[rng.integers(len(paulis))] if len(paulis) > 1 else paulis[0]
                if position is None:
                    position = int(rng.integers(length + 1))
                trajectories.setdefault(shot, []).append((position, qubit, pauli))

        buckets: dict[tuple, list[int]] = {}
        clean_shots: list[int] = []
        for shot in range(shots):
            errors = trajectories.get(shot)
            if errors:
                buckets.setdefault(tuple(sorted(errors)), []).append(shot)
            else:
                clean_shots.append(shot)

        # The largest buckets run exactly, in first-error order so each
        # forks off the ideal walk; the rest form the approximate tail.
        ranked = sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        exact = sorted(
            ranked[:max_trajectories], key=lambda kv: (kv[0][0][0], kv[0])
        )
        approximate = ranked[max_trajectories:]

        # The uniforms behind the clean-shot and branch draws, in that
        # order (see the module docstring).
        clean_uniforms = rng.random(len(clean_shots))
        branch_uniforms = [rng.random(len(bucket)) for _, bucket in exact]

    # --- 3. one plan; the ideal walk is the shared prefix -------------
    forks = [signature[0][0] for signature, _ in exact]
    basis = np.empty(shots, dtype=np.int64)
    with _span("sim.ideal", instructions=length):
        plan = engine.plan(
            instructions, [insert for signature, _ in exact for insert in signature]
        )
        at = forks[0] if forks else length
        ideal = engine.replay(engine.initial_state(), plan, 0, at)

    # --- 4. exact trajectories, each a branch off the ideal walk ------
    exact_seconds = 0.0
    for (signature, bucket), uniforms, first in zip(exact, branch_uniforms, forks):
        if first > at:
            with _span("sim.ideal"):
                ideal = engine.replay(ideal, plan, at, first)
            at = first
        started = time.perf_counter()
        with _span(
            "sim.trajectory", position=first,
            errors=len(signature), shots=len(bucket),
        ):
            branch = engine.replay(
                ideal.copy(), plan, at, length, inserts=signature
            )
            basis[bucket] = engine.draw(engine.probabilities(branch), uniforms)
            del branch
        exact_seconds += time.perf_counter() - started
    if exact:
        profiler.add("sim.trajectory", exact_seconds, count=len(exact))

    with _span("sim.ideal"):
        # Only the distribution outlives the walk.
        ideal_probs = engine.probabilities(engine.replay(ideal, plan, at, length))
        del ideal
        basis[clean_shots] = engine.draw(ideal_probs, clean_uniforms)

    with _span("sim.sample", shots=shots):
        # --- 5. approximate tail: depolarize touched qubits ------------
        approx_shots = [shot for _, bucket in approximate for shot in bucket]
        if approx_shots:
            approx_shots.sort()
            basis[approx_shots] = engine.draw(
                ideal_probs, rng.random(len(approx_shots))
            )
            for shot in approx_shots:
                value = int(basis[shot])
                for _, qubit, _ in trajectories[shot]:
                    current = (value >> qubit) & 1
                    value ^= (current ^ int(rng.integers(2))) << qubit
                basis[shot] = value
            profiler.add("sim.approx_shots", 0.0, count=len(approx_shots))

        # --- 6. readout flips (exact, classical) -----------------------
        for column, event in readout_columns:
            flips = fired[:, column]
            if flips.any():
                basis[flips] ^= 1 << event.qubits[0]

        # --- 7. aggregate and score ------------------------------------
        values, value_counts = np.unique(basis, return_counts=True)
        ordered = sorted(
            zip(values.tolist(), value_counts.tolist()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        counts = {bitstring(v, n): int(c) for v, c in ordered}

        eps_sampled = error_free / shots
        eps_ci = wilson_interval(error_free, shots)
        eps_analytic = model.analytic_eps() if model is not None else 1.0

        quality: dict = {}
        if formula is not None:
            if formula.num_vars != n:
                raise SimulationError(
                    f"formula has {formula.num_vars} variables but the program "
                    f"has {n} qubits; cannot score"
                )
            quality = score_samples(formula, basis)

        stats = {
            "events": len(events),
            "events_fired": int(fired.sum()) if fired is not None else 0,
            "unique_trajectories": len(buckets),
            "exact_trajectories": len(exact),
            "approx_shots": len(approx_shots) if approx_shots else 0,
            "noise": model.describe() if model is not None else None,
        }
        return ExecutionResult(
            workload=schedule.name,
            shots=shots,
            counts=counts,
            target=target,
            device=device,
            seed=seed if isinstance(seed, int) else None,
            noise_scale=model.scale if model is not None else None,
            engine=engine.name,
            num_qubits=n,
            error_free_shots=error_free,
            eps_sampled=eps_sampled,
            eps_ci=eps_ci,
            eps_analytic=eps_analytic,
            duration_us=schedule.duration_us,
            stats=stats,
            profile=_deterministic_profile(profiler.profile()),
            **quality,
        )


def _deterministic_profile(profile: dict) -> dict:
    """The seed-reproducible view of a run's ``sim.*`` profile.

    Execution payloads promise bit-identical JSON for identical seeds
    (they are content-addressed by the service's artifact store), so
    wall-clock timings must not ride along: keep every counter, drop
    every ``seconds`` field and the pure-timing pass entries.
    """
    return {
        "schema": profile.get("schema"),
        "primitives": {
            name: {"count": entry["count"]}
            for name, entry in (profile.get("primitives") or {}).items()
        },
        "caches": profile.get("caches") or {},
    }
