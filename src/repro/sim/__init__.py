"""repro.sim: the noise-aware execution simulator (compile -> run -> score).

The missing half of the reproduction loop: everything else in the
framework *estimates* (analytic EPS, duration models, cost tables);
this package *executes*.  A compiled artifact — the wQasm pulse program
for FPQA targets, the native circuit for gate-level ones — is replayed
shot by shot under a Monte-Carlo noise model derived from the active
device profile, and the sampled outcomes are scored as MAX-SAT
solutions (counts, sampled EPS with confidence interval, QAOA energy
and approximation ratio).

Entry points, highest level first::

    result = repro.compile(formula, device="rubidium-baseline",
                           simulate={"shots": 2000, "seed": 7})
    result.execution["eps_sampled"]

    execution = result.simulate(shots=2000, seed=7, formula=formula)

    from repro.sim import simulate_program
    execution = simulate_program(program, hardware)

plus the ``weaver simulate`` CLI command and the ``sim`` job kind of
:mod:`repro.service`.
"""

from .engine import StatevectorEngine, bitstring
from .executor import (
    DEFAULT_MAX_TRAJECTORIES,
    DEFAULT_SHOTS,
    attach_simulation,
    canonical_sim_options,
    run_schedule,
    schedule_for_result,
    simulate_circuit,
    simulate_program,
    simulate_result,
)
from .noise import NoiseEvent, NoiseModel, resolve_noise
from .result import EXECUTION_SCHEMA_VERSION, ExecutionResult, wilson_interval
from .schedule import Schedule, schedule_from_circuit, schedule_from_program
from .score import score_samples

__all__ = [
    "DEFAULT_MAX_TRAJECTORIES",
    "DEFAULT_SHOTS",
    "EXECUTION_SCHEMA_VERSION",
    "ExecutionResult",
    "NoiseEvent",
    "NoiseModel",
    "Schedule",
    "StatevectorEngine",
    "attach_simulation",
    "bitstring",
    "canonical_sim_options",
    "resolve_noise",
    "run_schedule",
    "schedule_for_result",
    "schedule_from_circuit",
    "schedule_from_program",
    "score_samples",
    "simulate_circuit",
    "simulate_program",
    "simulate_result",
    "wilson_interval",
]
