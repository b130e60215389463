"""repro.analysis: the wLint static verification layer.

A compiled pulse program can be *proved* safe against the FPQA
constraint system (paper Table 1) in one linear pass, without the
wChecker's per-operation unitary reconstruction.  This package holds
the diagnostic framework (stable ``WL###`` rule codes, severities,
source locations, JSON-round-trippable reports) and the passes behind
it.  The program pass replays the stream through the one FPQA machine
model, :class:`~repro.fpqa.device.FPQADevice`, in report mode: each
Table-1 violation the device reports carries its ``WL###`` code and
becomes a diagnostic.  The checks:

* shuttle order preservation across ``ParallelShuttle`` groups,
* trap-occupancy dataflow (binds, transfers, readout orphans),
* qubit liveness,
* Rydberg interference sets from the replayed atom positions,
* cost-model bounds (duration / pulse count / EPS), and
* circuit-IR checks for gate-level targets.

Entry points, highest level first::

    result = repro.compile(formula, device="rubidium-baseline", analyze=True)
    result.analysis["ok"]

    report = result.analyze()            # pure; nothing recorded

    from repro.analysis import analyze_program
    report = analyze_program(program, hardware)

plus the ``weaver lint`` CLI command and the ``lint`` job kind of
:mod:`repro.service`.
"""

from .api import (
    analyze_circuit,
    analyze_program,
    analyze_result,
    attach_analysis,
    canonical_analyze_options,
)
from .diagnostics import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceLocation,
    format_report,
)
from .registry import RETIRED_CODES, LintRule, all_rules, get_rule, register_rule

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisReport",
    "Diagnostic",
    "LintRule",
    "RETIRED_CODES",
    "Severity",
    "SourceLocation",
    "all_rules",
    "analyze_circuit",
    "analyze_program",
    "analyze_result",
    "attach_analysis",
    "canonical_analyze_options",
    "format_report",
    "get_rule",
    "register_rule",
]
