"""``repro.targets``: the unified retargetable compilation API.

One entrypoint, a backend registry, and batched sessions::

    import repro

    result = repro.compile("problem.cnf", target="fpqa")

    session = repro.CompilerSession(budgets={"dpqa": 60.0})
    rows = session.compile_many(workloads, targets=["fpqa", "atomique"],
                                parallel=4)

See :mod:`repro.targets.base` for the :class:`Target` protocol and
:mod:`repro.targets.registry` for adding backends.
"""

from .api import compile
from .base import (
    CAP_CIRCUIT,
    CAP_FORMULA,
    CAP_VERIFY,
    CAP_WQASM,
    Target,
)
from .builtin import FPQATarget, NoCompressFPQATarget, SuperconductingTarget
from .registry import (
    available_targets,
    get_target,
    register_target,
    resolve_target_name,
    target_info,
)
from .artifacts import ArtifactStore
from .request import CompileRequest
from .result import CompilationResult
from .session import CompilerSession
from .workload import Workload, coerce_workload
from ..baselines import AtomiqueTarget, DpqaTarget, GeyserTarget

__all__ = [
    "CAP_CIRCUIT",
    "CAP_FORMULA",
    "CAP_VERIFY",
    "CAP_WQASM",
    "ArtifactStore",
    "AtomiqueTarget",
    "CompilationResult",
    "CompileRequest",
    "CompilerSession",
    "DpqaTarget",
    "FPQATarget",
    "GeyserTarget",
    "NoCompressFPQATarget",
    "SuperconductingTarget",
    "Target",
    "Workload",
    "available_targets",
    "coerce_workload",
    "compile",
    "get_target",
    "register_target",
    "resolve_target_name",
    "target_info",
]
