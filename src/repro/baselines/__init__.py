"""Comparison compilers the paper evaluates against (§8.1), as targets.

Faithful laptop-scale re-implementations of the published algorithms,
each a :class:`~repro.targets.Target` registered under its name and
returning the same :class:`~repro.targets.CompilationResult` as every
other backend:

* :class:`AtomiqueTarget` — fixed-atom-array compiler with SABRE-style
  mapping (O(N^3)) and movement-based (swap-free) routing, no 3-qubit
  gates [102].
* :class:`GeyserTarget` — circuit blocking into 3-qubit blocks on a
  fixed triangular lattice with an O(K^2) composition/optimization stage
  and no atom movement [68].
* :class:`DpqaTarget` — solver-style scheduling of 2-qubit gates into
  Rydberg stages via exact maximum-independent-set search per stage;
  completes on small instances and blows past any reasonable budget on
  larger ones, like the original SMT formulation [94].

The superconducting baseline is the built-in ``superconducting`` target.
All of them honor the cooperative :class:`~repro.targets.base.Deadline`,
which reproduces the paper's "X" (timed out) entries at laptop scale.
"""

from .atomique import AtomiqueTarget
from .dpqa import DpqaTarget
from .geyser import GeyserTarget

__all__ = ["AtomiqueTarget", "DpqaTarget", "GeyserTarget"]
