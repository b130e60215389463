"""Reference implementations kept only to test against.

``lexer`` and ``parser`` are the character-at-a-time OpenQASM lexer and
the token-list recursive-descent parser the front end used before the
regex scanner, unchanged except for their imports (absolute
``repro.exceptions`` / ``repro.qasm.ast``).  The differential test
``test_qasm_frontend_differential.py`` checks that the current front end
builds the same AST, and fails the same way, on every source it covers.

``checker`` is the wChecker before it memoized pulse conversion and gate
matching and skipped building circuits no equivalence layer reads;
``test_checker_differential.py`` checks that the current checker returns
an equal report on every program it covers.

``device``, ``euler`` and ``sim`` hold the slow algorithms the FPQA
compile and the simulator replaced, moved out of ``src/`` when the
compile lost its switchable reference pipeline: the dense O(n^2) Rydberg
cluster resolver (``test_cluster_equivalence.py``), the explicit SO(3)
Euler extraction (``test_perf.py::TestClosedFormEuler``) and the naive
``2^n x 2^n`` statevector engine (``test_sim.py``).  The timing floors in
``benchmarks/test_micro.py`` and ``benchmarks/test_sim_throughput.py``
race the current code against them in the same run.

``device`` also holds the shuttle check that rescanned every AOD gap
(``test_fpqa_device.py::TestShuttleDifferential``), and ``polynomial``
the ``formula_polynomial`` that folded clause polynomials with ``+``
(``test_sat.py::TestPolynomialDifferential``); both left the reference
and device replay paths of the FPQA compile.

``cost`` holds the three program walks (pulse count, duration, EPS) the
FPQA cost model ran before its single pass
(``test_metrics.py::TestProgramCostDifferential``).
"""
