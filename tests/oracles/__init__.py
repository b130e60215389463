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
"""
