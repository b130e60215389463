"""CLI front door for the service: ``weaver serve`` / ``weaver submit``."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.sat import CnfFormula, to_dimacs

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def cnf_file(tmp_path) -> Path:
    formula = CnfFormula.from_lists(
        [[1, -2, 3], [-1, 2, 4], [2, 3, -4]], num_vars=4, name="cli-svc"
    )
    path = tmp_path / "cli-svc.cnf"
    path.write_text(to_dimacs(formula), encoding="utf-8")
    return path


def test_submit_without_server_exits_2(tmp_path, cnf_file, capsys):
    rc = main(
        ["submit", str(cnf_file), "--socket", str(tmp_path / "absent.sock")]
    )
    assert rc == 2
    assert "weaver serve" in capsys.readouterr().err


def test_submit_without_input_or_op_exits_2(tmp_path, capsys):
    # Argument validation happens after connect; spin up nothing and use
    # a missing socket so the connect error dominates — then check the
    # pure-validation branch against a live server below.
    rc = main(["submit", "--socket", str(tmp_path / "absent.sock")])
    assert rc == 2


def test_serve_submit_round_trip(tmp_path, cnf_file):
    """Full subprocess loop: serve, submit twice, stats, shutdown."""
    socket = tmp_path / "weaver.sock"
    env = {**os.environ, "PYTHONPATH": REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(socket),
         "--shards", "1"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 30
        while not socket.exists():
            assert server.poll() is None, "server died during startup"
            assert time.time() < deadline, "server socket never appeared"
            time.sleep(0.05)

        out1 = tmp_path / "a.wqasm"
        rc = main(
            ["submit", str(cnf_file), "--socket", str(socket), "-o", str(out1)]
        )
        assert rc == 0
        assert "OPENQASM" in out1.read_text(encoding="utf-8")

        # Warm resubmission must be byte-identical output.
        out2 = tmp_path / "b.wqasm"
        rc = main(
            ["submit", str(cnf_file), "--socket", str(socket), "-o", str(out2)]
        )
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

        # A SATLIB-style instance name works as it does for `compile`.
        rc = main(
            ["submit", "uf20-01", "--socket", str(socket), "-t", "atomique"]
        )
        assert rc == 0

        rc = main(["submit", "--stats", "--socket", str(socket)])
        assert rc == 0

        rc = main(["submit", "--shutdown", "--socket", str(socket)])
        assert rc == 0
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


def test_submit_unknown_target_against_live_server(tmp_path, cnf_file, capsys):
    """User errors from the server come back as exit 2, not tracebacks."""
    import asyncio
    import threading

    from repro.service import serve

    socket = tmp_path / "weaver.sock"
    loop = asyncio.new_event_loop()
    ready = asyncio.Event()

    def run_server():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(
            serve(socket, shards=1, backend="inline", ready=ready)
        )

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    deadline = time.time() + 30
    while not socket.exists() and time.time() < deadline:
        time.sleep(0.02)
    assert socket.exists()
    try:
        rc = main(
            ["submit", str(cnf_file), "--socket", str(socket), "-t", "pixie"]
        )
        assert rc == 2
        assert "pixie" in capsys.readouterr().err
        rc = main(["submit", str(cnf_file), "--socket", str(socket)])
        assert rc == 0
    finally:
        rc = main(["submit", "--shutdown", "--socket", str(socket)])
        assert rc == 0
        thread.join(timeout=30)
        assert not thread.is_alive()
