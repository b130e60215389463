"""Cross-target differential conformance suite.

The cross-target analogue of ``test_cluster_equivalence.py``: a seeded
corpus of CNF workloads is compiled on **every registered target** (and,
for the device-aware targets, on every compatible built-in device), and
each cell must

* succeed,
* be wChecker-verified against its own native reference circuit when the
  target emits wQasm (using the *device's* hardware parameters, not the
  defaults),
* agree with every other target's native circuit up to unitary
  equivalence (all backends lower the same QAOA ansatz), and
* survive a stable JSON round trip of :class:`~repro.CompilationResult`
  (``to_dict -> from_dict -> to_dict`` is a fixed point — the property
  the artifact store's byte-identity contract rests on).

The corpus stays at <= 6 variables so dense unitary equivalence is exact
and the full grid runs in the fast lane.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.checker.unitary_check import EquivalenceMethod, equivalence_check
from repro.devices import DeviceProfile, list_devices
from repro.sat import random_ksat
from repro.targets import CompileRequest, CompilerSession

#: Seeded corpus: (num_vars, num_clauses, seed).  Small enough for exact
#: unitary equivalence, varied enough to exercise coloring and layout.
CORPUS = (
    (4, 6, 11),
    (5, 8, 23),
    (6, 10, 47),
)

#: Budgets keep a regression from hanging the suite; generous enough
#: that every healthy target compiles a 6-variable formula instantly.
SESSION_BUDGETS = {name: 60.0 for name in repro.available_targets()}


def _corpus_formula(spec):
    num_vars, num_clauses, seed = spec
    return random_ksat(
        num_vars, num_clauses, seed=seed, name=f"diff-{num_vars}v-{seed}"
    )


@pytest.fixture(scope="module", params=CORPUS, ids=lambda s: f"{s[0]}v-s{s[2]}")
def grid(request):
    """All (target, device) cells of one corpus formula, compiled once."""
    formula = _corpus_formula(request.param)
    session = CompilerSession(budgets=SESSION_BUDGETS)
    cells: dict[tuple, repro.CompilationResult] = {}
    for target in repro.available_targets():
        cells[(target, None)] = session.compile(formula, target=target)
    for device in list_devices(kind="fpqa"):
        profile = repro.get_device(device)
        if profile.max_qubits is not None and profile.max_qubits < formula.num_vars:
            continue
        cells[("fpqa", device)] = session.compile(
            formula, target="fpqa", device=device
        )
    for device in list_devices(kind="superconducting"):
        cells[("superconducting", device)] = session.compile(
            formula, target="superconducting", device=device
        )
    return formula, cells


def _checker_hardware(result):
    """The hardware the program was compiled for (device or defaults)."""
    if result.device_profile is not None:
        return DeviceProfile.from_dict(result.device_profile).hardware
    return None


class TestDifferentialConformance:
    def test_every_cell_succeeds(self, grid):
        formula, cells = grid
        failures = {
            cell: result.error or "timed_out"
            for cell, result in cells.items()
            if not result.succeeded
        }
        assert not failures, f"failed cells for {formula.name}: {failures}"

    def test_shapes_agree_across_targets(self, grid):
        formula, cells = grid
        for cell, result in cells.items():
            assert result.num_qubits == formula.num_vars, cell
            assert result.num_clauses == formula.num_clauses, cell
            assert result.workload == formula.name, cell

    def test_wqasm_cells_are_checker_verified(self, grid):
        """Every emitted program implements its own reference circuit."""
        formula, cells = grid
        checked = 0
        for cell, result in cells.items():
            if result.program is None:
                continue
            report = repro.check_program(
                result.program,
                reference=result.native_circuit,
                hardware=_checker_hardware(result),
            )
            assert report.ok, (
                f"wChecker rejected {cell} for {formula.name}: "
                f"{report.operation_failures[:3]}"
            )
            checked += 1
        # fpqa, fpqa-nocompress, and every compatible FPQA device cell.
        assert checked >= 3

    def test_native_circuits_equivalent_across_targets(self, grid):
        """All backends lower the same ansatz: unitaries must agree."""
        formula, cells = grid
        natives = [
            (cell, result.native_circuit)
            for cell, result in cells.items()
            if result.native_circuit is not None
        ]
        assert len(natives) >= 3
        reference_cell, reference = natives[0]
        for cell, circuit in natives[1:]:
            same, method = equivalence_check(reference, circuit)
            assert method is EquivalenceMethod.UNITARY  # corpus is small
            assert same, (
                f"{cell} is not unitarily equivalent to {reference_cell} "
                f"for {formula.name}"
            )

    def test_device_cells_record_provenance(self, grid):
        _, cells = grid
        device_cells = [cell for cell in cells if cell[1] is not None]
        assert device_cells
        for cell in device_cells:
            result = cells[cell]
            assert result.device == cell[1]
            profile = DeviceProfile.from_dict(result.device_profile)
            assert profile.name == cell[1]

    def test_json_round_trip_is_stable(self, grid):
        """to_dict -> JSON -> from_dict -> to_dict is a fixed point."""
        _, cells = grid
        for cell, result in cells.items():
            first = result.to_dict()
            wire = json.loads(json.dumps(first))  # force JSON-safe types
            reborn = repro.CompilationResult.from_dict(wire)
            second = reborn.to_dict()
            assert second == first, f"unstable JSON round trip for {cell}"

    def test_round_trip_preserves_program_text(self, grid):
        _, cells = grid
        for cell, result in cells.items():
            if result.program is None:
                continue
            reborn = repro.CompilationResult.from_dict(
                json.loads(json.dumps(result.to_dict()))
            )
            assert reborn.program.to_wqasm() == result.program.to_wqasm(), cell

    def test_from_dict_rejects_unknown_schema(self, grid):
        _, cells = grid
        payload = next(iter(cells.values())).to_dict()
        payload["schema"] = 9999
        with pytest.raises(ValueError, match="schema"):
            repro.CompilationResult.from_dict(payload)


# ----------------------------------------------------------------------
# Cross-front-end conformance: repro.compile, the session and the
# service compile one request to the same bytes under one content key,
# and a cache directory written by either front end serves the other.
# ----------------------------------------------------------------------
FRONT_END_CELLS = (
    ("fpqa", None),
    ("fpqa", "aquila-256"),
    ("superconducting", None),
)


def _artifact_text(result) -> tuple:
    payload = result.to_dict()
    reference = json.dumps(payload.get("reference"), sort_keys=True)
    return payload.get("program_wqasm"), reference, payload.get("native_qasm")


async def _service_round(store_dir, formula, target, device):
    from repro.service import ArtifactStore, CompilationService

    store = ArtifactStore(directory=store_dir)
    async with CompilationService(shards=1, backend="inline", store=store) as service:
        job = await service.submit(formula, target=target, device=device)
        return job, await job


@pytest.mark.parametrize("spec", CORPUS, ids=lambda s: f"{s[0]}v-s{s[2]}")
@pytest.mark.parametrize("target,device", FRONT_END_CELLS)
def test_front_ends_agree_on_bytes_and_key(spec, target, device, tmp_path):
    formula = _corpus_formula(spec)
    key = CompileRequest(formula, target, device=device).key
    direct = repro.compile(formula, target=target, device=device)

    session_dir, service_dir = tmp_path / "session", tmp_path / "service"
    row = CompilerSession(cache_dir=session_dir).compile(
        formula, target=target, device=device
    )
    assert [path.stem for path in session_dir.glob("*.json")] == [key]
    job, served = asyncio.run(_service_round(service_dir, formula, target, device))
    assert job.key == key and not job.from_cache

    texts = {_artifact_text(result) for result in (direct, row, served)}
    assert len(texts) == 1 and next(iter(texts)) != (None, "null", None)

    # A session directory serves the service, and the reverse.
    job, _ = asyncio.run(_service_round(session_dir, formula, target, device))
    assert job.from_cache
    again = CompilerSession(cache_dir=service_dir).compile(
        formula, target=target, device=device
    )
    assert again.cached
    assert _artifact_text(again) == _artifact_text(direct)
