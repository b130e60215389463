"""repro.service: jobs, fair queue, artifact store, service, and socket.

Event-loop tests run through ``asyncio.run`` (no pytest-asyncio in the
toolchain); the service backend under test is ``inline``/``thread`` so
the suite stays in the fast lane.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.perf import Profiler
from repro.service import (
    ArtifactStore,
    CompilationService,
    CompileJob,
    FairQueue,
    ServiceClient,
    ServiceServer,
    serve,
    shard_key,
    submit_once,
)
from repro.service.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    payload_to_workload,
    workload_to_payload,
)
from repro.service.service import _shard_of
from repro.sat import CnfFormula
from repro.targets import CompileRequest, Workload


def _formula(name: str = "svc", seed: int = 0) -> CnfFormula:
    clauses = [[1, -2, 3], [-1, 2, 4], [2, 3, -4], [1, 2, -3], [-2, -3, 4]]
    return CnfFormula.from_lists(
        clauses[: 2 + (seed % 4)], num_vars=4, name=name
    )


def _job(client: str, priority: int = 0, name: str = "w") -> CompileJob:
    return CompileJob(
        request=CompileRequest(_formula(name), "fpqa"),
        client=client,
        priority=priority,
    )


# ----------------------------------------------------------------------
# FairQueue
# ----------------------------------------------------------------------
class TestFairQueue:
    def test_priority_orders_before_fairness(self):
        async def run():
            queue = FairQueue()
            low = _job("a", priority=5)
            high = _job("b", priority=0)
            queue.put_nowait(low)
            queue.put_nowait(high)
            assert (await queue.get()) is high
            assert (await queue.get()) is low

        asyncio.run(run())

    def test_round_robin_across_clients(self):
        """A flood from one tenant cannot starve another's single job."""

        async def run():
            queue = FairQueue()
            flood = [_job("hog") for _ in range(10)]
            for job in flood:
                queue.put_nowait(job)
            single = _job("mouse")
            queue.put_nowait(single)
            first = await queue.get()
            second = await queue.get()
            assert first is flood[0]
            assert second is single  # round-robin: mouse gets the next slot

        asyncio.run(run())

    def test_fifo_within_client(self):
        async def run():
            queue = FairQueue()
            jobs = [_job("a") for _ in range(3)]
            for job in jobs:
                queue.put_nowait(job)
            served = [await queue.get() for _ in range(3)]
            assert served == jobs

        asyncio.run(run())

    def test_get_waits_for_put(self):
        async def run():
            queue = FairQueue()
            getter = asyncio.create_task(queue.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            job = _job("a")
            queue.put_nowait(job)
            assert (await asyncio.wait_for(getter, 5)) is job

        asyncio.run(run())

    def test_drain_empties_queue(self):
        async def run():
            queue = FairQueue()
            for _ in range(4):
                queue.put_nowait(_job("a"))
            assert len(queue.drain()) == 4
            assert len(queue) == 0

        asyncio.run(run())


# ----------------------------------------------------------------------
# ArtifactStore + content addressing
# ----------------------------------------------------------------------
def _key(workload, target: str = "fpqa", **fields) -> str:
    return CompileRequest(workload, target, **fields).key


class TestArtifactKey:
    def test_same_content_different_name_has_distinct_key(self):
        """The name is part of the artifact bytes (the result's
        ``workload`` field, the wQasm program name), so it is part of
        the key: a renamed copy is another artifact."""
        a = Workload.from_formula(_formula("alpha"))
        b = Workload.from_formula(_formula("beta"))
        assert _key(a) != _key(b)
        assert _key(a) == _key(Workload.from_formula(_formula("alpha")))

    def test_every_input_dimension_changes_key(self):
        w = Workload.from_formula(_formula())
        base = _key(w)
        assert _key(w, "superconducting") != base
        assert _key(w, device="aquila-256") != base
        assert _key(w, options={"compression": False}) != base
        assert _key(w, budget=1.0) != base
        assert _key(w, parameters=repro.QaoaParameters((0.1,), (0.2,))) != base

    def test_different_content_changes_key(self):
        a = Workload.from_formula(_formula("x", seed=0))
        b = Workload.from_formula(_formula("x", seed=1))
        assert _key(a) != _key(b)


class TestArtifactStore:
    def _result(self, tiny_formula) -> repro.CompilationResult:
        return repro.compile(tiny_formula, target="fpqa")

    def test_round_trip_and_counters(self, tiny_formula):
        store = ArtifactStore(max_entries=4)
        key = "k" * 64
        assert store.get(key) is None
        result = self._result(tiny_formula)
        store.put(key, result)
        entry = ArtifactStore.encode(result)
        back = store.get(key)
        assert back is not None and back.cached
        assert back.num_pulses == result.num_pulses
        assert store.get_bytes(key) == entry  # byte-identical artifact
        assert store.stats()["hits"] == 2
        assert store.stats()["misses"] == 1
        assert store.stats()["hit_rate"] == pytest.approx(2 / 3)

    def test_lru_eviction(self, tiny_formula):
        store = ArtifactStore(max_entries=2)
        result = self._result(tiny_formula)
        store.put("a", result)
        store.put("b", result)
        assert store.get("a") is not None  # refresh a; b is now LRU
        store.put("c", result)
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.stats()["evictions"] == 1

    def test_error_rows_not_stored(self, tiny_formula):
        store = ArtifactStore()
        row = repro.CompilationResult(
            target="fpqa", workload="w", num_qubits=4, error="boom"
        )
        store.put("k", row)
        assert len(store) == 0

    def test_disk_tier_survives_restart(self, tmp_path, tiny_formula):
        result = self._result(tiny_formula)
        first = ArtifactStore(directory=tmp_path / "artifacts")
        first.put("deadbeef", result)
        entry = ArtifactStore.encode(result)
        reborn = ArtifactStore(directory=tmp_path / "artifacts")
        assert reborn.get_bytes("deadbeef") == entry
        assert reborn.stats()["hits"] == 1

    def test_put_leaves_no_temp_file(self, tmp_path, tiny_formula):
        directory = tmp_path / "artifacts"
        store = ArtifactStore(directory=directory)
        store.put("k" * 64, self._result(tiny_formula))
        assert [path.name for path in directory.iterdir()] == ["k" * 64 + ".json"]

    def test_corrupt_disk_entry_is_miss_and_purged(self, tmp_path):
        directory = tmp_path / "artifacts"
        directory.mkdir()
        (directory / "bad.json").write_text("{not json", encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get_bytes("bad") is None
        assert store.stats()["misses"] == 1
        # The junk file is gone: later probes cannot keep re-reading it.
        assert not (directory / "bad.json").exists()

    @pytest.mark.parametrize("field", ["program_wqasm", "native_qasm"])
    @pytest.mark.parametrize("value", [7, ["x"]])
    def test_wrong_typed_program_text_is_miss_and_purged(
        self, tmp_path, tiny_formula, field, value
    ):
        """Valid JSON whose program text is not a string is a corrupt
        entry like any other: a miss, purged, and no exception out of
        a session that reads the same directory."""
        directory = tmp_path / "artifacts"
        key = CompileRequest(tiny_formula, target="fpqa").key
        ArtifactStore(directory=directory).put(key, self._result(tiny_formula))
        path = directory / (key + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get(key) is None
        assert store.stats()["misses"] == 1
        assert not path.exists()
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = repro.CompilerSession(cache_dir=directory).compile(tiny_formula, target="fpqa")
        assert result.error is None and not result.cached

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_qubits", "x"),
            ("num_qubits", True),
            ("stats", 7),
            ("timed_out", "yes"),
            ("device_profile", 5),
            ("eps", "0.9"),
            ("error", ["boom"]),
        ],
    )
    def test_wrong_typed_field_is_miss_and_purged(
        self, tmp_path, tiny_formula, field, value
    ):
        """A metadata field of the wrong type is as corrupt as wrong-typed
        program text: a miss, purged, never a hit serving a bad record."""
        directory = tmp_path / "artifacts"
        key = CompileRequest(tiny_formula, target="fpqa").key
        ArtifactStore(directory=directory).put(key, self._result(tiny_formula))
        path = directory / (key + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get(key) is None
        assert store.stats()["misses"] == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "profile", [{}, {"name": "x"}, {"name": "x", "kind": "fpqa", "params": []}]
    )
    def test_malformed_device_profile_is_miss_and_purged(
        self, tmp_path, tiny_formula, profile
    ):
        """A ``device_profile`` object that is no profile would decode as
        a hit whose ``simulate()`` raises; it must be a purged miss."""
        directory = tmp_path / "artifacts"
        key = CompileRequest(
            tiny_formula, target="fpqa", device="rubidium-baseline"
        ).key
        result = repro.compile(tiny_formula, target="fpqa", device="rubidium-baseline")
        assert result.device_profile is not None
        ArtifactStore(directory=directory).put(key, result)
        path = directory / (key + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["device_profile"] = profile
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get(key) is None
        assert store.stats()["hits"] == 0
        assert store.stats()["misses"] == 1
        assert not path.exists()

    def test_non_object_entry_is_miss_and_purged(self, tmp_path):
        directory = tmp_path / "artifacts"
        directory.mkdir()
        (directory / "k.json").write_text("[1, 2]", encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get("k") is None
        assert store.stats()["misses"] == 1
        assert not (directory / "k.json").exists()

    def test_unparseable_program_is_miss_and_purged(self, tmp_path, tiny_formula):
        """Valid JSON whose ``program_wqasm`` no longer parses decodes to
        a QasmSyntaxError; get() must purge it and count a miss."""
        directory = tmp_path / "artifacts"
        ArtifactStore(directory=directory).put("k" * 64, self._result(tiny_formula))
        path = directory / ("k" * 64 + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["program_wqasm"] = payload["program_wqasm"].replace("cz ", "cz $", 1)
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get("k" * 64) is None
        assert store.stats()["hits"] == 0
        assert store.stats()["misses"] == 1
        assert not path.exists()

    def test_stale_schema_artifact_is_miss_not_hit(self, tmp_path):
        """An artifact from an older schema must count as a miss, be
        purged from every tier, and never inflate the hit rate."""
        directory = tmp_path / "artifacts"
        directory.mkdir()
        stale = json.dumps({"schema": 9999, "target": "fpqa", "workload": "w"})
        (directory / ("s" * 64 + ".json")).write_text(stale, encoding="utf-8")
        store = ArtifactStore(directory=directory)
        assert store.get("s" * 64) is None
        assert store.stats()["hits"] == 0
        assert store.stats()["misses"] == 1
        assert not (directory / ("s" * 64 + ".json")).exists()
        # Second probe: a plain miss, not a resurrected stale entry.
        assert store.get("s" * 64) is None
        assert store.stats()["misses"] == 2

    def test_profiler_mirrors_counters(self, tiny_formula):
        profiler = Profiler()
        store = ArtifactStore(profiler=profiler)
        store.get("nope")
        store.put("k", self._result(tiny_formula))
        store.get("k")
        assert profiler.caches["service.artifacts"] == [1, 1]

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
class TestSharding:
    def test_same_cell_same_shard(self):
        key = shard_key("fpqa", "aquila-256")
        assert _shard_of(key, 4) == _shard_of(key, 4)

    def test_device_distinguishes_cells(self):
        assert shard_key("fpqa") != shard_key("fpqa", "aquila-256")
        assert shard_key("fpqa") != shard_key("superconducting")

    def test_routing_is_stable_across_processes(self):
        # crc32, not hash(): no PYTHONHASHSEED dependence.
        assert _shard_of(shard_key("fpqa"), 8) == _shard_of(shard_key("fpqa"), 8)

    def test_service_routes_same_cell_to_same_shard(self):
        async def run():
            async with CompilationService(shards=3, backend="inline") as service:
                a = await service.submit(_formula("a"), target="fpqa")
                b = await service.submit(_formula("b", seed=1), target="fpqa")
                await service.gather([a, b])
                assert a.shard == b.shard

        asyncio.run(run())


# ----------------------------------------------------------------------
# CompilationService
# ----------------------------------------------------------------------
class TestCompilationService:
    def test_submit_and_gather_in_order(self):
        async def run():
            async with CompilationService(shards=2, backend="thread") as service:
                jobs = await service.submit_many(
                    [_formula("a"), _formula("b", seed=1)],
                    targets=["fpqa", "atomique"],
                )
                results = await service.gather(jobs)
                assert [(r.workload, r.target) for r in results] == [
                    ("a", "fpqa"),
                    ("a", "atomique"),
                    ("b", "fpqa"),
                    ("b", "atomique"),
                ]
                assert all(r.succeeded for r in results)

        asyncio.run(run())

    def test_warm_store_hit_is_instant_and_byte_identical(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                first = await service.submit(_formula(), target="fpqa")
                await first
                again = await service.submit(_formula(), target="fpqa")
                result = await again
                assert again.from_cache
                assert result.cached
                assert again.status.value == "done"
                raw_first = service.store.get_bytes(first.key)
                raw_again = service.store.get_bytes(again.key)
                assert raw_first == raw_again
                assert service.store.stats()["hits"] >= 1

        asyncio.run(run())

    def test_renamed_copy_is_not_served_another_workloads_result(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                first = await service.submit(_formula("t"), target="fpqa")
                assert (await first).workload == "t"
                renamed = await service.submit(_formula("renamed"), target="fpqa")
                result = await renamed
                assert not renamed.from_cache
                assert result.workload == "renamed"
                assert result.program.name.endswith("renamed")

        asyncio.run(run())

    def test_inflight_dedup_compiles_once(self):
        async def run():
            async with CompilationService(shards=1, backend="thread") as service:
                jobs = [
                    await service.submit(_formula(), target="fpqa")
                    for _ in range(4)
                ]
                results = await service.gather(jobs)
                assert [j.from_cache for j in jobs[1:]] == [True] * 3
                assert len({id(r) for r in results}) <= 2
                stats = service.stats()
                assert stats["profile"]["caches"]["service.inflight"]["hits"] == 3
                # Only one actual compilation hit the store.
                assert stats["artifacts"]["entries"] == 1

        asyncio.run(run())

    def test_failures_become_result_rows(self, tiny_formula):
        async def run():
            circuit = repro.qaoa_circuit(tiny_formula, measure=False)
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(circuit, target="atomique")
                result = await job
                assert not result.succeeded
                assert "WorkloadError" in result.error
                # Error rows are never stored as artifacts.
                assert service.store.stats()["entries"] == 0

        asyncio.run(run())

    def test_timeout_becomes_timed_out_row(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(_formula(), target="fpqa", timeout=1e-9)
                result = await job
                assert result.timed_out and not result.succeeded

        asyncio.run(run())

    def test_per_target_budgets_apply(self):
        async def run():
            async with CompilationService(
                shards=1, backend="inline", budgets={"fpqa": 1e-9}
            ) as service:
                strangled = await service.submit(_formula(), target="fpqa")
                assert (await strangled).timed_out
                fine = await service.submit(_formula(), target="atomique")
                assert (await fine).succeeded

        asyncio.run(run())

    def test_progress_events(self):
        async def run():
            events: list[str] = []
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(
                    _formula(),
                    target="fpqa",
                    on_progress=lambda j, e: events.append(e),
                )
                await job
                assert events == ["queued", "started", "done"]
                cached_events: list[str] = []
                hit = await service.submit(
                    _formula(),
                    target="fpqa",
                    on_progress=lambda j, e: cached_events.append(e),
                )
                await hit
                assert cached_events == ["queued", "done"]

        asyncio.run(run())

    def test_progress_callback_errors_do_not_kill_jobs(self):
        async def run():
            def bomb(job, event):
                raise RuntimeError("observer bug")

            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(_formula(), target="fpqa", on_progress=bomb)
                assert (await job).succeeded

        asyncio.run(run())

    def test_unknown_target_rejected_at_submit(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                with pytest.raises(repro.UnknownTargetError):
                    await service.submit(_formula(), target="pixie")

        asyncio.run(run())

    def test_submit_requires_running_service(self):
        async def run():
            service = CompilationService(shards=1, backend="inline")
            with pytest.raises(repro.TargetError, match="not running"):
                await service.submit(_formula())

        asyncio.run(run())

    def test_stop_cancels_pending_jobs(self):
        async def run():
            service = CompilationService(shards=1, backend="thread")
            await service.start()
            jobs = [
                await service.submit(_formula(f"w{i}", seed=i), target="fpqa")
                for i in range(2)
            ]
            await service.stop()
            for job in jobs:
                result = await asyncio.wait_for(job.future, 5)
                assert result.succeeded or "ServiceStopped" in (result.error or "")

        asyncio.run(run())

    def test_stats_shape(self):
        async def run():
            async with CompilationService(shards=2, backend="inline") as service:
                await (await service.submit(_formula(), target="fpqa"))
                stats = service.stats()
                assert stats["shards"] == 2
                assert stats["jobs_submitted"] == 1
                assert stats["jobs_completed"] == 1
                assert sum(stats["jobs_per_shard"]) == 1
                assert "service.compile.fpqa" in stats["profile"]["primitives"]

        asyncio.run(run())

    def test_job_registry_is_bounded(self):
        """A long-lived server must not retain every finished job."""

        async def run():
            async with CompilationService(
                shards=1, backend="inline", max_tracked_jobs=2
            ) as service:
                jobs = [
                    await service.submit(_formula(f"j{i}", seed=i), target="fpqa")
                    for i in range(4)
                ]
                await service.gather(jobs)
                assert len(service._jobs) <= 2
                assert service.job(jobs[0].job_id) is None  # oldest forgotten
                assert service.job(jobs[-1].job_id) is jobs[-1]

        asyncio.run(run())

    def test_bad_configuration_rejected(self):
        with pytest.raises(repro.TargetError, match="shard"):
            CompilationService(shards=0)
        with pytest.raises(repro.TargetError, match="backend"):
            CompilationService(backend="carrier-pigeon")


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_line_round_trip(self):
        payload = {"op": "submit", "req": "r1", "options": {"measure": False}}
        assert decode_line(encode_line(payload)) == payload

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")

    def test_workload_payload_round_trip_cnf(self):
        workload = Workload.from_formula(_formula("wire"))
        payload = workload_to_payload(workload)
        assert payload["kind"] == "cnf"
        back = payload_to_workload(payload)
        assert back.name == "wire"
        assert back.num_clauses == workload.num_clauses

    def test_workload_payload_round_trip_qasm(self, tiny_formula):
        circuit = repro.qaoa_circuit(tiny_formula, measure=False)
        payload = workload_to_payload(Workload.from_circuit(circuit, name="q"))
        assert payload["kind"] == "qasm"
        back = payload_to_workload(payload)
        assert back.raw_circuit.num_qubits == circuit.num_qubits

    def test_bad_payloads_raise_user_errors(self):
        with pytest.raises(ProtocolError):
            payload_to_workload({"kind": "midi", "text": "x"})
        with pytest.raises(ProtocolError):
            payload_to_workload({"kind": "cnf"})
        with pytest.raises(repro.WorkloadError):
            payload_to_workload({"kind": "cnf", "text": "p cnf garbage"})


# ----------------------------------------------------------------------
# Golden wire formats: a request's protocol and journal forms
# ----------------------------------------------------------------------
#: One protocol ``submit`` message and one journal ``submit`` record,
#: byte for byte as the service wrote them before requests had their
#: own type.  Both formats are contracts with running clients and with
#: journals on disk, so neither may drift.
GOLDEN_PROTOCOL = (
    b'{"op":"submit","workload":{"kind":"cnf","name":"golden","text":"p cnf 4 3\\n'
    b'1 -2 3 0\\n-1 2 4 0\\n2 3 -4 0\\n"},"target":"fpqa","device":"aquila-256",'
    b'"options":{"compression":false},"client":"alice","priority":2,"timeout":30.0,'
    b'"simulate":{"shots":64,"noise":1.0,"seed":7,"max_trajectories":8},"req":"r1"}\n'
)
GOLDEN_JOURNAL = (
    '{"e":"submit","id":"J1","schema":1,"kind":"sim","workload":{"kind":"cnf",'
    '"name":"golden","text":"p cnf 4 3\\n1 -2 3 0\\n-1 2 4 0\\n2 3 -4 0\\n"},'
    '"target":"fpqa","device":"aquila-256","client":"alice","priority":2,'
    '"timeout":30.0,"options":{"compression":false},"simulate":{"shots":64,'
    '"noise":1.0,"seed":7,"max_trajectories":8},"analyze":null}\n'
)
GOLDEN_FORMULA = CnfFormula.from_lists(
    [[1, -2, 3], [-1, 2, 4], [2, 3, -4]], num_vars=4, name="golden"
)
GOLDEN_SUBMIT = dict(
    target="fpqa",
    device="aquila-256",
    client="alice",
    priority=2,
    timeout=30.0,
    simulate={"shots": 64, "noise": 1.0, "seed": 7, "max_trajectories": 8},
    compression=False,
)


class TestGoldenFormats:
    def test_from_wire_replays_both_and_to_wire_reproduces_them(self):
        message = decode_line(GOLDEN_PROTOCOL)
        record = json.loads(GOLDEN_JOURNAL)
        from_protocol = CompileRequest.from_wire(message)
        from_journal = CompileRequest.from_wire(record)
        assert from_protocol.key == from_journal.key
        assert from_protocol.kind == record["kind"] == "sim"
        wire = from_protocol.to_wire(message["client"], message["priority"])
        assert wire == {key: record[key] for key in wire}
        sent = {"op": "submit", **{k: v for k, v in wire.items() if v is not None}}
        assert encode_line({**sent, "req": "r1"}) == GOLDEN_PROTOCOL

    def test_client_writes_the_golden_submit_message(self):
        class _Capture:
            data = b""

            def write(self, data):
                self.data += data

            async def drain(self):
                raise ConnectionResetError("captured")

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def run():
            from repro.service import ServiceUnavailable

            writer = _Capture()
            client = ServiceClient(asyncio.StreamReader(), writer)
            with pytest.raises(ServiceUnavailable):
                await client.submit(GOLDEN_FORMULA, **GOLDEN_SUBMIT)
            await client.close()
            return writer.data

        assert asyncio.run(run()) == GOLDEN_PROTOCOL

    def test_service_journals_the_golden_submit_record(self, tmp_path):
        async def run():
            journal = repro.service.JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
            async with CompilationService(
                shards=1, backend="thread", journal=journal
            ) as service:
                await service.submit(GOLDEN_FORMULA, **GOLDEN_SUBMIT)
            journal.close()

        asyncio.run(run())
        with (tmp_path / "j.jsonl").open(encoding="utf-8") as handle:
            assert handle.readline() == GOLDEN_JOURNAL


# ----------------------------------------------------------------------
# Socket server + client
# ----------------------------------------------------------------------
class TestServer:
    def _socket(self, tmp_path):
        return tmp_path / "weaver.sock"

    def test_ping_stats_jobs(self, tmp_path):
        async def run():
            service = CompilationService(shards=1, backend="inline")
            async with ServiceServer(service, self._socket(tmp_path)):
                async with await ServiceClient.connect(self._socket(tmp_path)) as c:
                    pong = await c.ping()
                    assert pong["event"] == "pong"
                    out = await c.submit(_formula(), target="fpqa")
                    assert out.result.succeeded
                    stats = await c.stats()
                    assert stats["jobs_submitted"] == 1
                    jobs = await c.jobs()
                    assert jobs[0]["status"] == "done"

        asyncio.run(run())

    def test_warm_resubmission_byte_identical(self, tmp_path):
        async def run():
            service = CompilationService(shards=2, backend="thread")
            async with ServiceServer(service, self._socket(tmp_path)):
                async with await ServiceClient.connect(self._socket(tmp_path)) as c:
                    first = await c.submit(_formula(), target="fpqa")
                    second = await c.submit(_formula(), target="fpqa")
                    assert not first.from_cache
                    assert second.from_cache
                    assert json.dumps(first.raw, sort_keys=True) == json.dumps(
                        second.raw, sort_keys=True
                    )
                    assert second.events == ["queued", "done"]

        asyncio.run(run())

    def test_user_errors_surface_as_target_errors(self, tmp_path):
        async def run():
            service = CompilationService(shards=1, backend="inline")
            async with ServiceServer(service, self._socket(tmp_path)):
                async with await ServiceClient.connect(self._socket(tmp_path)) as c:
                    with pytest.raises(repro.TargetError, match="pixie"):
                        await c.submit(_formula(), target="pixie")
                    # The connection survives the error for further use.
                    assert (await c.submit(_formula(), target="fpqa")).result.succeeded

        asyncio.run(run())

    def test_junk_line_yields_error_event_not_crash(self, tmp_path):
        async def run():
            service = CompilationService(shards=1, backend="inline")
            async with ServiceServer(service, self._socket(tmp_path)):
                reader, writer = await asyncio.open_unix_connection(
                    path=str(self._socket(tmp_path))
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 5)
                payload = decode_line(line)
                assert payload["event"] == "error"
                assert payload["kind"] == "user"
                writer.close()
                await writer.wait_closed()

        asyncio.run(run())

    def test_concurrent_submissions_multiplex(self, tmp_path):
        async def run():
            service = CompilationService(shards=2, backend="thread")
            async with ServiceServer(service, self._socket(tmp_path)):
                async with await ServiceClient.connect(self._socket(tmp_path)) as c:
                    outs = await asyncio.gather(
                        c.submit(_formula("a"), target="fpqa"),
                        c.submit(_formula("b", seed=1), target="atomique"),
                        c.submit(_formula("c", seed=2), target="fpqa", client="other"),
                    )
                    assert [o.result.workload for o in outs] == ["a", "b", "c"]
                    assert all(o.result.succeeded for o in outs)

        asyncio.run(run())

    def test_serve_stops_on_shutdown_op(self, tmp_path):
        async def run():
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve(self._socket(tmp_path), shards=1, backend="inline", ready=ready)
            )
            await asyncio.wait_for(ready.wait(), 10)
            out = await submit_once(self._socket(tmp_path), _formula(), target="fpqa")
            assert out.result.succeeded
            client = await ServiceClient.connect(self._socket(tmp_path))
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 10)
            assert not self._socket(tmp_path).exists()

        asyncio.run(run())

    def test_connect_to_missing_socket_is_user_error(self, tmp_path):
        async def run():
            from repro.service import ServiceUnavailable

            with pytest.raises(ServiceUnavailable, match="weaver serve"):
                await ServiceClient.connect(tmp_path / "nope.sock")

        asyncio.run(run())
