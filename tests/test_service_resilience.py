"""repro.service.resilience: journal, retries, chaos, shedding, recovery.

Event-loop tests run through ``asyncio.run`` (no pytest-asyncio in the
toolchain).  Every chaotic scenario is seeded via the policies' own
``repro.rng`` generators, so the fault schedules — and therefore the
assertions — are deterministic.  ``REPRO_CHAOS_SEED`` (set by the CI
seed matrix) shifts the acceptance scenario's seed without touching the
invariants it proves.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.sat import CnfFormula
from repro.sat.generator import random_ksat
from repro.service import (
    ArtifactStore,
    ChaosPolicy,
    CompilationService,
    JobJournal,
    JobStatus,
    RetryPolicy,
    ServiceClient,
    ServiceOverloaded,
    ServiceServer,
    ServiceTimeout,
    WorkerCrashed,
    replay_journal,
    serve,
)
from repro.targets import CompileRequest

#: CI sets this to sweep the acceptance scenario across seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _formula(name: str = "res", seed: int = 0) -> CnfFormula:
    clauses = [[1, -2, 3], [-1, 2, 4], [2, 3, -4], [1, 2, -3], [-2, -3, 4]]
    return CnfFormula.from_lists(
        clauses[: 2 + (seed % 4)], num_vars=4, name=f"{name}-{seed}"
    )


def _journal_job(journal_id: str) -> SimpleNamespace:
    """The job fields a journal record reads, without an event loop."""
    request = CompileRequest(_formula(), "fpqa")
    return SimpleNamespace(
        journal_id=journal_id, request=request, kind=request.kind,
        client="c", priority=0, attempts=1, crashes=0,
    )


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists (a killed and reaped worker does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def _drain(service: CompilationService) -> None:
    """Wait until nothing is queued, running, or backing off."""
    while (
        service.stats()["jobs_pending"]
        or service._inflight
        or service._retry_tasks
    ):
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# JobJournal
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_lifecycle_round_trip(self, tmp_path):
        async def run():
            journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
            store = ArtifactStore(directory=tmp_path / "store")
            async with CompilationService(
                shards=1, backend="inline", store=store, journal=journal
            ) as service:
                job = await service.submit(_formula(seed=1), target="fpqa")
                result = await job.future
                assert result.error is None
            journal.close()
            records = replay_journal(tmp_path / "j.jsonl")
            assert [r.status for r in records] == ["done"]
            assert records[0].journal_id == job.journal_id
            assert records[0].submit["workload"]["kind"] == "cnf"
            assert records[0].submit["target"] == "fpqa"

        asyncio.run(run())

    def test_cache_hit_still_journals_done(self, tmp_path):
        """A warm resubmission is an accepted job: it must reach a
        terminal journal state like any other."""

        async def run():
            journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
            async with CompilationService(
                shards=1, backend="inline", journal=journal
            ) as service:
                first = await service.submit(_formula(seed=2))
                await first.future
                second = await service.submit(_formula(seed=2))
                await second.future
                assert second.from_cache
            journal.close()
            records = replay_journal(tmp_path / "j.jsonl")
            assert sorted(r.status for r in records) == ["done", "done"]

        asyncio.run(run())

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync_batch=1)

        journal.record_submitted(_journal_job("J1"))
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"e": "done", "id": "J1"')  # crash mid-write
        records = replay_journal(path)
        assert len(records) == 1
        assert records[0].status == "submit"  # torn `done` never landed

    def test_junk_and_unknown_ids_are_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            "not json at all\n"
            '{"e": "start", "id": "J9", "attempt": 1}\n'
            "[1, 2, 3]\n",
            encoding="utf-8",
        )
        assert replay_journal(path) == []

    def test_compaction_drops_terminal_keeps_pending_ids(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync_batch=1)
        done = _journal_job(journal.next_id())
        pending = _journal_job(journal.next_id())
        journal.record_submitted(done)
        journal.record_submitted(pending)
        journal.record_done(done)
        records = journal.replay()
        journal.compact([r for r in records if not r.terminal])
        # The compacted journal holds exactly the pending submit line,
        # under its original id, and stays appendable.
        journal.record_started(pending)
        journal.close()
        after = replay_journal(path)
        assert [r.journal_id for r in after] == [pending.journal_id]
        assert after[0].status == "start"
        # Fresh ids continue past everything ever written.
        reopened = JobJournal(path, fsync_batch=1)
        assert int(reopened.next_id()[1:]) > int(pending.journal_id[1:])
        reopened.close()

    def test_write_errors_degrade_not_crash(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
        journal._handle.close()  # simulate the disk going away
        journal.append({"e": "done", "id": "J1"})
        assert journal.write_errors == 1
        assert journal.records_written == 0

    def test_fsync_batching(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=3)
        for i in range(7):
            journal.append({"e": "done", "id": f"J{i}"})
        assert journal.syncs == 2  # after records 3 and 6
        journal.sync()
        assert journal.syncs == 3  # the straggler
        journal.close()


# ----------------------------------------------------------------------
# RetryPolicy / ChaosPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(poison_crashes=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_should_retry_bounds(self):
        policy = RetryPolicy(max_attempts=3, poison_crashes=2)
        assert policy.should_retry(attempts=1, crashes=0)
        assert policy.should_retry(attempts=2, crashes=1)
        assert not policy.should_retry(attempts=3, crashes=0)
        assert not policy.should_retry(attempts=1, crashes=2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, max_delay=1.0, jitter=0.0, seed=0
        )
        delays = [policy.delay(a) for a in range(1, 7)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(1.0)  # capped

    def test_jitter_is_seeded(self):
        a = [RetryPolicy(seed=7).delay(2) for _ in range(1)]
        b = [RetryPolicy(seed=7).delay(2) for _ in range(1)]
        assert a == b
        base = RetryPolicy(jitter=0.0).delay(2)
        jittered = RetryPolicy(jitter=0.5, seed=7).delay(2)
        assert base <= jittered <= base * 1.5


class TestChaosPolicy:
    def test_seeded_schedule_is_reproducible(self):
        rolls_a = [ChaosPolicy(worker_crash=0.5, seed=3).roll("worker_crash")
                   for _ in range(1)]
        policy_a = ChaosPolicy(worker_crash=0.5, seed=3)
        policy_b = ChaosPolicy(worker_crash=0.5, seed=3)
        schedule_a = [policy_a.roll("worker_crash") for _ in range(50)]
        schedule_b = [policy_b.roll("worker_crash") for _ in range(50)]
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)
        assert policy_a.injected["worker_crash"] == sum(schedule_a)
        assert rolls_a[0] == schedule_a[0]

    def test_zero_rate_kind_consumes_no_draw(self):
        """Enabling one fault must not perturb another's schedule."""
        solo = ChaosPolicy(worker_crash=0.5, seed=3)
        mixed = ChaosPolicy(worker_crash=0.5, socket_drop=0.0, seed=3)
        interleaved = []
        for _ in range(20):
            mixed.roll("socket_drop")  # zero rate: no RNG consumption
            interleaved.append(mixed.roll("worker_crash"))
        assert interleaved == [solo.roll("worker_crash") for _ in range(20)]

    def test_max_faults_budget(self):
        policy = ChaosPolicy(worker_crash=1.0, max_faults=2, seed=0)
        fired = [policy.roll("worker_crash") for _ in range(10)]
        assert sum(fired) == 2
        assert policy.total_injected == 2

    def test_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError):
            ChaosPolicy(worker_crash=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy().roll("meteor_strike")


# ----------------------------------------------------------------------
# Supervision: retries, dead letters, hangs, disk faults
# ----------------------------------------------------------------------
class TestSupervision:
    def test_crash_is_retried_to_success(self, tmp_path):
        async def run():
            journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
            chaos = ChaosPolicy(worker_crash=1.0, max_faults=1, seed=0)
            async with CompilationService(
                shards=1,
                backend="inline",
                journal=journal,
                chaos=chaos,
                retry=RetryPolicy(base_delay=0.001, seed=0),
            ) as service:
                job = await service.submit(_formula(seed=3))
                result = await job.future
                assert result.error is None
                assert job.attempts == 2
                assert job.crashes == 1
                stats = service.stats()["resilience"]
                assert stats["retries"] == 1
                assert stats["worker_restarts"] == 1
                assert service.metrics.value("service.retries", kind="crash") == 1
            journal.close()
            statuses = {r.journal_id: r.status
                        for r in replay_journal(tmp_path / "j.jsonl")}
            assert statuses == {job.journal_id: "done"}

        asyncio.run(run())

    def test_poison_job_dead_letters(self, tmp_path):
        async def run():
            journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=1)
            chaos = ChaosPolicy(worker_crash=1.0, seed=0)  # crashes forever
            async with CompilationService(
                shards=1,
                backend="inline",
                journal=journal,
                chaos=chaos,
                retry=RetryPolicy(
                    max_attempts=5, poison_crashes=2, base_delay=0.001
                ),
            ) as service:
                job = await service.submit(_formula(seed=4))
                follower = await service.submit(_formula(seed=4))
                assert follower.from_cache  # single-flight duplicate
                result = await job.future
                assert result.error is not None
                assert "DeadLetter" in result.error
                assert job.status is JobStatus.DEAD
                assert job.crashes == 2  # quarantined on the second kill
                # The follower shares the terminal result, exactly once.
                assert (await follower.future).error == result.error
                assert follower.status is JobStatus.DEAD
                dead = list(service.dead_letters)
                assert len(dead) == 1
                assert dead[0]["job"] == job.job_id
                assert dead[0]["status"] == "dead"
                assert "DeadLetter" in dead[0]["error"]
                assert service.metrics.value(
                    "service.dead_letter", kind="compile"
                ) == 1
            journal.close()
            records = replay_journal(tmp_path / "j.jsonl")
            assert sorted(r.status for r in records) == ["dead", "dead"]

        asyncio.run(run())

    def test_deterministic_failure_is_not_retried(self):
        async def run():
            async with CompilationService(
                shards=1, backend="inline"
            ) as service:

                async def boom(job, shard, loop):
                    raise ValueError("bad input, every time")

                service._execute = boom
                job = await service.submit(_formula(seed=5))
                result = await job.future
                assert "ValueError: bad input, every time" in result.error
                assert job.attempts == 1  # no retry for deterministic errors
                assert service.stats()["resilience"]["retries"] == 0

        asyncio.run(run())

    def test_hung_worker_trips_deadline_and_retries(self):
        async def run():
            # The stall (an async sleep) exceeds the hang deadline; the
            # supervisor abandons the attempt and the retry succeeds.
            chaos = ChaosPolicy(
                worker_stall=1.0, stall_seconds=5.0, max_faults=1, seed=0
            )
            async with CompilationService(
                shards=1,
                backend="inline",
                chaos=chaos,
                hang_seconds=0.05,
                retry=RetryPolicy(base_delay=0.001),
            ) as service:
                job = await service.submit(_formula(seed=6))
                result = await job.future
                assert result.error is None
                assert job.attempts == 2
                assert service.metrics.value("service.failures", kind="hang") == 1
                assert service.stats()["resilience"]["worker_restarts"] == 1

        asyncio.run(run())

    def test_disk_write_failure_degrades_store_not_job(self, tmp_path):
        async def run():
            chaos = ChaosPolicy(disk_fail=1.0, max_faults=1, seed=0)
            store = ArtifactStore(directory=tmp_path / "store", chaos=chaos)
            async with CompilationService(
                shards=1, backend="inline", store=store
            ) as service:
                job = await service.submit(_formula(seed=7))
                result = await job.future
                assert result.error is None  # the job still delivered
                assert service.metrics.value("service.store_errors") == 1
                # The memory tier kept the artifact despite the disk fault.
                warm = await service.submit(_formula(seed=7))
                assert (await warm.future).error is None
                assert warm.from_cache

        asyncio.run(run())

    def test_real_broken_executor_counts_as_crash(self):
        async def run():
            async with CompilationService(
                shards=1,
                backend="inline",
                retry=RetryPolicy(max_attempts=1),
            ) as service:

                async def die(job, shard, loop):
                    raise WorkerCrashed("pool worker died")

                service._execute = die
                job = await service.submit(_formula(seed=8))
                result = await job.future
                assert "DeadLetter" in result.error
                assert service.metrics.value("service.failures", kind="crash") == 1

        asyncio.run(run())

    def test_dead_process_worker_counts_as_crash(self, tmp_path, faulty_target):
        # A real pool worker dies (os._exit) on the first attempt only.
        marker = tmp_path / "crashed.pid"

        async def run():
            async with CompilationService(
                shards=1,
                backend="process",
                retry=RetryPolicy(base_delay=0.001),
            ) as service:
                job = await service.submit(
                    _formula(seed=12), target=faulty_target, marker=str(marker)
                )
                result = await job.future
                assert result.error is None
                assert job.attempts == 2
                assert job.crashes == 1
                assert service.metrics.value("service.failures", kind="crash") == 1
                assert service.metrics.value("service.retries", kind="crash") == 1
                assert service.stats()["resilience"]["worker_restarts"] == 1

        asyncio.run(run())
        assert not _alive(int(marker.read_text()))

    def test_hung_process_worker_is_killed_on_restart(self, tmp_path, faulty_target):
        marker = tmp_path / "hung.pid"

        async def run():
            async with CompilationService(
                shards=1,
                backend="process",
                hang_seconds=1.0,
                retry=RetryPolicy(base_delay=0.001),
            ) as service:
                job = await service.submit(
                    _formula(seed=13), target=faulty_target,
                    fault="hang", marker=str(marker),
                )
                result = await job.future
                assert result.error is None
                assert job.attempts == 2
                assert service.metrics.value("service.failures", kind="hang") == 1
                # The hung worker was killed and reaped before the retry.
                assert not _alive(int(marker.read_text()))

        asyncio.run(run())

    def test_stop_kills_a_hung_process_worker(self, tmp_path, faulty_target):
        marker = tmp_path / "hung.pid"

        async def run():
            service = CompilationService(shards=1, backend="process")
            await service.start()
            job = await service.submit(
                _formula(seed=14), target=faulty_target,
                fault="hang", marker=str(marker),
            )
            deadline = time.monotonic() + 10.0
            while not marker.exists() and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            started = time.monotonic()
            await service.stop()
            return job, time.monotonic() - started

        job, stop_seconds = asyncio.run(run())
        assert job.status is JobStatus.CANCELLED
        assert stop_seconds < 5.0
        assert not _alive(int(marker.read_text()))


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_submit_sheds_past_high_water_mark(self):
        async def run():
            async with CompilationService(
                shards=1, backend="inline", max_pending=0
            ) as service:
                with pytest.raises(ServiceOverloaded) as excinfo:
                    await service.submit(_formula(seed=9))
                assert excinfo.value.retry_after > 0
                assert "retry after" in str(excinfo.value)
                assert service.stats()["resilience"]["shed"] == 1
                assert service.metrics.value("service.shed") == 1

        asyncio.run(run())

    def test_cache_and_inflight_hits_are_never_shed(self):
        async def run():
            async with CompilationService(
                shards=1, backend="inline"
            ) as service:
                job = await service.submit(_formula(seed=10))
                await job.future
                service.max_pending = 0  # now everything new sheds...
                warm = await service.submit(_formula(seed=10))
                assert warm.from_cache  # ...but a hit costs no queue slot
                with pytest.raises(ServiceOverloaded):
                    await service.submit(_formula(seed=11))

        asyncio.run(run())

    def test_server_emits_shed_event_and_client_backs_off(self, tmp_path):
        async def run():
            socket = tmp_path / "weaver.sock"
            service = CompilationService(
                shards=1, backend="inline", max_pending=0
            )
            async with ServiceServer(service, socket):
                async with await ServiceClient.connect(socket) as client:
                    with pytest.raises(ServiceOverloaded):
                        await client.submit(_formula(seed=12), retries=0)
                    # With retries, the client sleeps the server's
                    # retry_after hint and resubmits; the overload
                    # clears during the backoff window.
                    async def lift():
                        await asyncio.sleep(0.02)  # < retry_after (>= 0.1)
                        service.max_pending = 16

                    lifter = asyncio.create_task(lift())
                    out = await client.submit(_formula(seed=12), retries=2)
                    await lifter
                    assert out.result.error is None
                    # Both rejections were counted (explicit + retried).
                    assert service.stats()["resilience"]["shed"] == 2

        asyncio.run(run())


# ----------------------------------------------------------------------
# Timeout paths (satellite coverage)
# ----------------------------------------------------------------------
class TestTimeoutPaths:
    def test_per_job_budget_expiry_mid_compile(self):
        async def run():
            async with CompilationService(
                shards=1, backend="inline"
            ) as service:
                job = await service.submit(
                    random_ksat(24, 100, seed=1), timeout=1e-9
                )
                result = await job.future
                assert result.timed_out
                # A budget expiry is a *deterministic* outcome (the
                # budget is part of the content address): never retried.
                assert job.attempts == 1
                assert service.stats()["resilience"]["retries"] == 0

        asyncio.run(run())

    def test_client_wait_timeout_cleans_inbox_and_survives(self, tmp_path):
        async def run():
            socket = tmp_path / "weaver.sock"
            service = CompilationService(shards=1, backend="thread")
            async with ServiceServer(service, socket):
                client = await ServiceClient.connect(socket)
                try:
                    with pytest.raises(ServiceTimeout):
                        await client.submit(
                            random_ksat(20, 80, seed=2), wait_timeout=1e-4
                        )
                    # Satellite: the expired request's inbox must not
                    # leak on a long-lived client...
                    assert client._inboxes == {}
                    # ...and the connection stays fully usable.
                    pong = await client.ping()
                    assert pong["event"] == "pong"
                    out = await client.submit(_formula(seed=13))
                    assert out.result.error is None
                    assert client._inboxes == {}
                finally:
                    await client.close()

        asyncio.run(run())

    def test_wait_timeout_racing_completion_is_idempotent(self, tmp_path):
        """Timing out on a job that completes anyway: the resubmission
        is a cache hit, not a second execution."""

        async def run():
            socket = tmp_path / "weaver.sock"
            service = CompilationService(shards=1, backend="thread")
            async with ServiceServer(service, socket):
                workload = random_ksat(16, 60, seed=3)
                async with await ServiceClient.connect(socket) as client:
                    try:
                        await client.submit(workload, wait_timeout=1e-4)
                    except ServiceTimeout:
                        pass  # lost the race; the server keeps compiling
                    out = await client.submit(workload)  # idempotent
                    assert out.result.error is None
                compiles = service.profiler.profile()["primitives"].get(
                    "service.compile.fpqa", {}
                )
                assert compiles.get("count", 0) == 1

        asyncio.run(run())

    def test_shutdown_with_queued_jobs_recovers_on_restart(self, tmp_path):
        """Jobs still queued at shutdown stay incomplete in the journal
        and are replayed to completion by the next service."""

        async def run():
            path = tmp_path / "j.jsonl"
            store_dir = tmp_path / "store"
            journal = JobJournal(path, fsync_batch=1)
            service = CompilationService(
                shards=1,
                backend="thread",
                store=ArtifactStore(directory=store_dir),
                journal=journal,
            )
            await service.start()
            jobs = [
                await service.submit(_formula(seed=s), client=f"c{s}")
                for s in range(4)
            ]
            await service.stop()  # most jobs never ran
            journal.close()
            incomplete = [
                r for r in replay_journal(path) if not r.terminal
            ]
            assert incomplete  # the queued tail survived as incomplete

            journal2 = JobJournal(path, fsync_batch=1)
            service2 = CompilationService(
                shards=1,
                backend="inline",
                store=ArtifactStore(directory=store_dir),
                journal=journal2,
            )
            async with service2:
                summary = await service2.recover()
                assert summary["recovered"] == len(incomplete)
                assert summary["unreplayable"] == 0
                await _drain(service2)
            journal2.close()
            final = replay_journal(path)
            assert len(final) == len(jobs)
            assert all(r.status == "done" for r in final)

        asyncio.run(run())


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_recover_requires_journal_and_running(self, tmp_path):
        from repro.exceptions import TargetError

        async def run():
            plain = CompilationService(shards=1, backend="inline")
            async with plain:
                with pytest.raises(TargetError):
                    await plain.recover()
            journal = JobJournal(tmp_path / "j.jsonl")
            stopped = CompilationService(
                shards=1, backend="inline", journal=journal
            )
            with pytest.raises(TargetError):
                await stopped.recover()
            journal.close()

        asyncio.run(run())

    def test_recovery_span_and_metrics(self, tmp_path):
        from repro.telemetry import configure

        async def run():
            path = tmp_path / "j.jsonl"
            journal = JobJournal(path, fsync_batch=1)
            service = CompilationService(
                shards=1, backend="thread", journal=journal
            )
            await service.start()
            await service.submit(_formula(seed=20))
            await service.stop()  # leaves the job incomplete
            journal.close()

            tracer = configure(True)
            try:
                journal2 = JobJournal(path, fsync_batch=1)
                service2 = CompilationService(
                    shards=1, backend="inline", journal=journal2
                )
                async with service2:
                    summary = await service2.recover()
                    await _drain(service2)
                journal2.close()
            finally:
                spans = tracer.export()
                configure(False)
            names = [span["name"] for span in spans]
            assert "service.recovery" in names
            recovery = next(s for s in spans if s["name"] == "service.recovery")
            assert recovery["attrs"]["recovered"] == summary["recovered"] == 1

        asyncio.run(run())

    def test_unreplayable_record_is_counted_not_fatal(self, tmp_path):
        async def run():
            path = tmp_path / "j.jsonl"
            path.write_text(
                json.dumps(
                    {
                        "e": "submit",
                        "id": "J1",
                        "kind": "compile",
                        "workload": {"kind": "cnf", "text": "not dimacs"},
                        "target": "fpqa",
                    }
                )
                + "\n",
                encoding="utf-8",
            )
            journal = JobJournal(path, fsync_batch=1)
            async with CompilationService(
                shards=1, backend="inline", journal=journal
            ) as service:
                summary = await service.recover()
                assert summary == {
                    "records": 1,
                    "completed": 0,
                    "dead": 0,
                    "recovered": 0,
                    "unreplayable": 1,
                }
            journal.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Chaos acceptance: kill -9 analogue, 10% crashes, exactly-once
# ----------------------------------------------------------------------
def _mixed_submissions(count: int):
    """50 distinct jobs, mixed compile + sim, deterministic content."""
    subs = []
    for i in range(count):
        workload = random_ksat(6, 14, seed=100 + i, name=f"chaos-{i}")
        simulate = {"shots": 8, "seed": i} if i % 5 == 0 else None
        subs.append((workload, simulate))
    return subs


async def _chaos_scenario(tmp_path, seed: int) -> str:
    """Accept 50 mixed jobs, "kill -9" mid-stream, recover under 10%
    worker crashes; return the deterministic summary line."""
    path = tmp_path / f"journal-{seed}.jsonl"
    store_dir = tmp_path / f"store-{seed}"
    submissions = _mixed_submissions(50)

    # -- phase 1: complete the head of the stream, accept the rest, die.
    # (An inline worker never yields mid-queue, so "killed mid-stream"
    # is staged deterministically: the first batch runs to completion,
    # the second is accepted + journaled but torn down before a worker
    # ever picks it up — exactly the disk state a kill -9 leaves.)
    journal = JobJournal(path, fsync_batch=1)
    service = CompilationService(
        shards=2,
        backend="inline",
        store=ArtifactStore(directory=store_dir),
        journal=journal,
    )
    await service.start()
    head = [
        await service.submit(w, simulate=sim, client=f"t{i % 3}")
        for i, (w, sim) in enumerate(submissions[:12])
    ]
    head_results = await asyncio.gather(*(job.future for job in head))
    assert all(r.error is None for r in head_results)
    tail = [
        await service.submit(w, simulate=sim, client=f"t{i % 3}")
        for i, (w, sim) in enumerate(submissions[12:], start=12)
    ]
    assert len(tail) == 38
    phase1_execs = sum(service._per_shard_jobs)
    await service.stop()  # the tail never ran
    journal.close()

    records1 = replay_journal(path)
    assert len(records1) == 50  # every accepted job is journaled
    done1 = {r.journal_id for r in records1 if r.status == "done"}
    pending1 = {r.journal_id for r in records1 if not r.terminal}
    assert len(done1) == 12 and len(pending1) == 38

    # -- phase 2: restart, replay, and finish under injected crashes ---
    journal2 = JobJournal(path, fsync_batch=1)
    chaos = ChaosPolicy(worker_crash=0.10, seed=seed)
    service2 = CompilationService(
        shards=2,
        backend="inline",
        store=ArtifactStore(directory=store_dir),
        journal=journal2,
        chaos=chaos,
        # Zero backoff: retries re-enqueue on the next loop tick, so the
        # execution order — and with it the seeded fault schedule — is
        # bit-reproducible (no real-time timer races).
        retry=RetryPolicy(base_delay=0.0, seed=seed),
    )
    await service2.start()
    summary = await service2.recover()
    assert summary["recovered"] == 38
    await _drain(service2)
    phase2_execs = sum(service2._per_shard_jobs)
    stats2 = service2.stats()["resilience"]
    await service2.stop()
    journal2.close()

    # -- invariants: every accepted job done-or-dead exactly once ------
    # recover() compacted the terminal phase-1 records away, so the
    # journal now tracks exactly the jobs that were pending at the kill.
    records2 = replay_journal(path)
    assert {r.journal_id for r in records2} == pending1
    done2 = {r.journal_id for r in records2 if r.status == "done"}
    dead2 = {r.journal_id for r in records2 if r.status == "dead"}
    assert done2 | dead2 == pending1  # all terminal now
    assert not done2 & dead2
    assert not done1 & (done2 | dead2)  # finished work never re-ran
    # No loss, no duplicate execution: each of the 50 distinct artifacts
    # was compiled at most once across both lives (dead letters never
    # complete; completed work is served from the content-addressed
    # store on any later touch).
    assert phase1_execs == len(done1)
    assert phase2_execs == len(done2)
    assert len(done1) + len(done2) + len(dead2) == 50
    return (
        f"jobs=50 done={len(done1) + len(done2)} dead={len(dead2)} "
        f"recovered={summary['recovered']} "
        f"retries={stats2['retries']} "
        f"crashes_injected={chaos.injected['worker_crash']}"
    )


class TestChaosAcceptance:
    def test_kill9_recovery_exactly_once(self, tmp_path):
        async def run():
            return await _chaos_scenario(tmp_path, seed=CHAOS_SEED)

        summary = asyncio.run(run())
        assert "jobs=50" in summary

    def test_summary_is_bit_identical_per_seed(self, tmp_path):
        async def run(subdir: str) -> str:
            base = tmp_path / subdir
            base.mkdir()
            return await _chaos_scenario(base, seed=CHAOS_SEED)

        first = asyncio.run(run("a"))
        second = asyncio.run(run("b"))
        assert first == second


# ----------------------------------------------------------------------
# Socket-level chaos
# ----------------------------------------------------------------------
class TestSocketChaos:
    def test_socket_drop_then_idempotent_resubmit(self, tmp_path):
        from repro.service import submit_once

        async def run():
            socket = tmp_path / "weaver.sock"
            ready = asyncio.Event()
            chaos = ChaosPolicy(socket_drop=1.0, max_faults=1, seed=0)
            server_task = asyncio.create_task(
                serve(
                    socket,
                    shards=1,
                    backend="inline",
                    store_dir=tmp_path / "store",
                    chaos=chaos,
                    ready=ready,
                )
            )
            await ready.wait()
            # First reply is chaos-dropped; submit_once reconnects and
            # the resubmission completes (as a cache hit when the first
            # attempt's compile landed).
            out = await submit_once(socket, _formula(seed=30))
            assert out.result.error is None
            async with await ServiceClient.connect(socket) as client:
                await client.shutdown()
            final = await server_task
            assert final["resilience"]["chaos"]["injected"]["socket_drop"] == 1

        asyncio.run(run())
