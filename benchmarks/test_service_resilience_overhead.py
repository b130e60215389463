"""Resilience overhead guard: the job journal batches its fsyncs.

The fault-tolerance layer's contract is *durability without a tax*:
every accepted job writes a few small JSON lines to the write-ahead
journal, flushed on every append but ``fsync``-ed once per
``fsync_batch`` records, so the sync cost is amortized over the batch.
A wall-clock ratio of the stream with and without a journal was too
noisy to gate on (it straddled its 1.10 bar run to run), so this gate
asserts the mechanism instead: the exact number of records per job and
of fsyncs per record.

The committed ``BENCH_perfbench.json`` holds the end-to-end picture,
where service-mix runs with the journal on (regenerate with
``python -m repro.perf.bench``).  72 records in batches of 5 leave a
partial batch, so the final sync when the service stops is counted too.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import Counter

from repro.sat.generator import random_ksat
from repro.service import CompilationService, JobJournal
from repro.targets.artifacts import ArtifactStore

JOBS = 24
FSYNC_BATCH = 5
#: submit, start and done: one job, one attempt, no retry.
RECORDS_PER_JOB = 3


async def _run_stream(service: CompilationService) -> None:
    async with service:
        jobs = []
        for i in range(JOBS):
            formula = random_ksat(10, 42, seed=7000 + i, name=f"bench-{i}")
            simulate = {"shots": 16, "seed": i} if i % 4 == 0 else None
            jobs.append(await service.submit(formula, simulate=simulate))
        for job in jobs:
            result = await job.future
            assert result.error is None, result.error


def test_journal_fsyncs_once_per_batch(tmp_path):
    journal = JobJournal(tmp_path / "journal.jsonl", fsync_batch=FSYNC_BATCH)
    service = CompilationService(
        shards=2, backend="inline", store=ArtifactStore(), journal=journal
    )
    asyncio.run(_run_stream(service))
    # Read before close(): the service's own stop() must sync the final
    # partial batch (72 records in batches of 5: 14 full, one of 2).
    syncs, records = journal.syncs, journal.records_written
    journal.close()

    rows = [
        json.loads(line)
        for line in journal.path.read_text(encoding="utf-8").splitlines()
    ]
    per_job = Counter(row["id"] for row in rows)
    assert len(per_job) == JOBS
    assert set(per_job.values()) == {RECORDS_PER_JOB}
    assert Counter(row["e"] for row in rows) == {
        "submit": JOBS, "start": JOBS, "done": JOBS
    }
    assert records == JOBS * RECORDS_PER_JOB == len(rows)
    assert syncs == math.ceil(records / FSYNC_BATCH) == journal.syncs
    assert journal.write_errors == 0

