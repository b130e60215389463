"""repro.telemetry: spans, metrics, exporters, and the instrumented stack.

Event-loop tests run through ``asyncio.run`` (no pytest-asyncio in the
toolchain) on the ``inline`` service backend; the one process-pool test
exercises the cross-process span stitch that
``CompilerSession.compile_many(parallel=...)`` ships spans through.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro.perf import Profiler
from repro.sat import CnfFormula
from repro.service import CompilationService, ServiceClient, ServiceServer
from repro.targets import CompilerSession, Workload
from repro.telemetry import (
    BASE,
    NOOP_SPAN,
    Histogram,
    MetricsRegistry,
    Tracer,
    adopt_context,
    bucket_index,
    chrome_trace,
    configure,
    current_context,
    current_tracer,
    format_metrics_table,
    format_trace_tree,
    prometheus_text,
    push_tracer,
    pop_tracer,
    read_spans_jsonl,
    span,
    span_context,
    spans_from_chrome_trace,
    tracing_enabled,
    validate_chrome_trace,
    write_spans_jsonl,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with global tracing disabled."""
    configure(False)
    yield
    configure(False)


def _formula(name: str = "tel", clauses: int = 5) -> CnfFormula:
    rows = [[1, -2, 3], [-1, 2, 4], [2, 3, -4], [1, 2, -3], [-2, -3, 4]]
    return CnfFormula.from_lists(rows[:clauses], num_vars=4, name=name)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_returns_shared_noop(self):
        assert not tracing_enabled()
        assert span("anything") is NOOP_SPAN
        assert span("other", key="val") is NOOP_SPAN
        assert current_tracer() is None
        assert current_context() is None

    def test_noop_span_is_reentrant(self):
        with span("a") as outer:
            outer.set_attribute("k", 1)
            with span("b") as inner:
                assert inner is outer is NOOP_SPAN

    def test_nesting_links_parents_and_orders_starts(self):
        tracer = configure(True)
        with span("a") as a:
            with span("b"):
                pass
            with span("c"):
                pass
        spans = {s["name"]: s for s in tracer.export()}
        assert set(spans) == {"a", "b", "c"}
        assert spans["b"]["parent"] == spans["a"]["span"] == a.span_id
        assert spans["c"]["parent"] == spans["a"]["span"]
        assert len({s["trace"] for s in spans.values()}) == 1
        assert spans["a"]["start"] <= spans["b"]["start"] <= spans["c"]["start"]
        # Children finish before the parent's context manager exits.
        assert spans["b"]["end"] <= spans["a"]["end"]
        assert all(s["end"] >= s["start"] for s in spans.values())

    def test_attributes_and_error_marker(self):
        tracer = configure(True)
        with pytest.raises(RuntimeError):
            with span("boom", stage="test"):
                raise RuntimeError("nope")
        (record,) = tracer.export()
        assert record["attrs"]["stage"] == "test"
        assert record["attrs"]["error"] == "RuntimeError"

    def test_sibling_roots_get_distinct_traces(self):
        tracer = configure(True)
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = tracer.export()
        assert first["trace"] != second["trace"]
        assert first["parent"] is None and second["parent"] is None

    def test_record_backdates_completed_work(self):
        tracer = configure(True)
        tracer.record("pass", seconds=0.25)
        tracer.record("window", start=10.0, end=12.5)
        by_name = {s["name"]: s for s in tracer.export()}
        assert by_name["pass"]["end"] - by_name["pass"]["start"] == pytest.approx(0.25)
        assert by_name["window"]["start"] == 10.0
        assert by_name["window"]["end"] == 12.5

    def test_max_spans_bounds_memory_and_counts_drops(self):
        tracer = configure(True, max_spans=3)
        for i in range(5):
            with span(f"s{i}"):
                pass
        assert len(tracer.export()) == 3
        assert tracer.dropped == 2

    def test_explicit_start_finish_skips_ambient(self):
        tracer = configure(True)
        job = tracer.start("job")
        # An explicitly-managed span must not become the ambient parent.
        with span("unrelated"):
            pass
        job.set_attribute("status", "done")
        job.finish()
        by_name = {s["name"]: s for s in tracer.export()}
        assert by_name["unrelated"]["parent"] is None
        assert by_name["job"]["attrs"]["status"] == "done"

    def test_threads_keep_separate_ambient_chains(self):
        tracer = configure(True)
        barrier = threading.Barrier(2)

        def work(label: str) -> None:
            with span(label):
                barrier.wait(timeout=10)
                with span(f"{label}.child"):
                    pass

        threads = [threading.Thread(target=work, args=(n,)) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {s["name"]: s for s in tracer.export()}
        assert len(by_name) == 4
        for label in ("t1", "t2"):
            child, root = by_name[f"{label}.child"], by_name[label]
            assert child["parent"] == root["span"]
            assert child["trace"] == root["trace"]
        # Concurrent roots never share a trace; tids differ.
        assert by_name["t1"]["trace"] != by_name["t2"]["trace"]
        assert by_name["t1"]["tid"] != by_name["t2"]["tid"]

    def test_push_tracer_overrides_global(self):
        configure(True)
        local = Tracer()
        token = push_tracer(local)
        try:
            with span("scoped"):
                pass
        finally:
            pop_tracer(token)
        assert [s["name"] for s in local.export()] == ["scoped"]
        assert current_tracer().export() == []

    def test_adopt_context_parents_remote_spans(self):
        tracer = configure(True)
        ctx = {"trace": "aaaa", "span": "bbbb"}
        with adopt_context(ctx):
            with span("remote-child"):
                pass
        (record,) = tracer.export()
        assert record["trace"] == "aaaa"
        assert record["parent"] == "bbbb"

    def test_adopt_context_rejects_junk_quietly(self):
        tracer = configure(True)
        with adopt_context({"trace": 7, "span": None}):
            with span("orphan"):
                pass
        (record,) = tracer.export()
        assert record["parent"] is None

    def test_current_context_round_trips(self):
        configure(True)
        with span("root") as root:
            ctx = current_context()
        assert ctx == span_context(root)
        assert ctx == {"trace": root.trace_id, "span": root.span_id}

    def test_ingest_merges_foreign_dicts(self):
        tracer = configure(True)
        tracer.ingest([{"name": "w", "trace": "t", "span": "s", "parent": None,
                        "start": 0.0, "end": 1.0}, "junk", None])
        assert [s["name"] for s in tracer.export()] == ["w"]


class TestProcessPoolStitch:
    def test_compile_many_parallel_ships_spans_back(self):
        """One trace spans the session fan-out and its pool workers."""
        tracer = configure(True)
        session = CompilerSession()
        workloads = [
            Workload.from_formula(_formula("stitch-a")),
            Workload.from_formula(_formula("stitch-b", clauses=4)),
        ]
        results = session.compile_many(workloads, targets="fpqa", parallel=2)
        assert all(r.error is None for r in results)
        spans = tracer.export()
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        (root,) = by_name["session.compile_many"]
        compile_spans = by_name["compile.fpqa"]
        assert len(compile_spans) == 2
        # Every span — including the workers' pass spans — shares the
        # fan-out's trace id, and the workers really were other processes.
        assert {s["trace"] for s in spans} == {root["trace"]}
        assert "codegen" in by_name and "clause-coloring" in by_name
        worker_pids = {s["pid"] for s in compile_spans}
        assert os.getpid() not in worker_pids
        # The stitched tree renders the cross-process hop.
        tree = format_trace_tree(spans)
        assert "session.compile_many" in tree
        assert "[pid" in tree


# ----------------------------------------------------------------------
# Histograms and the registry
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_index_tracks_exponential_bounds(self):
        for value in (0.001, 0.5, 1.0, 7.3, 1000.0):
            i = bucket_index(value)
            assert BASE**i <= value * 1.0000001
            assert value <= BASE ** (i + 1) * 1.0000001

    def test_quantiles_match_exact_percentiles(self):
        rng = np.random.default_rng(11)
        sample = rng.lognormal(mean=-2.0, sigma=1.2, size=4000)
        hist = Histogram()
        for value in sample:
            hist.observe(float(value))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.percentile(sample, q * 100))
            approx = hist.quantile(q)
            # Bucket width is 2**0.25 per bucket: geometric midpoints
            # land within ~9% of any in-bucket value.
            assert approx == pytest.approx(exact, rel=0.2)

    def test_quantile_clamps_to_observed_range(self):
        hist = Histogram()
        for value in (0.010, 0.011, 0.012):
            hist.observe(value)
        assert 0.010 <= hist.quantile(0.0) <= 0.012
        assert 0.010 <= hist.quantile(1.0) <= 0.012

    def test_zeros_and_negatives_have_their_own_slot(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(-1.0)
        hist.observe(4.0)
        assert hist.zeros == 2
        assert hist.count == 3
        assert hist.quantile(0.0) == 0.0

    def test_empty_quantile_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_merge_equals_combined_stream(self):
        rng = np.random.default_rng(3)
        sample = rng.exponential(scale=0.05, size=600)
        combined, left, right = Histogram(), Histogram(), Histogram()
        for i, value in enumerate(sample):
            combined.observe(float(value))
            (left if i % 2 else right).observe(float(value))
        left.merge(right.to_dict())
        merged, direct = left.to_dict(), combined.to_dict()
        assert merged["count"] == direct["count"]
        assert merged["buckets"] == direct["buckets"]
        assert merged["min"] == direct["min"]
        assert merged["max"] == direct["max"]
        # Summation order differs between the two streams.
        assert merged["sum"] == pytest.approx(direct["sum"])
        assert merged["quantiles"] == direct["quantiles"]


class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.inc("jobs", 2)
        reg.inc("jobs", kind="sim")
        reg.set_gauge("depth", 4)
        reg.set_gauge("depth", 2)
        assert reg.value("jobs") == 3
        assert reg.value("jobs", kind="sim") == 1
        assert reg.value("depth") == 2

    def test_histogram_series_expose_quantiles(self):
        reg = MetricsRegistry()
        for ms in range(1, 101):
            reg.observe("latency", ms / 1000.0, target="fpqa")
        p50 = reg.quantile("latency", 0.5, target="fpqa")
        p99 = reg.quantile("latency", 0.99, target="fpqa")
        assert 0.035 <= p50 <= 0.065
        assert 0.08 <= p99 <= 0.12
        payload = reg.to_dict()
        (series,) = payload["series"]
        assert series["labels"] == {"target": "fpqa"}
        assert set(series["quantiles"]) == {"p50", "p90", "p99"}
        assert series["count"] == 100

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("thing")
        with pytest.raises(ValueError):
            reg.observe("thing", 1.0)
        with pytest.raises(ValueError):
            reg.set_gauge("thing", 1.0)

    def test_merge_adds_counters_and_merges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("jobs", 2)
        b.inc("jobs", 3)
        b.set_gauge("depth", 9)
        a.observe("lat", 0.010)
        b.observe("lat", 0.020)
        a.merge(b.to_dict())
        assert a.value("jobs") == 5
        assert a.value("depth") == 9
        assert a.histogram("lat").count == 2

    def test_to_dict_round_trips_through_merge(self):
        reg = MetricsRegistry()
        reg.inc("n", 7, kind="x")
        reg.observe("h", 0.5)
        clone = MetricsRegistry()
        clone.merge(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_spans() -> list[dict]:
    tracer = configure(True)
    with span("outer", stage="demo"):
        with span("inner"):
            pass
    spans = tracer.export()
    configure(False)
    return spans


class TestExporters:
    def test_chrome_trace_is_valid_and_round_trips(self):
        spans = _sample_spans()
        payload = chrome_trace(spans)
        assert validate_chrome_trace(payload) == 2
        assert payload["displayTimeUnit"] == "ms"
        back = spans_from_chrome_trace(payload)
        assert {s["name"] for s in back} == {"outer", "inner"}
        by_name = {s["name"]: s for s in back}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]

    def test_chrome_trace_rebases_to_zero(self):
        payload = chrome_trace(_sample_spans())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in events) == 0

    def test_validate_rejects_junk(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "ts": -5, "dur": 1,
                                  "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace([1, 2, 3])

    def test_jsonl_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(spans, path)
        assert read_spans_jsonl(path) == spans

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.inc("service.jobs.submitted", 4, kind="sim")
        reg.set_gauge("service.queue.depth", 2)
        reg.observe("service.job_seconds", 0.05)
        text = prometheus_text(reg)
        assert "# TYPE weaver_service_jobs_submitted_total counter" in text
        assert 'weaver_service_jobs_submitted_total{kind="sim"} 4' in text
        assert "weaver_service_queue_depth 2" in text
        assert "# TYPE weaver_service_job_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "weaver_service_job_seconds_count 1" in text
        assert "weaver_service_job_seconds_sum" in text
        # Cumulative buckets: the +Inf bucket equals the count.
        for line in text.splitlines():
            if 'le="+Inf"' in line:
                assert line.rsplit(" ", 1)[1] == "1"

    def test_prometheus_accepts_snapshot_dict(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        assert prometheus_text(reg.to_dict()) == prometheus_text(reg)


class TestSummaries:
    def test_trace_tree_marks_errors_and_truncates(self):
        tracer = configure(True)
        with pytest.raises(ValueError):
            with span("root"):
                with span("bad"):
                    raise ValueError("x")
        tree = format_trace_tree(tracer.export())
        assert "root" in tree and "!ValueError" in tree
        many = [
            {"name": f"s{i}", "trace": "t", "span": str(i), "parent": None,
             "start": float(i), "end": float(i) + 0.5}
            for i in range(20)
        ]
        short = format_trace_tree(many, max_spans=5)
        assert "20 spans total" in short
        assert "s5" not in short

    def test_metrics_table_formats_quantiles(self):
        reg = MetricsRegistry()
        reg.inc("service.jobs.completed", 3)
        reg.observe("service.job_seconds", 0.004)
        reg.observe("service.job_seconds", 0.180)
        table = format_metrics_table(reg.to_dict())
        assert "service.jobs.completed" in table
        assert "p50" in table and "p99" in table
        assert "ms" in table


# ----------------------------------------------------------------------
# Profiler hook
# ----------------------------------------------------------------------
class TestProfilerHook:
    def test_add_pass_emits_span_under_ambient_parent(self):
        tracer = configure(True)
        profiler = Profiler()
        with span("compile.test") as parent:
            profiler.add_pass("codegen", 0.02)
        by_name = {s["name"]: s for s in tracer.export()}
        assert by_name["codegen"]["parent"] == parent.span_id
        assert by_name["codegen"]["end"] - by_name["codegen"]["start"] == (
            pytest.approx(0.02)
        )
        assert profiler.passes["codegen"] == pytest.approx(0.02)

    def test_add_pass_without_tracing_only_counts(self):
        profiler = Profiler()
        profiler.add_pass("codegen", 0.01)
        assert profiler.passes["codegen"] == pytest.approx(0.01)

    def test_merge_profile_never_emits_spans(self):
        tracer = configure(True)
        profiler = Profiler()
        profiler.merge_profile(
            {"passes": {"codegen": {"seconds": 0.5}},
             "primitives": {"rydberg": {"count": 3, "seconds": 0.1}},
             "caches": {"memo": {"hits": 2, "misses": 1}}}
        )
        assert tracer.export() == []
        assert profiler.passes["codegen"] == pytest.approx(0.5)
        assert profiler.primitives["rydberg"] == [3, pytest.approx(0.1)]
        assert profiler.caches["memo"] == [2, 1]


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    def test_stats_carry_metric_histograms(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                for i in range(3):
                    await (await service.submit(_formula(f"m{i}"), target="fpqa"))
                return service.stats()

        stats = asyncio.run(run())
        metrics = stats["metrics"]
        series = {
            (s["name"], tuple(sorted(s["labels"].items()))): s
            for s in metrics["series"]
        }
        submitted = series[
            ("service.jobs.submitted", (("kind", "compile"), ("target", "fpqa")))
        ]
        assert submitted["value"] == 3
        job_hist = series[("service.job_seconds", (("kind", "compile"),))]
        assert job_hist["count"] == 3
        assert set(job_hist["quantiles"]) == {"p50", "p90", "p99"}
        assert ("service.queue.depth", ()) in series
        assert series[("service.artifacts.misses", ())]["value"] >= 1
        # The snapshot is JSON-safe (it rides the stats protocol op).
        json.dumps(stats)

    def test_worker_profile_merges_into_service_stats(self):
        """Pass counters from the executed compile reach fleet stats."""

        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                await (await service.submit(_formula("prof"), target="fpqa"))
                return service.stats()

        stats = asyncio.run(run())
        passes = stats["profile"]["passes"]
        assert "codegen" in passes
        assert passes["codegen"]["seconds"] > 0

    def test_cache_hits_skip_compile_metrics(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                await (await service.submit(_formula("c"), target="fpqa"))
                await (await service.submit(_formula("c"), target="fpqa"))
                return service.stats()

        stats = asyncio.run(run())
        series = {
            (s["name"], tuple(sorted(s["labels"].items()))): s
            for s in stats["metrics"]["series"]
        }
        # Both jobs complete, but only the first one compiled.
        job_hist = series[("service.job_seconds", (("kind", "compile"),))]
        assert job_hist["count"] == 2
        compile_hist = series[
            ("service.compile_seconds", (("device", "-"), ("target", "fpqa")))
        ]
        assert compile_hist["count"] == 1
        assert series[("service.artifacts.hits", ())]["value"] == 1

    def test_traced_job_produces_one_stitched_tree(self):
        """Acceptance: a service sim job traces queue -> worker -> sim."""

        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(
                    _formula("traced"), target="fpqa",
                    simulate={"shots": 60, "seed": 5},
                )
                result = await job
                assert result.error is None
                return job

        tracer = configure(True)
        job = asyncio.run(run())
        spans = tracer.export()
        configure(False)
        by_name = {s["name"]: s for s in spans}
        for expected in (
            "service.job.sim", "service.queue.wait", "service.artifact.lookup",
            "service.execute", "compile.fpqa", "sim.run",
            "service.artifact.store",
        ):
            assert expected in by_name, f"missing span {expected}"
        root = by_name["service.job.sim"]
        assert {s["trace"] for s in spans} == {root["trace"]}
        assert root["attrs"]["status"] == "done"
        assert by_name["service.queue.wait"]["parent"] == root["span"]
        assert by_name["compile.fpqa"]["parent"] == by_name["service.execute"]["span"]
        assert by_name["sim.run"]["start"] >= by_name["compile.fpqa"]["start"]
        assert job.trace_id == root["trace"]
        # The recording is a valid Chrome trace.
        assert validate_chrome_trace(chrome_trace(spans)) == len(spans)

    def test_process_backend_job_produces_one_stitched_tree(self):
        """The worker's spans cross the process boundary into one tree."""

        async def run():
            async with CompilationService(shards=1, backend="process") as service:
                job = await service.submit(_formula("forked"), target="fpqa")
                result = await job
                assert result.error is None
                return job

        tracer = configure(True)
        job = asyncio.run(run())
        spans = tracer.export()
        configure(False)
        by_name = {s["name"]: s for s in spans}
        for expected in (
            "service.job.compile", "service.queue.wait", "service.execute",
            "compile.fpqa", "codegen", "service.artifact.store",
        ):
            assert expected in by_name, f"missing span {expected}"
        root = by_name["service.job.compile"]
        assert {s["trace"] for s in spans} == {root["trace"]}
        assert root["attrs"]["status"] == "done"
        assert by_name["compile.fpqa"]["parent"] == by_name["service.execute"]["span"]
        # The compile ran in the shard's worker process, not here.
        assert by_name["compile.fpqa"]["pid"] != os.getpid()
        assert by_name["service.execute"]["pid"] == os.getpid()
        assert job.trace_id == root["trace"]
        assert validate_chrome_trace(chrome_trace(spans)) == len(spans)

    def test_trace_id_round_trips_over_the_socket(self, tmp_path):
        """A client span context reaches the server job and echoes back."""
        socket_path = tmp_path / "tel.sock"

        async def run():
            service = CompilationService(shards=1, backend="inline")
            async with ServiceServer(service, socket_path):
                async with await ServiceClient.connect(socket_path) as client:
                    with span("client.request") as root:
                        out = await client.submit(_formula("wire"), target="fpqa")
                    return root.trace_id, out, service.stats()

        tracer = configure(True)
        client_trace, out, stats = asyncio.run(run())
        spans = tracer.export()
        configure(False)
        assert out.result.error is None
        # The done event echoed the client's trace id...
        assert out.trace == client_trace
        # ...and the server-side job spans joined the client's trace.
        by_name = {s["name"]: s for s in spans}
        job_span = by_name["service.job.compile"]
        assert job_span["trace"] == client_trace
        assert job_span["parent"] == by_name["client.request"]["span"]
        json.dumps(stats)

    def test_untraced_submission_reports_no_trace(self):
        async def run():
            async with CompilationService(shards=1, backend="inline") as service:
                job = await service.submit(_formula("plain"), target="fpqa")
                await job
                return job

        job = asyncio.run(run())
        assert job.trace_id is None
        assert job.describe()["trace"] is None


# ----------------------------------------------------------------------
# wChecker spans
# ----------------------------------------------------------------------
def _covered_share(root: dict, children: list[dict]) -> float:
    """Share of ``root``'s wall time covered by the union of ``children``."""
    covered, reach = 0.0, root["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start, end = max(child["start"], reach), min(child["end"], root["end"])
        if end > start:
            covered += end - start
            reach = end
    return covered / (root["end"] - root["start"])


class TestCheckerSpans:
    @pytest.mark.parametrize("instance", ["uf20-01", "uf50-01"])
    def test_replay_and_equivalence_cover_the_check(self, instance):
        import repro
        from repro.checker import check_program

        result = repro.compile(repro.satlib_instance(instance), target="fpqa")
        tracer = configure(True)
        report = check_program(result.program, reference=result.native_circuit)
        assert report.ok
        spans = tracer.export()
        (root,) = [s for s in spans if s["name"] == "checker.check"]
        children = [s for s in spans if s["parent"] == root["span"]]
        assert sorted(s["name"] for s in children) == [
            "checker.equivalence", "checker.replay",
        ]
        assert _covered_share(root, children) >= 0.95


# ----------------------------------------------------------------------
# Artifact decode spans
# ----------------------------------------------------------------------
class TestDecodeSpans:
    @pytest.mark.parametrize("instance", ["uf20-01", "uf50-01"])
    def test_wqasm_and_qasm_decode_cover_the_decode(self, instance):
        import repro
        from repro.targets.result import CompilationResult

        result = repro.compile(repro.satlib_instance(instance), target="fpqa")
        payload = json.loads(json.dumps(result.to_dict()))
        tracer = configure(True)
        back = CompilationResult.from_dict(payload)
        spans = tracer.export()
        assert back.to_dict()["program_wqasm"] == payload["program_wqasm"]
        (root,) = [s for s in spans if s["name"] == "targets.decode"]
        children = [s for s in spans if s["parent"] == root["span"]]
        assert sorted(s["name"] for s in children) == ["qasm.decode", "wqasm.decode"]
        assert _covered_share(root, children) >= 0.95
