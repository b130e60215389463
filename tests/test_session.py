"""CompilerSession: batching, ordering, budgets, and the result caches."""

import pytest

import repro
from repro import CompilerSession
from repro.sat import CnfFormula


def _formulas(count: int) -> list[CnfFormula]:
    return [
        CnfFormula.from_lists(
            [[1, -2, 3], [-1, 2, 4], [2, 3, -4]], num_vars=4, name=f"batch-{i}"
        )
        for i in range(count)
    ]


class TestCompileMany:
    def test_results_in_input_order_parallel_2(self):
        workloads = _formulas(4)
        session = CompilerSession()
        results = session.compile_many(
            workloads, targets=["fpqa", "atomique"], parallel=2
        )
        assert [(r.workload, r.target) for r in results] == [
            (w.name, t) for w in workloads for t in ("fpqa", "atomique")
        ]
        assert all(r.succeeded for r in results)

    def test_sequential_matches_parallel(self):
        workloads = _formulas(3)
        sequential = CompilerSession().compile_many(workloads, targets="fpqa")
        parallel = CompilerSession().compile_many(
            workloads, targets="fpqa", parallel=2
        )
        assert [r.num_pulses for r in sequential] == [r.num_pulses for r in parallel]
        assert [r.eps for r in sequential] == pytest.approx([r.eps for r in parallel])

    def test_duplicate_cells_compiled_once(self):
        workload = _formulas(1)[0]
        session = CompilerSession()
        results = session.compile_many([workload, workload], targets="fpqa")
        assert results[0] is results[1]

    def test_dead_worker_fails_only_its_own_cells(self, faulty_target):
        # Every faulty cell kills its pool worker, which breaks the pool
        # under the fpqa cells too; those rerun alone and succeed.
        workloads = _formulas(3)
        session = CompilerSession()
        results = session.compile_many(
            workloads, targets=["fpqa", faulty_target], parallel=2
        )
        assert [(r.workload, r.target) for r in results] == [
            (w.name, t) for w in workloads for t in ("fpqa", faulty_target)
        ]
        assert all(r.succeeded for r in results[0::2])
        assert all("BrokenProcessPool" in r.error for r in results[1::2])
        # The survivors were stored: a rerun serves them from the cache.
        again = session.compile_many(workloads, targets="fpqa", parallel=2)
        assert all(r.cached for r in again)

    def test_unknown_target_rejected_before_compiling(self):
        with pytest.raises(repro.UnknownTargetError):
            CompilerSession().compile_many(_formulas(1), targets=["fpqa", "pixie"])

    def test_failures_become_result_rows(self, tiny_formula):
        # A circuit workload cannot feed a formula-only target: the session
        # reports the error instead of raising (service contract).
        circuit = repro.qaoa_circuit(tiny_formula, measure=False)
        session = CompilerSession()
        result = session.compile(circuit, target="atomique")
        assert not result.succeeded
        assert "WorkloadError" in result.error

    def test_budget_becomes_timed_out_row(self, tiny_formula):
        session = CompilerSession(budgets={"fpqa": 1e-9})
        result = session.compile(tiny_formula, target="fpqa")
        assert result.timed_out
        assert not result.succeeded


class TestTargetTables:
    """``budgets`` and ``target_options`` entries keyed by an alias apply
    to the aliased target; a key naming no target is an error."""

    def test_budget_under_alias_applies(self, tiny_formula):
        session = CompilerSession(budgets={"weaver": 1e-9})
        assert session.compile(tiny_formula, target="weaver").timed_out
        assert session.compile(tiny_formula, target="fpqa").timed_out

    def test_target_options_under_alias_apply(self, tiny_formula):
        plain = CompilerSession().compile(tiny_formula, target="fpqa")
        session = CompilerSession(
            target_options={"weaver": {"compression": False}}
        )
        off = session.compile(tiny_formula, target="fpqa")
        assert off.stats["gate-compression"]["use_compression"] is False
        assert plain.stats["gate-compression"]["use_compression"] is True

    def test_unknown_key_rejected(self):
        with pytest.raises(repro.TargetError, match="pixie"):
            CompilerSession(budgets={"pixie": 1.0})
        with pytest.raises(repro.TargetError, match="pixie"):
            CompilerSession(target_options={"pixie": {}})

    def test_alias_and_name_together_rejected(self):
        with pytest.raises(repro.TargetError, match="fpqa"):
            CompilerSession(budgets={"weaver": 1.0, "fpqa": 2.0})

    def test_service_tables_are_canonical(self):
        from repro.service import CompilationService

        service = CompilationService(
            shards=1, backend="inline", budgets={"weaver": 1e-9}
        )
        assert service.budgets == {"fpqa": 1e-9}
        with pytest.raises(repro.TargetError, match="pixie"):
            CompilationService(shards=1, backend="inline", budgets={"pixie": 1.0})


class TestProfilerAccounting:
    """Cache/dedup accounting must not depend on the execution path.

    ``compile_many(parallel > 1)`` quietly drops to the serial path when
    only one cell actually needs compiling (``len(submit) == 1``); the
    regression here is that both that fallback and the real pool branch
    record identical cache-hit and dedup counters in the session's
    profiler.
    """

    def _caches(self, session: CompilerSession) -> dict:
        return session.stats()["caches"]

    def test_serial_fallback_records_cache_hit(self):
        # One workload + parallel=2 -> len(submit) == 1 -> serial fallback.
        workload = _formulas(1)[0]
        session = CompilerSession()
        session.compile_many([workload], targets="fpqa", parallel=2)
        caches = self._caches(session)
        assert caches["session.results"] == {"hits": 0, "misses": 1}
        # The bypass is observable, not silent.
        assert "session.pool_bypass" in session.stats()["primitives"]

        session.compile_many([workload], targets="fpqa", parallel=2)
        caches = self._caches(session)
        assert caches["session.results"] == {"hits": 1, "misses": 1}

    def test_pool_branch_records_cache_hit(self):
        # Three distinct workloads -> len(submit) == 3 -> process pool.
        workloads = _formulas(3)
        session = CompilerSession()
        session.compile_many(workloads, targets="fpqa", parallel=2)
        caches = self._caches(session)
        assert caches["session.results"] == {"hits": 0, "misses": 3}
        assert "session.pool_bypass" not in session.stats()["primitives"]

        session.compile_many(workloads, targets="fpqa", parallel=2)
        caches = self._caches(session)
        assert caches["session.results"] == {"hits": 3, "misses": 3}

    def test_dedup_recorded_in_serial_fallback(self):
        # Two copies of one cell dedup to a single submit -> serial
        # fallback; the duplicate must still count as a dedup hit.
        workload = _formulas(1)[0]
        session = CompilerSession()
        results = session.compile_many([workload, workload], targets="fpqa", parallel=2)
        assert results[0] is results[1]
        caches = self._caches(session)
        assert caches["session.dedup"] == {"hits": 1, "misses": 1}
        assert caches["session.results"] == {"hits": 0, "misses": 2}

    def test_dedup_recorded_in_pool_branch(self):
        a, b = _formulas(2)
        a2 = CnfFormula.from_lists(
            [[1, -2, 3], [-1, 2, 4], [2, 3, -4]], num_vars=4, name=a.name
        )
        session = CompilerSession()
        results = session.compile_many([a, a2, b, b], targets="fpqa", parallel=2)
        assert results[0] is results[1]
        assert results[2] is results[3]
        caches = self._caches(session)
        assert caches["session.dedup"] == {"hits": 2, "misses": 2}

    def test_single_compile_path_matches_batch_accounting(self, tiny_formula):
        session = CompilerSession()
        session.compile(tiny_formula, target="fpqa")
        session.compile(tiny_formula, target="fpqa")
        assert self._caches(session)["session.results"] == {"hits": 1, "misses": 1}

    def test_caller_supplied_profiler_is_used(self, tiny_formula):
        from repro.perf import Profiler

        profiler = Profiler()
        session = CompilerSession(profiler=profiler)
        session.compile(tiny_formula, target="fpqa")
        assert profiler.caches["session.results"] == [0, 1]


class TestCaching:
    def test_memory_cache_hits(self, tiny_formula):
        session = CompilerSession()
        first = session.compile(tiny_formula, target="fpqa")
        second = session.compile(tiny_formula, target="fpqa")
        assert second is first
        assert second.cached

    def test_disk_cache_survives_sessions(self, tmp_path, tiny_formula):
        cache = tmp_path / "cache"
        first = CompilerSession(cache_dir=cache).compile(tiny_formula, target="fpqa")
        assert not first.cached
        assert list(cache.glob("*.json"))
        second = CompilerSession(cache_dir=cache).compile(tiny_formula, target="fpqa")
        assert second.cached
        assert second.num_pulses == first.num_pulses
        assert second.program.pulse_counts() == first.program.pulse_counts()

    def test_distinct_options_are_distinct_cells(self, tmp_path, tiny_formula):
        session = CompilerSession(cache_dir=tmp_path / "cache")
        on = session.compile(tiny_formula, target="fpqa", compression=True)
        off = session.compile(tiny_formula, target="fpqa", compression=False)
        assert on.num_pulses != off.num_pulses

    def test_error_rows_not_persisted(self, tmp_path, tiny_formula):
        cache = tmp_path / "cache"
        session = CompilerSession(cache_dir=cache)
        circuit = repro.qaoa_circuit(tiny_formula, measure=False)
        result = session.compile(circuit, target="atomique")
        assert result.error is not None
        assert not list(cache.glob("*.json"))

    def test_error_rows_retried_within_session(self, tiny_formula):
        """Transient failures must not be served back from the memory cache."""
        circuit = repro.qaoa_circuit(tiny_formula, measure=False)
        session = CompilerSession()
        first = session.compile(circuit, target="atomique")
        second = session.compile(circuit, target="atomique")
        assert first.error is not None
        assert second is not first  # recompiled, not a cache hit
        assert not second.cached

    def test_unsupported_option_is_error_not_noop(self, tiny_formula):
        with pytest.raises(repro.TargetError, match="measure"):
            repro.compile(tiny_formula, target="atomique", measure=False)
        with pytest.raises(repro.TargetError, match="compression"):
            repro.compile(tiny_formula, target="superconducting", compression=True)

    def test_bigger_budget_retries_cached_timeout(self, tmp_path, tiny_formula):
        """A timed-out row must not shadow a retry under a larger budget."""
        cache = tmp_path / "cache"
        strangled = CompilerSession(budgets={"fpqa": 1e-9}, cache_dir=cache)
        first = strangled.compile(tiny_formula, target="fpqa")
        assert first.timed_out
        generous = CompilerSession(budgets={"fpqa": 120.0}, cache_dir=cache)
        second = generous.compile(tiny_formula, target="fpqa")
        assert second.succeeded

    def test_target_options_are_part_of_cache_key(self, tmp_path, tiny_formula):
        from repro import FPQAHardwareParams

        cache = tmp_path / "cache"
        default = CompilerSession(cache_dir=cache).compile(tiny_formula)
        degraded_hw = FPQAHardwareParams().with_overrides(fidelity_ccz=0.5)
        degraded = CompilerSession(
            cache_dir=cache, target_options={"fpqa": {"hardware": degraded_hw}}
        ).compile(tiny_formula)
        assert not degraded.cached
        assert degraded.eps < default.eps

    def test_disk_cache_restores_native_circuit(self, tmp_path, tiny_formula):
        cache = tmp_path / "cache"
        first = CompilerSession(cache_dir=cache).compile(tiny_formula, target="fpqa")
        second = CompilerSession(cache_dir=cache).compile(tiny_formula, target="fpqa")
        assert second.cached
        assert second.native_circuit is not None
        assert second.native_circuit.num_qubits == first.native_circuit.num_qubits

    def test_clear_cache(self, tmp_path, tiny_formula):
        cache = tmp_path / "cache"
        session = CompilerSession(cache_dir=cache)
        session.compile(tiny_formula, target="fpqa")
        session.clear_cache(disk=True)
        assert not list(cache.glob("*.json"))
        again = session.compile(tiny_formula, target="fpqa")
        assert not again.cached
