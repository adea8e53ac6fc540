"""Parallel fan-out: worker-process replay must be bit-identical to the
sequential path, and the on-disk cache must short-circuit re-runs."""

from __future__ import annotations

import os

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import CellSpec, resolve_jobs, run_cells, simulate_cell
from repro.experiments.runner import RunContext

#: Short cells keep the fan-out affordable: the smoke scale floors the
#: trace at 1000 requests under this length factor.
FAST = dict(scale="smoke", seed=7, length_factor=0.25)

SCHEMES = ("baseline", "mga", "ipu")


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_auto_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        expected = max(1, os.cpu_count() or 1)
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected
        assert resolve_jobs(-4) == expected


class TestDifferentialDeterminism:
    def test_parallel_matches_sequential(self):
        """Baseline/MGA/IPU through a real worker pool == sequential,
        field for field (wall-clock fields excluded)."""
        par = RunContext(jobs=2, **FAST)
        seq = RunContext(**FAST)
        matrix = par.run_matrix(traces=("ts0",), schemes=SCHEMES)
        for scheme in SCHEMES:
            expect = seq.run("ts0", scheme).deterministic_dict()
            got = matrix[("ts0", scheme)].deterministic_dict()
            assert got == expect, f"{scheme}: parallel result diverged"

    def test_worker_entry_point_is_deterministic(self):
        """Two cold worker invocations of the same spec agree exactly."""
        spec = CellSpec(trace="ts0", scheme="ipu", **FAST)
        a, b = simulate_cell(spec), simulate_cell(spec)
        for d in (a, b):
            for name in ("wall_seconds", "gc_scan_seconds"):
                d.pop(name)
        assert a == b

    def test_run_cells_preserves_spec_order(self):
        specs = [CellSpec(trace="ts0", scheme=s, **FAST) for s in SCHEMES]
        payloads = run_cells(specs, jobs=2)
        assert [p["scheme"] for p in payloads] == list(SCHEMES)


class TestCacheIntegration:
    def test_warm_context_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = RunContext(cache=cache, **FAST)
        cold.run("ts0", "ipu")
        assert cold.executed_cells == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1

        warm = RunContext(cache=cache, **FAST)
        r = warm.run("ts0", "ipu")
        assert warm.executed_cells == 0
        assert cache.stats.hits == 1
        assert (r.deterministic_dict()
                == cold.run("ts0", "ipu").deterministic_dict())

    def test_parallel_workers_populate_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ctx = RunContext(jobs=2, cache=cache, **FAST)
        ctx.run_matrix(traces=("ts0",), schemes=SCHEMES)
        assert ctx.executed_cells == len(SCHEMES)
        assert len(cache) == len(SCHEMES)

        warm = RunContext(jobs=2, cache=ResultCache(tmp_path), **FAST)
        warm.run_matrix(traces=("ts0",), schemes=SCHEMES)
        assert warm.executed_cells == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        key = ctx.cell_key("ts0", "ipu")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        r = ctx.run("ts0", "ipu")
        assert ctx.executed_cells == 1
        assert r.n_requests > 0
        # The torn entry was replaced by a good one.
        assert ResultCache(tmp_path).get(key) is not None


class TestExecutionDefaults:
    def test_configure_execution_reaches_shared_contexts(self, tmp_path):
        from repro.experiments import runner

        before_jobs = runner._EXEC_DEFAULTS["jobs"]
        before_cache = runner._EXEC_DEFAULTS["cache"]
        try:
            cache = ResultCache(tmp_path)
            runner.configure_execution(jobs=3, cache=cache)
            ctx = runner.default_context("smoke", seed=99)
            assert ctx.jobs == 3 and ctx.cache is cache
            # Existing memoised contexts are updated too.
            runner.configure_execution(jobs=None, cache=None)
            assert ctx.jobs is None and ctx.cache is None
        finally:
            runner.configure_execution(jobs=before_jobs, cache=before_cache)
            runner._DEFAULT_CONTEXTS.pop(("smoke", 99), None)
