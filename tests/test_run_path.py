"""Every simulation of the experiment harness runs through
``RunContext.run``: extension studies are cached like the paper matrix,
their cells have keys of their own, the CLI counters tell the truth and
corrupt cache entries are recomputed instead of crashing a run."""

from __future__ import annotations

import json

import pytest

from repro.experiments import extensions, registry, runner
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunContext
from repro.frontend.simulate import FrontendSimulator
from repro.sim.simulator import SimulationResult, Simulator

SCALE, SEED = "smoke", 1

#: Short cells for the key/memo checks (the smoke floor is 1000 requests).
FAST = dict(scale="smoke", seed=7, length_factor=0.25)

EXT_IDS = ("ext-delta", "ext-translation", "ext-qd", "ext-seeds",
           "ext-cache")

#: ext-qd visits two depths here instead of the default four.
EXT_KWARGS = {"ext-qd": {"qds": (1, 4)}}

#: ``SimulationResult.to_dict()`` keys before the optional ``cmt`` field.
PRE_CMT_KEYS = [
    "scheme", "trace_name", "n_requests", "sim_time_ms", "wall_seconds",
    "read_latencies", "write_latencies", "read_raw_errors", "read_bits",
    "erases_slc", "erases_mlc", "programs_slc", "programs_mlc",
    "partial_programs", "disturbed_valid_subpages", "host_programs_slc",
    "host_programs_mlc", "gc_programs_slc", "gc_programs_mlc",
    "host_subpages_slc", "host_subpages_mlc", "gc_subpages_slc",
    "gc_subpages_mlc", "level_writes", "intra_page_updates",
    "upgrade_moves", "new_data_writes", "update_writes",
    "slc_overflow_chunks", "evicted_subpages_to_mlc", "slc_gc_collections",
    "slc_page_utilization", "mlc_gc_collections", "gc_scan_seconds",
    "gc_scans", "gc_scan_blocks", "slc_wear_spread", "mlc_wear_spread",
    "mapping_table_bytes", "metadata_bytes", "read_faults", "read_retries",
    "uncorrectable_reads", "fault_relocations", "program_failures",
    "erase_failures", "retired_blocks", "power_loss_events",
    "torn_subpages", "recovered_subpages", "recovery_ms", "cache_read_hits",
    "cache_read_misses", "merged_writes", "coalesced_writes", "flushes",
    "flushed_subpages", "dropped_subpages", "frontend_queue_depth",
    "lat_p50_ms", "lat_p90_ms", "lat_p99_ms", "fleet_device",
    "fleet_epoch",
]


def fresh_session(monkeypatch, cache: ResultCache) -> None:
    """Forget every shared context and route new ones to ``cache``, as a
    new CLI process would."""
    monkeypatch.setattr(runner, "_DEFAULT_CONTEXTS", {})
    monkeypatch.setattr(runner, "_EXEC_DEFAULTS",
                        {"jobs": None, "cache": cache})


def build(eid: str):
    return registry.get(eid)(scale=SCALE, seed=SEED,
                             **EXT_KWARGS.get(eid, {}))


def forbid_replays(monkeypatch) -> None:
    def boom(*args, **kwargs):
        raise AssertionError("replayed a cell the cache should serve")
    for cls, name in ((Simulator, "run"), (Simulator, "run_closed"),
                      (FrontendSimulator, "run")):
        monkeypatch.setattr(cls, name, boom)


class TestExtensionsAreCached:
    def test_warm_rebuild_replays_nothing(self, tmp_path, monkeypatch):
        cold_cache = ResultCache(tmp_path)
        fresh_session(monkeypatch, cold_cache)
        before = runner.execution_summary()["executed_cells"]
        cold = {eid: build(eid).rows for eid in EXT_IDS}
        simulated = runner.execution_summary()["executed_cells"] - before
        # Every replay is counted, front-end contexts included.
        assert simulated == cold_cache.stats.misses > 0
        assert cold_cache.stats.stores == cold_cache.stats.misses

        warm_cache = ResultCache(tmp_path)
        fresh_session(monkeypatch, warm_cache)
        forbid_replays(monkeypatch)
        for eid in EXT_IDS:
            assert build(eid).rows == cold[eid], eid
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == cold_cache.stats.misses


class TestCellIdentity:
    @pytest.fixture(scope="class")
    def ctx(self):
        return RunContext(**FAST)

    def test_keys_are_distinct(self, ctx):
        base_cfg = ctx.trace_config("ts0")
        keys = [
            ctx.cell_key("ts0", "ipu"),
            ctx.cell_key("ts0", "delta"),
            ctx.cell_key("ts0", "ipu", config=extensions.cmt_config(ctx, "ts0")),
            *(ctx.cell_key("ts0", "ipu", queue_depth=qd)
              for qd in extensions.QD_SWEEP),
            *(ctx.cell_key("ts0", "ipu", config=extensions.resized_cache_config(
                base_cfg, f)) for f in extensions.CACHE_FACTORS),
        ]
        assert len(set(keys)) == len(keys)

    def test_memo_entries_are_distinct(self, ctx):
        cmt_cfg = extensions.cmt_config(ctx, "ts0")
        small_cfg = extensions.resized_cache_config(
            ctx.trace_config("ts0"), 0.5)
        cells = [
            {}, {"queue_depth": 1}, {"queue_depth": 4},
            {"config": cmt_cfg}, {"config": small_cfg},
        ]
        results = [ctx.run("ts0", "ipu", **kw) for kw in cells]
        results.append(ctx.run("ts0", "delta"))
        assert len({id(r) for r in results}) == len(results)
        digests = {json.dumps(r.deterministic_dict(), sort_keys=True)
                   for r in results}
        assert len(digests) == len(results)
        # Each cell is memoised under its own identity.
        for kw, r in zip(cells, results):
            assert ctx.run("ts0", "ipu", **kw) is r
        assert results[0].cmt is None and results[3].cmt is not None

    def test_pe_and_config_are_exclusive(self, ctx):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            ctx.cell_key("ts0", "ipu", pe=1000,
                         config=ctx.trace_config("ts0"))

    def test_queue_depth_rejected_for_frontend_replay(self):
        from repro.errors import ExperimentError
        from repro.frontend import FrontendConfig
        ctx = RunContext(frontend=FrontendConfig.from_qd(4), **FAST)
        with pytest.raises(ExperimentError):
            ctx.run("ts0", "ipu", queue_depth=4)


class TestCmtField:
    def test_translation_off_payload_keeps_its_keys(self):
        r = RunContext(**FAST).run("ts0", "ipu")
        assert list(r.to_dict()) == PRE_CMT_KEYS

    def test_translation_on_round_trips_cmt(self):
        ctx = RunContext(**FAST)
        r = ctx.run("ts0", "mga", config=extensions.cmt_config(ctx, "ts0"))
        assert set(r.cmt) == {"lookups", "hits", "misses", "writebacks"}
        assert r.cmt["lookups"] == r.cmt["hits"] + r.cmt["misses"] > 0
        payload = json.loads(json.dumps(r.to_dict()))
        assert list(payload) == PRE_CMT_KEYS + ["cmt"]
        assert SimulationResult.from_dict(payload).cmt == r.cmt


def corrupt_every_entry(cache: ResultCache) -> int:
    entries = list(cache.root.glob("*/*.json"))
    for path in entries:
        path.write_text('{"scheme":"ipu"}')
    return len(entries)


class TestCorruptEntries:
    @pytest.mark.parametrize("raw", [b"null", b"[1, 2]", b'"ipu"',
                                     b"\xff\xfe{}"])
    def test_non_object_entry_is_a_miss(self, tmp_path, raw):
        cache = ResultCache(tmp_path)
        path = cache.path_for("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        assert cache.get("ab" * 32) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert not path.exists()

    def test_undecodable_entries_are_recomputed(self, tmp_path, monkeypatch):
        fresh_session(monkeypatch, ResultCache(tmp_path))
        cold = registry.get("fig5")(scale=SCALE, seed=SEED).rows
        n = corrupt_every_entry(ResultCache(tmp_path))
        assert n == 18

        cache = ResultCache(tmp_path)
        fresh_session(monkeypatch, cache)
        assert registry.get("fig5")(scale=SCALE, seed=SEED).rows == cold
        assert (cache.stats.hits, cache.stats.misses) == (0, n)
        assert cache.stats.stores == n
        # The recomputed results replaced the corrupt entries.
        warm = ResultCache(tmp_path)
        for path in warm.root.glob("*/*.json"):
            assert SimulationResult.from_dict(warm.get(path.stem))

    def test_undecodable_entries_in_parallel_path(self, tmp_path):
        schemes = ("baseline", "mga", "ipu")
        RunContext(cache=ResultCache(tmp_path), **FAST).run_matrix(
            traces=("ts0",), schemes=schemes)
        n = corrupt_every_entry(ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        ctx = RunContext(jobs=2, cache=cache, **FAST)
        ctx.run_matrix(traces=("ts0",), schemes=schemes)
        assert ctx.executed_cells == n == len(schemes)
        assert (cache.stats.hits, cache.stats.misses) == (0, n)
