"""Property tests (hypothesis) for the front-end write buffer.

The central property: interposing the write-back buffer between a
workload and an FTL is *transparent* — after the final drain, the flash
holds exactly the logical state a direct (bufferless) run produces,
for any scheme, any buffer geometry and any interleaving of pressure
flushes, delay expiries and read hits.  Alongside it, the counter
consistency (``hits + misses == reads``) and the capacity bound that
``docs/FRONTEND.md`` promises.
"""

import pickle
from collections import OrderedDict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro import SCHEMES
from repro.errors import ConfigError
from repro.frontend import FrontendConfig, WriteBuffer
from repro.rng import make_rng

from conftest import tiny_config

# Logical space: 48 subpages (12 logical pages) — small enough that
# random workloads revisit addresses and exercise merging and GC.
LSN_SPACE = 48

write_op = st.tuples(
    st.just("w"),
    st.integers(min_value=0, max_value=LSN_SPACE - 1),
    st.integers(min_value=1, max_value=4),
)
read_op = st.tuples(
    st.just("r"),
    st.integers(min_value=0, max_value=LSN_SPACE - 1),
    st.integers(min_value=1, max_value=4),
)
workload = st.lists(st.one_of(write_op, read_op), min_size=1, max_size=100)

#: Randomized buffer geometries: capacity, watermark, writeback delay
#: (0 = immediate destage, huge = drain-only) and coalescing span cap.
buffer_configs = st.builds(
    lambda cap, wm, delay, span: FrontendConfig(
        enabled=True, buffer_subpages=cap, flush_watermark=wm,
        writeback_delay_ms=delay, flush_span_subpages=span),
    cap=st.integers(min_value=2, max_value=24),
    wm=st.floats(min_value=0.2, max_value=0.9),
    delay=st.sampled_from([0.0, 0.7, 3.0, 1e9]),
    span=st.integers(min_value=1, max_value=8),
)


def expand(lsn, length):
    return list(range(lsn, min(lsn + length, LSN_SPACE)))


def run_direct(scheme, ops):
    """The bufferless oracle: writes hit the FTL immediately."""
    ftl = SCHEMES[scheme](tiny_config())
    now = 0.0
    for kind, lsn, length in ops:
        lsns = expand(lsn, length)
        if kind == "w":
            ftl.handle_write(lsns, now)
        else:
            ftl.handle_read(lsns, now)
        now += 0.5
    return ftl


def run_buffered(scheme, ops, fe):
    """The same workload through a WriteBuffer, drained at the end."""
    ftl = SCHEMES[scheme](tiny_config())
    buf = WriteBuffer(fe)
    now = 0.0
    reads = 0
    for kind, lsn, length in ops:
        lsns = expand(lsn, length)
        if kind == "w":
            for span in buf.write(lsns, now):
                ftl.handle_write(span, now)
        else:
            reads += len(lsns)
            hits, misses = buf.split_read(lsns)
            assert len(hits) + len(misses) == len(lsns)
            if misses:
                ftl.handle_read(misses, now)
        # Periodic writeback sweep, as the simulator runs it.
        for span in buf.expire(now):
            ftl.handle_write(span, now)
        assert buf.occupancy <= fe.buffer_subpages
        now += 0.5
    for span in buf.drain():
        ftl.handle_write(span, now)
    assert buf.occupancy == 0
    return ftl, buf, reads


def bound_lsns(ftl):
    return {lsn for lsn, _ in ftl.iter_bindings()}


@pytest.mark.parametrize("scheme", ["baseline", "mga", "ipu"])
class TestBufferTransparency:
    @given(ops=workload, fe=buffer_configs)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_final_flash_state_matches_direct_run(self, scheme, ops, fe):
        direct = run_direct(scheme, ops)
        buffered, _, _ = run_buffered(scheme, ops, fe)
        assert bound_lsns(buffered) == bound_lsns(direct)
        buffered.check_consistency()
        direct.check_consistency()

    @given(ops=workload, fe=buffer_configs)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hit_miss_counters_are_consistent(self, scheme, ops, fe):
        _, buf, reads = run_buffered(scheme, ops, fe)
        assert buf.stats.read_hits + buf.stats.read_misses == reads

    @given(ops=workload, fe=buffer_configs)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_capacity_and_flow_conservation(self, scheme, ops, fe):
        """Peak occupancy respects the capacity, and every buffered
        subpage is accounted for: inserted = merged + flushed (+0 left)."""
        _, buf, _ = run_buffered(scheme, ops, fe)
        stats = buf.stats
        assert stats.peak_occupancy <= fe.buffer_subpages
        inserted = sum(len(expand(lsn, length))
                       for kind, lsn, length in ops if kind == "w")
        assert inserted == stats.merged_writes + stats.flushed_subpages
        # Coalescing rides extra subpages on a span: span length - 1 each.
        assert stats.coalesced_writes == stats.flushed_subpages - stats.flushes


class TestBufferUnits:
    def fe(self, **kw):
        base = dict(enabled=True, buffer_subpages=8, flush_watermark=0.5,
                    writeback_delay_ms=2.0, flush_span_subpages=4)
        base.update(kw)
        return FrontendConfig(**base)

    def test_overwrite_merges_in_place(self):
        buf = WriteBuffer(self.fe())
        assert buf.write([3], 0.0) == []
        assert buf.write([3], 1.0) == []
        assert buf.occupancy == 1
        assert buf.stats.merged_writes == 1

    def test_adjacent_lsns_coalesce_into_one_span(self):
        buf = WriteBuffer(self.fe(writeback_delay_ms=0.0))
        buf.write([5], 0.0)
        buf.write([6], 0.0)
        buf.write([4], 0.0)
        spans = buf.expire(0.0)
        assert spans == [[4, 5, 6]]
        assert buf.stats.flushes == 1
        assert buf.stats.coalesced_writes == 2

    def test_span_cap_limits_coalescing(self):
        buf = WriteBuffer(self.fe(writeback_delay_ms=0.0,
                                  flush_span_subpages=2))
        buf.write([0, 1, 2, 3], 0.0)
        spans = buf.expire(0.0)
        assert all(len(span) <= 2 for span in spans)
        assert sorted(lsn for span in spans for lsn in span) == [0, 1, 2, 3]

    def test_pressure_flush_drains_to_watermark(self):
        buf = WriteBuffer(self.fe(buffer_subpages=4, flush_watermark=0.5,
                                  writeback_delay_ms=1e9,
                                  flush_span_subpages=1))
        spans = buf.write([0, 10, 20, 30, 40], 0.0)
        # The fifth insert overflowed: drained to watermark (2), then
        # inserted -> occupancy 3, oldest entries flushed first.
        assert spans == [[0], [10]]
        assert buf.occupancy == 3

    def test_expiry_honours_writeback_delay(self):
        buf = WriteBuffer(self.fe(writeback_delay_ms=2.0))
        buf.write([7], 0.0)
        buf.write([30], 1.5)
        assert buf.expire(1.0) == []
        assert buf.expire(2.0) == [[7]]     # 7 aged out, 30 still fresh
        assert buf.occupancy == 1

    def test_overwrite_refreshes_dirty_age(self):
        buf = WriteBuffer(self.fe(writeback_delay_ms=2.0))
        buf.write([7], 0.0)
        buf.write([7], 1.9)                 # merge restarts the clock
        assert buf.expire(2.5) == []
        assert buf.expire(3.9) == [[7]]

    def test_drop_all_counts_and_empties(self):
        buf = WriteBuffer(self.fe())
        buf.write([1, 2, 3], 0.0)
        assert buf.drop_all() == 3
        assert buf.occupancy == 0
        assert buf.stats.dropped_subpages == 3
        assert buf.stats.flushed_subpages == 0

    def test_read_hits_come_from_the_buffer(self):
        buf = WriteBuffer(self.fe())
        buf.write([4, 5], 0.0)
        hits, misses = buf.split_read([3, 4, 5, 6])
        assert hits == [4, 5]
        assert misses == [3, 6]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FrontendConfig(flush_watermark=1.0).validate()
        with pytest.raises(ConfigError):
            FrontendConfig(queue_depth=0).validate()
        with pytest.raises(ConfigError):
            FrontendConfig(buffer_subpages=0).validate()
        with pytest.raises(ConfigError):
            FrontendConfig.from_dict({"no_such_knob": 1})

    def test_config_round_trips_through_json(self):
        fe = FrontendConfig.from_qd(17)
        assert FrontendConfig.from_json(fe.to_json()) == fe
        assert not FrontendConfig().enabled
        assert fe.enabled


class TestBufferContainer:
    """The ordered mapping behind the buffer is a container choice: it
    must not change a single eviction."""

    def test_large_buffer_spans_match_plain_dict(self):
        """A seeded write/read/expire mix at 65,536 subpages fills the
        buffer (pressure drains) and ages it (expiries); the
        ``OrderedDict`` buffer emits the same spans as a plain ``dict``."""
        fe = FrontendConfig(enabled=True, buffer_subpages=65536,
                            flush_watermark=0.5, writeback_delay_ms=300.0,
                            flush_span_subpages=8)
        ordered = WriteBuffer(fe)
        assert isinstance(ordered._entries, OrderedDict)
        plain = WriteBuffer(fe)
        plain._entries = {}
        n = 40_000
        rng = make_rng(7, "test:buffer-container")
        firsts = rng.integers(0, 300_000, n).tolist()
        sizes = rng.integers(1, 9, n).tolist()
        rolls = rng.random(n).tolist()
        now = 0.0
        pressure = expired = 0
        for i in range(n):
            # A dense burst fills the buffer, then a slower tail ages it.
            now += 0.01 if i < 30_000 else 0.1
            lsns = list(range(firsts[i], firsts[i] + sizes[i]))
            roll = rolls[i]
            if roll < 0.6:
                spans = ordered.write(lsns, now)
                assert spans == plain.write(lsns, now)
                pressure += len(spans)
            elif roll < 0.9:
                assert ordered.split_read(lsns) == plain.split_read(lsns)
            else:
                spans = ordered.expire(now)
                assert spans == plain.expire(now)
                expired += len(spans)
        assert ordered.drain() == plain.drain()
        assert ordered.stats == plain.stats
        assert pressure and expired  # both eviction paths ran

    def test_checkpoint_with_plain_dict_buffer_resumes(self):
        """A simulator pickled while its buffer held a plain ``dict``
        (checkpoints written before the buffer became ordered) resumes
        to the same result as an uninterrupted run."""
        from repro.frontend.simulate import FrontendSimulator
        from repro.traces import generate
        from repro.traces.model import Trace
        from repro.traces.profiles import profile

        cfg = tiny_config(seed=3)
        fe = FrontendConfig.from_qd(4)
        trace = generate(profile("ts0"), n_requests=500, seed=5,
                         mean_interarrival_ms=0.6)
        expected = FrontendSimulator(SCHEMES["ipu"](cfg), fe, cfg).run(
            trace).deterministic_dict()

        def cut(a, b):
            return Trace(trace.times_ms[a:b], trace.is_write[a:b],
                         trace.offsets[a:b], trace.sizes[a:b], name=trace.name)

        head, tail = cut(0, 210), cut(210, len(trace))
        paused = FrontendSimulator(SCHEMES["ipu"](cfg), fe, cfg)
        paused.feed(head)
        paused.buffer._entries = dict(paused.buffer._entries)
        assert paused.buffer.occupancy
        resumed = pickle.loads(pickle.dumps(paused, protocol=5))
        assert type(resumed.buffer._entries) is dict
        resumed.feed(tail)
        resumed.finish()
        assert resumed.result(trace.name).deterministic_dict() == expected
