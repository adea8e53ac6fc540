"""Differential test: the shipped scheduler against its reference copy.

``reference_scheduler.py`` is the multi-queue scheduler as it was before
``submit`` learned to issue directly when nothing is queued.  Hypothesis
drives both with the same random histories — submits to random queues,
advances, drains, arrival times with ties, and an issue callback whose
service times tie often — and every observable must agree after every
step: the issue log (order and issue times), ``max_inflight``, the
round-robin pointer, the backlog size and the in-flight heap, and each
drain's final completion time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scheduler as reference
from repro.frontend import scheduler as shipped

#: Few distinct values, so completion times and arrivals tie often.
SERVICE_MS = (0.0, 0.5, 1.0, 1.5, 3.0)
STEP_MS = (0.0, 0.0, 0.25, 0.5, 1.0, 4.0)

step = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 7),
              st.sampled_from(STEP_MS), st.sampled_from(SERVICE_MS),
              st.sampled_from((-0.5, 0.0, 0.0, 0.5))),
    st.tuples(st.just("advance"), st.sampled_from(STEP_MS)),
    st.tuples(st.just("drain")),
)


class Harness:
    """One scheduler plus the log its issue callback writes."""

    def __init__(self, module, n_queues: int, queue_depth: int):
        self.module = module
        self.log: list[tuple[int, float]] = []
        self.service: dict[int, float] = {}
        self.sched = module.MultiQueueScheduler(
            n_queues, queue_depth, self._issue)

    def _issue(self, request, issue_ms: float) -> float:
        self.log.append((request.index, issue_ms))
        return issue_ms + self.service[request.index]

    def submit(self, index: int, queue_id: int, arrival_ms: float,
               now: float, service_ms: float) -> None:
        self.service[index] = service_ms
        request = self.module.FrontRequest(
            index=index, arrival_ms=arrival_ms, lsns=[index], is_write=False)
        self.sched.submit(request, queue_id, now)

    def observed(self) -> tuple:
        s = self.sched
        return (list(self.log), s.max_inflight, s._rr, s._queued,
                sorted(s._inflight), s._seq)


@settings(max_examples=300, deadline=None)
@given(n_queues=st.integers(1, 6), queue_depth=st.integers(1, 32),
       steps=st.lists(step, min_size=1, max_size=80))
def test_same_dispatch_as_reference(n_queues, queue_depth, steps):
    ref = Harness(reference, n_queues, queue_depth)
    new = Harness(shipped, n_queues, queue_depth)
    now = 0.0
    index = 0
    for op in steps:
        if op[0] == "submit":
            _, queue, dt, service_ms, skew = op
            now += dt
            # Arrival may differ from ``now`` either way: a request
            # issues at max(slot time, arrival time).
            arrival = max(0.0, now + skew)
            for harness in (ref, new):
                harness.submit(index, queue % n_queues, arrival, now,
                               service_ms)
            index += 1
        elif op[0] == "advance":
            now += op[1]
            ref.sched.advance(now)
            new.sched.advance(now)
        else:
            assert new.sched.drain() == ref.sched.drain()
        assert new.observed() == ref.observed()
    assert new.sched.drain() == ref.sched.drain()
    assert new.observed() == ref.observed()
    assert sorted(i for i, _ in new.log) == list(range(index))


def test_direct_dispatch_advances_round_robin_pointer():
    """A directly issued request moves the pointer past its queue, so
    the backlog that forms behind it is served from the next queue."""
    logs = []
    for module in (reference, shipped):
        h = Harness(module, 3, 1)
        h.submit(0, 1, 0.0, 0.0, 1.0)   # issues at once from queue 1
        h.submit(1, 1, 0.0, 0.0, 1.0)   # queued behind it
        h.submit(2, 2, 0.0, 0.0, 1.0)
        h.sched.drain()
        logs.append(h.log)
    assert logs[1] == logs[0] == [(0, 0.0), (2, 1.0), (1, 2.0)]
