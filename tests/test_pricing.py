"""The shared op pricer against the two-step reference.

:func:`repro.sim.pricing.op_pricer` must reserve exactly what
``TimingModel`` + the chip/channel reservation of
``tests/reference_pricing.py`` reserve: the same end time for every op
and, after any sequence of ops, the same ``next_free``, ``busy_ms`` and
``operations`` on every server, bit for bit, on both bus models.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.geometry import Geometry
from repro.sim.ops import Cause, OpKind, OpRecord
from repro.sim.pricing import OpPricer, op_pricer
from repro.sim.resources import ResourceSet
from repro.sim.timing import TimingModel

from conftest import tiny_config
from reference_pricing import reference_reserve


def device(pipelined: bool):
    cfg = tiny_config()
    cfg = dataclasses.replace(
        cfg, timing=dataclasses.replace(cfg.timing, pipelined_bus=pipelined))
    return TimingModel(cfg), Geometry(cfg.geometry)


def server_state(resources: ResourceSet) -> list[tuple]:
    return [(r.next_free, r.busy_ms, r.operations)
            for r in resources.chips + resources.channels]


ops = st.builds(
    OpRecord,
    kind=st.sampled_from(list(OpKind)),
    block_id=st.integers(0, 31),
    page=st.just(0),
    n_slots=st.integers(0, 4),
    is_slc=st.booleans(),
    cause=st.sampled_from(list(Cause)),
    transfer_slots=st.integers(0, 4),
    ecc_ms=st.floats(0.0, 0.1),
    raw_errors=st.just(0.0),
)


@settings(max_examples=200, deadline=None)
@given(pipelined=st.booleans(),
       batch=st.lists(st.tuples(ops, st.floats(0.0, 5.0)), max_size=40))
def test_pricer_matches_reference(pipelined, batch):
    timing, geometry = device(pipelined)
    ref_rs = ResourceSet(geometry)
    new_rs = ResourceSet(geometry)
    reserve = op_pricer(timing, new_rs, pipelined)
    when = 0.0
    for op, dt in batch:
        when += dt
        assert reserve(op, when) == reference_reserve(
            timing, ref_rs, pipelined, op, when)
    assert server_state(new_rs) == server_state(ref_rs)


@pytest.mark.parametrize("pipelined", [False, True])
def test_op_pricer_pickles_with_its_resources(pipelined):
    """Unpickled together with its resources, a pricer still reserves on
    those resources (the closure is rebuilt, not copied)."""
    timing, geometry = device(pipelined)
    resources = ResourceSet(geometry)
    pricer = OpPricer(timing, resources, pipelined)
    op = OpRecord(OpKind.PROGRAM, 3, 0, 2, True, Cause.HOST)
    pricer.reserve(op, 0.0)
    copy_rs, copy_pricer = pickle.loads(pickle.dumps((resources, pricer)))
    assert copy_pricer.resources is copy_rs
    assert copy_pricer.reserve(op, 0.0) == pricer.reserve(op, 0.0)
    assert server_state(copy_rs) == server_state(resources)
