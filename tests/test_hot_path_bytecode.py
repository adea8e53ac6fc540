"""Bytecode guard: no enum class lookups on the replay hot path.

On Python <= 3.11 ``EnumType`` defines ``__getattr__``, so a class
attribute load such as ``Cause.HOST`` takes CPython's slow lookup hook
(an order of magnitude above a module-global load), and
``BlockLevel(x)`` or ``level.demoted()`` builds a member through
``EnumType.__call__``.  The
per-request and per-op functions below bind the members they need to
module constants (``_HOST = Cause.HOST``) and index the level tables
``PROMOTED``/``DEMOTED`` instead.  This test reads their bytecode and
fails when a class-attribute member load or a ``BlockLevel``
construction comes back.
"""

from __future__ import annotations

import dis
import enum
import types

import pytest

from repro.core.intra_page import plan_intra_page_update
from repro.core.ipu_ftl import IPUFTL
from repro.frontend.simulate import FrontendSimulator
from repro.ftl.allocator import RegionAllocator
from repro.ftl.base import BaseFTL
from repro.ftl.baseline import BaselineFTL
from repro.ftl.delta import DeltaFTL
from repro.ftl.gc import GarbageCollector
from repro.ftl.levels import BlockLevel
from repro.ftl.mga import MGAFTL
from repro.ftl.victim import IsrVictimPolicy
from repro.nand.block import Block
from repro.sim.ops import Cause
from repro.sim.pricing import op_pricer
from repro.sim.simulator import ClosedLoopReplay, OpenLoopReplay
from repro.sim.timing import TimingModel

#: Functions that run per host request, per flash op or per GC page move.
HOT_PATH = {
    "Block.program_disturb": Block.program_disturb,
    "Block._apply_disturb": Block._apply_disturb,
    "Block.invalidate": Block.invalidate,
    "Block.invalidate_many": Block.invalidate_many,
    "Block.erase": Block.erase,
    "BaseFTL.handle_write": BaseFTL.handle_write,
    "BaseFTL.handle_read": BaseFTL.handle_read,
    "BaseFTL._pseudo_reads": BaseFTL._pseudo_reads,
    "BaseFTL._host_page": BaseFTL._host_page,
    "BaseFTL.alloc_mlc_page": BaseFTL.alloc_mlc_page,
    "BaseFTL._retire": BaseFTL._retire,
    "BaseFTL._land": BaseFTL._land,
    "BaseFTL.program_subpages": BaseFTL.program_subpages,
    "GarbageCollector.maybe_collect": GarbageCollector.maybe_collect,
    "GarbageCollector._drain_step": GarbageCollector._drain_step,
    "RegionAllocator.alloc_page": RegionAllocator.alloc_page,
    "RegionAllocator._pop_free": RegionAllocator._pop_free,
    "RegionAllocator.release": RegionAllocator.release,
    "plan_intra_page_update": plan_intra_page_update,
    "IsrVictimPolicy.select": IsrVictimPolicy.select,
    "BaselineFTL.write": BaselineFTL.write,
    "BaselineFTL._relocate_positional": BaselineFTL._relocate_positional,
    "MGAFTL.write": MGAFTL.write,
    "MGAFTL._pack_capacity": MGAFTL._pack_capacity,
    "MGAFTL._relocate_any": MGAFTL._relocate_any,
    "MGAFTL.gc_finish": MGAFTL.gc_finish,
    "IPUFTL.write": IPUFTL.write,
    "IPUFTL._promotion_target": IPUFTL._promotion_target,
    "IPUFTL._intra_page_update": IPUFTL._intra_page_update,
    "IPUFTL._out_of_place_write": IPUFTL._out_of_place_write,
    "IPUFTL._relocate_slc_page": IPUFTL._relocate_slc_page,
    "IPUFTL._relocate_mlc_page": IPUFTL._relocate_mlc_page,
    "IPUFTL._move_chunk": IPUFTL._move_chunk,
    "DeltaFTL.write": DeltaFTL.write,
    "DeltaFTL._try_delta_append": DeltaFTL._try_delta_append,
    "DeltaFTL._fresh_write": DeltaFTL._fresh_write,
    "DeltaFTL.handle_read": DeltaFTL.handle_read,
    "DeltaFTL._relocate_page": DeltaFTL._relocate_page,
    "OpenLoopReplay.feed": OpenLoopReplay.feed,
    "ClosedLoopReplay.feed": ClosedLoopReplay.feed,
    "FrontendSimulator.feed": FrontendSimulator.feed,
    "FrontendSimulator._issue": FrontendSimulator._issue,
    "FrontendSimulator._flush_span": FrontendSimulator._flush_span,
    "TimingModel.duration_ms": TimingModel.duration_ms,
    "TimingModel.segments_ms": TimingModel.segments_ms,
    "op_pricer": op_pricer,
}

_ATTR_LOADS = {"LOAD_ATTR", "LOAD_METHOD"}
#: ``BlockLevel`` methods that build a new member per call.
_LEVEL_BUILDERS = {"promoted", "demoted"}


def _code_objects(code: types.CodeType):
    """``code`` and every code object nested in it (comprehensions,
    generator expressions and closures run as their own code)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_tax(func) -> list[str]:
    """Every enum class lookup and level construction in ``func``."""
    found = []
    namespace = func.__globals__
    for code in _code_objects(func.__code__):
        ins = list(dis.get_instructions(code))
        for i, instr in enumerate(ins):
            if instr.opname in _ATTR_LOADS and instr.argval in _LEVEL_BUILDERS:
                found.append(f"{code.co_name}: .{instr.argval}() builds a "
                             f"BlockLevel (index PROMOTED/DEMOTED instead)")
            if instr.opname != "LOAD_GLOBAL":
                continue
            # Resolve ``Name`` and module chains such as ``ops.Cause``.
            obj = namespace.get(instr.argval)
            j = i + 1
            while (isinstance(obj, types.ModuleType) and j < len(ins)
                   and ins[j].opname in _ATTR_LOADS):
                obj = getattr(obj, ins[j].argval, None)
                j += 1
            if not (isinstance(obj, type) and issubclass(obj, enum.Enum)):
                continue
            nxt = ins[j] if j < len(ins) else None
            if (nxt is not None and nxt.opname in _ATTR_LOADS
                    and nxt.argval in obj.__members__):
                found.append(f"{code.co_name}: {obj.__name__}.{nxt.argval} "
                             f"is a class-attribute member load (bind it to "
                             f"a module constant)")
            else:
                found.append(f"{code.co_name}: {obj.__name__} looked up to "
                             f"build or test a member")
    return found


@pytest.mark.parametrize("name", sorted(HOT_PATH))
def test_hot_path_has_no_enum_tax(name):
    assert enum_tax(HOT_PATH[name]) == []


class TestDetector:
    """The scan itself must see the patterns on this interpreter, or the
    guard above would pass vacuously."""

    def test_flags_member_load(self):
        def land(cause):
            return cause is Cause.HOST
        assert any("Cause.HOST" in f for f in enum_tax(land))

    def test_flags_member_load_in_comprehension(self):
        def count(ops):
            return sum(1 for op in ops if op.cause is Cause.GC)
        assert any("Cause.GC" in f for f in enum_tax(count))

    def test_flags_level_construction(self):
        def relocate(level):
            return BlockLevel(level).demoted()
        found = enum_tax(relocate)
        assert any("BlockLevel looked up" in f for f in found)
        assert any(".demoted()" in f for f in found)

    def test_module_constant_is_clean(self):
        host = Cause.HOST

        def land(cause):
            return cause is host
        assert enum_tax(land) == []
