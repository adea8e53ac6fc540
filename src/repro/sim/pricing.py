"""Op pricing: reserve one flash op on its chip/channel pair.

Every replay driver — open loop, closed loop and the front-end — prices
the ops an FTL call returns the same way: :class:`TimingModel` gives the
op's service time and :class:`ResourceSet` reserves the chip and channel
servers of its block.  :func:`op_pricer` fuses the two into one closure
``reserve(op, when) -> end`` with the table lookups hoisted into cells,
because replay prices every op and the two method frames per op are
measurable.  The arithmetic is that of ``TimingModel.duration_ms``
followed by one joint chip+channel reservation for the full duration
(serial bus), or of ``TimingModel.segments_ms`` and
``ResourceSet.acquire_pipelined`` (pipelined bus), in the same order,
so prices are bit-identical; ``tests/reference_pricing.py`` keeps the
two steps apart as the reference.

A closure cannot be pickled, so a driver that is checkpointed with a
pricer on ``self`` holds an :class:`OpPricer`, which pickles as its
inputs and rebuilds the closure on load.
"""

from __future__ import annotations

from typing import Callable

from ..units import Ms
from .ops import OpKind, OpRecord
from .resources import ResourceSet
from .timing import TimingModel

#: ``reserve(op, when)``: reserve ``op`` no earlier than ``when``;
#: returns the time it ends.
Reserve = Callable[[OpRecord, Ms], Ms]

# Enum members used per request or per op, bound once (see
# docs/PERFORMANCE.md, "Enum members and level arithmetic on the hot path").
_ERASE = OpKind.ERASE
_PROGRAM = OpKind.PROGRAM


def op_pricer(timing: TimingModel, resources: ResourceSet,
              pipelined: bool) -> Reserve:
    """Build the ``reserve(op, when) -> end`` closure for one device."""
    if pipelined:
        segments_ms = timing.segments_ms
        acquire_pipelined = resources.acquire_pipelined

        def reserve_pipelined(op: OpRecord, when: Ms) -> Ms:
            chip_ms, chan_ms, chip_first = segments_ms(op)
            return acquire_pipelined(
                op.block_id, when, chip_ms, chan_ms, chip_first)[1]
        return reserve_pipelined

    pair = resources._pair
    erase_ms = timing._erase_ms
    transfer_unit = timing._transfer
    read_ms = timing._read
    write_ms = timing._write
    erase_kind = _ERASE
    program_kind = _PROGRAM

    def reserve(op: OpRecord, when: Ms) -> Ms:
        kind = op.kind
        if kind is erase_kind:
            duration = erase_ms
        else:
            transfer = transfer_unit * (op.transfer_slots or op.n_slots)
            if kind is program_kind:
                duration = transfer + write_ms[op.is_slc]
            else:
                duration = read_ms[op.is_slc] + transfer + op.ecc_ms
        chip, channel = pair[op.block_id]
        # max(when, chip.next_free, channel.next_free), first maximum kept.
        start = when
        if chip.next_free > start:
            start = chip.next_free
        if channel.next_free > start:
            start = channel.next_free
        end = start + duration
        chip.next_free = end
        chip.busy_ms += duration
        chip.operations += 1
        channel.next_free = end
        channel.busy_ms += duration
        channel.operations += 1
        return end
    return reserve


class OpPricer:
    """A picklable :func:`op_pricer`: ``reserve`` is the closure."""

    __slots__ = ("timing", "resources", "pipelined", "reserve")

    def __init__(self, timing: TimingModel, resources: ResourceSet,
                 pipelined: bool):
        self.timing = timing
        self.resources = resources
        self.pipelined = pipelined
        self.reserve = op_pricer(timing, resources, pipelined)

    def __reduce__(self):
        return OpPricer, (self.timing, self.resources, self.pipelined)
