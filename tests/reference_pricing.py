"""Reference op pricing: the spec ``repro.sim.pricing`` is checked against.

Pricing one op is two steps: ``TimingModel`` gives its service time and
the chip/channel servers of its block are reserved for it.  The shipped
pricer fuses both into one closure; this module keeps them apart, one
readable step at a time, for ``tests/test_pricing.py`` to compare bit
for bit.
"""

from __future__ import annotations

from repro.sim.resources import ResourceSet


def acquire_for_block(resources: ResourceSet, block_id: int, earliest: float,
                      duration: float) -> tuple[float, float]:
    """Reserve chip and channel together for one flash operation.

    The op starts when both servers are free and occupies both for the
    full duration — a first-order model that slightly over-serialises
    the channel but keeps GC blocking behaviour faithful.
    """
    chip = resources.chip_for_block(block_id)
    channel = resources.channel_for_block(block_id)
    start = max(earliest, chip.next_free, channel.next_free)
    end = start + duration
    chip.next_free = end
    chip.busy_ms += duration
    chip.operations += 1
    channel.next_free = end
    channel.busy_ms += duration
    channel.operations += 1
    return start, end


def reference_reserve(timing, resources: ResourceSet, pipelined: bool,
                      op, when: float) -> float:
    """End time of ``op`` reserved no earlier than ``when``."""
    if pipelined:
        chip_ms, chan_ms, chip_first = timing.segments_ms(op)
        return resources.acquire_pipelined(
            op.block_id, when, chip_ms, chan_ms, chip_first)[1]
    return acquire_for_block(resources, op.block_id, when,
                             timing.duration_ms(op))[1]
