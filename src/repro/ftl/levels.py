"""Block-level labels.

Section 3.1 defines four levels in ascending order: *High-density Block*
(the native MLC region), then the SLC-mode *Work*, *Monitor* and *Hot*
blocks.  New data enters at Work level; every update that overflows its
page promotes the data one level; GC demotes never-updated data one level,
ejecting it to the high-density region once it falls below Work.

Baseline and MGA do not differentiate SLC blocks — they allocate
everything at Work level.
"""

from __future__ import annotations

import enum


class BlockLevel(enum.IntEnum):
    """The paper's three-plus-one level hierarchy (Algorithm 1's block_flag)."""

    HIGH_DENSITY = 0
    WORK = 1
    MONITOR = 2
    HOT = 3

    @property
    def is_slc(self) -> bool:
        """True for levels living in the SLC-mode cache."""
        return self is not BlockLevel.HIGH_DENSITY

    def promoted(self) -> "BlockLevel":
        """Level for data whose update overflowed its page (upgrade move)."""
        return BlockLevel(min(int(self) + 1, int(BlockLevel.HOT)))

    def demoted(self) -> "BlockLevel":
        """Level for never-updated data during GC (degrade move)."""
        return BlockLevel(max(int(self) - 1, int(BlockLevel.HIGH_DENSITY)))


#: ``PROMOTED[level]`` and ``DEMOTED[level]`` are
#: ``BlockLevel(level).promoted()`` and ``.demoted()`` as member tables
#: indexed by the int level: the IPU write and GC paths move data by one
#: level per chunk, and an enum construction per move is measurable there.
PROMOTED: tuple[BlockLevel, ...] = tuple(level.promoted() for level in BlockLevel)
DEMOTED: tuple[BlockLevel, ...] = tuple(level.demoted() for level in BlockLevel)

#: Levels the SLC-mode cache hosts, ascending.
SLC_LEVELS: tuple[BlockLevel, ...] = (
    BlockLevel.WORK, BlockLevel.MONITOR, BlockLevel.HOT,
)
