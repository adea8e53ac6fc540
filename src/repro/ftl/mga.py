"""*MGA* — Mapping Granularity Adaptive FTL (Feng et al., DATE'17).

The most-related comparison scheme: subpage-granularity mapping plus
partial programming used for *space packing*.  Small writes — no matter
which request they belong to — are appended to the current pack page of
the SLC cache; every append is another program pass over an
already-programmed page, so the resident valid subpages and the
neighbouring pages absorb program disturb (the effect IPU eliminates).

Packing drives page utilisation to ~100% (Figure 9) at the cost of the
largest mapping table (two-level, Figure 11) and the highest read error
rate (Figure 8).
"""

from __future__ import annotations

from ..config import SSDConfig
from ..nand.block import Block, BlockState
from ..nand.flash import FlashArray
from ..sim.ops import Cause, OpRecord
from .base import SECOND_LEVEL_KEY_BASE, BaseFTL
from .levels import BlockLevel
from ..units import Lsn, Ms
from .victim import GreedyVictimPolicy, VictimPolicy

# Enum members used per request or per op, bound once (see
# docs/PERFORMANCE.md, "Enum members and level arithmetic on the hot path").
_HOST = Cause.HOST
_OPEN = BlockState.OPEN
_FULL = BlockState.FULL
_WORK = BlockLevel.WORK


class MGAFTL(BaseFTL):
    """Subpage-packing FTL with partial programming."""

    scheme_name = "mga"
    uses_partial_programming = True

    def __init__(self, config: SSDConfig, flash: FlashArray | None = None):
        super().__init__(config, flash)
        #: Current pack target: (block_id, page) accepting more subpages.
        self._pack: tuple[int, int] | None = None
        #: Subpages awaiting eviction packing during GC (list keeps
        #: order, set gives O(1) membership for the write-path check).
        self._evict_buffer: list[int] = []
        self._evict_pending: set[int] = set()

    def _make_mlc_policy(self) -> VictimPolicy:
        # MGA repacks evictions compactly, so freed space really is the
        # subpage count: plain greedy is the right metric.
        return GreedyVictimPolicy()

    # -- translation -----------------------------------------------------

    def translation_keys(self, lsns: list[Lsn]) -> list[int]:
        """MGA pages in second-level subpage entries on top of the
        first-level page map (the translation cost of its packing)."""
        keys = super().translation_keys(lsns)
        keys.extend(SECOND_LEVEL_KEY_BASE + lsn for lsn in lsns)
        return keys

    # -- pack cursor -------------------------------------------------------

    def _pack_capacity(self) -> tuple[Block, int, list[int]] | None:
        """Free slots of the current pack page, if it can take another pass."""
        if self._pack is None:
            return None
        block_id, page = self._pack
        block = self.flash.block(block_id)
        state = block.state
        if state is not _OPEN and state is not _FULL:
            return None
        if page >= block.next_page:
            return None  # block was erased and reused
        if block.pass_counts[page] >= self.config.reliability.max_page_programs:
            return None
        free = block.free_slots_of_page(page)
        if not free:
            return None
        return block, page, free

    # -- write path -----------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        lookup = self.subpage_map.lookup
        if any(lookup(lsn) is not None for lsn in lsns):
            self.stats.update_writes += 1
        else:
            self.stats.new_data_writes += 1
        pending = self._evict_pending
        if pending:
            for lsn in lsns:
                if lsn in pending:
                    # The subpage sits in the eviction buffer of a
                    # partially drained victim (its slot is already
                    # invalid); the incoming write obsoletes it, so it
                    # must not be flushed (that would resurrect stale
                    # data).
                    pending.discard(lsn)
                    self._evict_buffer.remove(lsn)
                    self.subpage_map.unbind(lsn)
        self._retire(lsns, [lookup(lsn) for lsn in lsns])

        spp = self.geometry.subpages_per_page
        max_pp = self.config.reliability.max_page_programs
        blocks = self.flash.blocks
        spilled = False
        remaining = list(lsns)
        while remaining:
            cap = self._pack_capacity()
            if cap is not None:
                block, page, free = cap
            else:
                if spilled:
                    block, page = self.alloc_mlc_page(now, ops)
                else:
                    # A dry cache spills the rest of the request to
                    # fully-packed high-density pages.
                    block, page = self._host_page(_WORK, now, ops)
                    spilled = not block.is_slc
                free = list(range(spp))

            take = min(len(free), len(remaining))
            chunk, remaining = remaining[:take], remaining[take:]
            op = self._land(block, page, free[:take], chunk, now, _HOST)
            ops.append(op)
            # Pack state follows the actual target of a remapped pulse.
            block = blocks[op.block_id]
            page = op.page
            if (not block.is_slc or block.page_programmed[page] == block.spp
                    or block.pass_counts[page] >= max_pp):
                # Packing (a partial-programming feature) cannot continue
                # in the high-density region or on a closed page.
                self._pack = None
            else:
                self._pack = (block.block_id, page)
        return ops

    # -- GC movement -------------------------------------------------------------

    def _relocate_any(self, victim: Block, page: int, slots: list[int],
                      lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        """Queue valid subpages for packed eviction to the MLC region."""
        self.flash.invalidate_many(victim.block_id, page, slots)
        self._evict_buffer.extend(lsns)
        self._evict_pending.update(lsns)
        return []

    def _relocate_slc_page(self, victim, page, slots, lsns, now, cause):
        self.stats.evicted_subpages_to_mlc += len(slots)
        return self._relocate_any(victim, page, slots, lsns, now, cause)

    def _relocate_mlc_page(self, victim, page, slots, lsns, now, cause):
        return self._relocate_any(victim, page, slots, lsns, now, cause)

    def gc_finish(self, now: Ms, cause: Cause) -> list[OpRecord]:
        """Program buffered evictions into fully-packed MLC pages (the
        collectors' pre-erase hook, also run after a fault reclaim)."""
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        while self._evict_buffer:
            group = self._evict_buffer[:spp]
            del self._evict_buffer[:spp]
            block, page = self.alloc_mlc_page(now, ops, for_gc=True)
            ops.append(self._land(block, page, list(range(len(group))), group,
                                  now, cause))
            self._evict_pending.difference_update(group)
        return ops
