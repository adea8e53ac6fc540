"""The IPU scheme (Section 3, Algorithm 1).

Write path, per logical-page chunk:

* **new data** -> a fresh page in a *Work* block (Algorithm 1 line 5),
* **update that fits its page** -> partial-programmed into the free slots
  of the page holding the previous version; the old slots are invalidated
  first, so in-page disturb only touches obsolete data (lines 6-9),
* **update that overflows** -> a fresh page one block-level up
  (Work -> Monitor -> Hot; line 11), which is what identifies hot data.

GC uses the ISR victim policy (Equations 1-2) and the *degraded* movement
rule (lines 14-19): pages whose resident data was updated while in the
victim move to a same-level block (they proved hot); never-updated pages
move one level down, falling out of the SLC cache into the high-density
region once they drop below Work level.
"""

from __future__ import annotations

from ..nand.block import Block
from ..nand.geometry import PPA
from ..sim.ops import Cause, OpRecord
from ..ftl.base import BaseFTL
from ..ftl.levels import DEMOTED, PROMOTED, BlockLevel
from ..units import Lsn, Ms
from ..ftl.victim import IsrVictimPolicy, VictimPolicy
from .intra_page import plan_intra_page_update

# Enum members used per request or per op, bound once (see
# docs/PERFORMANCE.md, "Enum members and level arithmetic on the hot path").
_HOST = Cause.HOST
_WORK = BlockLevel.WORK


class IPUFTL(BaseFTL):
    """Intra-page update with three-level hot/cold separation."""

    scheme_name = "ipu"
    uses_partial_programming = True

    def _make_slc_policy(self) -> VictimPolicy:
        return IsrVictimPolicy(refresh_ms=self.config.reliability.isr_refresh_ms)

    def _promotion_target(self, current_level: int) -> BlockLevel:
        """Level an overflowing update moves to (hook for ablations)."""
        return PROMOTED[current_level]

    # -- write path -------------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        lookup = self.subpage_map.lookup
        get_block = self.flash.blocks.__getitem__
        max_pp = self.config.reliability.max_page_programs
        for chunk in self.chunks_by_lpn(lsns):
            mappings = [lookup(lsn) for lsn in chunk]
            plan = plan_intra_page_update(
                chunk, mappings,
                get_block=get_block,
                max_page_programs=max_pp,
            )
            if plan is not None:
                ops.append(self._intra_page_update(chunk, mappings, plan, now))
                continue
            ops.extend(self._out_of_place_write(chunk, mappings, now))
        return ops

    def _intra_page_update(self, chunk: list[int], mappings: list[PPA | None],
                           plan, now: Ms) -> OpRecord:
        """Algorithm 1 lines 6-9: update inside the same page."""
        # Invalidate first: the partial pass then disturbs no live data
        # inside the page.
        self._retire(chunk, mappings)
        op = self._land(self.flash.blocks[plan.block_id], plan.page,
                        list(plan.target_slots), chunk, now, _HOST)
        # A program failure may have remapped the update out of place;
        # the hotness mark belongs to the actual destination.
        self.flash.blocks[op.block_id].mark_page_updated(op.page)
        self.stats.intra_page_updates += 1
        self.stats.update_writes += 1
        return op

    def _out_of_place_write(self, chunk: list[int], mappings: list[PPA | None],
                            now: Ms) -> list[OpRecord]:
        """Algorithm 1 lines 4-5 and 10-11: fresh page, possibly upgraded."""
        ops: list[OpRecord] = []
        mapped = [m for m in mappings if m is not None]
        if mapped:
            self.stats.update_writes += 1
            current = max(
                (self.flash.block(m.block).level or 0) for m in mapped)
            target = self._promotion_target(current)
            self.stats.upgrade_moves += 1
        else:
            self.stats.new_data_writes += 1
            target = _WORK

        self._retire(chunk, mappings)
        block, page = self._host_page(target, now, ops)
        ops.append(self._land(block, page, list(range(len(chunk))), chunk,
                              now, _HOST))
        return ops

    # -- GC movement (degraded data movement, lines 14-19) -----------------------------

    def _relocate_slc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        level = victim.level
        if level is None:
            level = _WORK
        target = level if victim.page_updated[page] else DEMOTED[level]
        ops: list[OpRecord] = []

        if target:  # an SLC level (BlockLevel.is_slc)
            # Same-level (hot) or one-level-down (cold) SLC destination.
            # No recursive GC here: if the pool is dry the data falls
            # through to the high-density region.
            res = self.slc_alloc.alloc_page(int(target), now, for_gc=True)
            if res is not None:
                return self._move_chunk(victim, page, slots, lsns, res, now, cause)
        self.stats.evicted_subpages_to_mlc += len(slots)
        res = self.alloc_mlc_page(now, ops, for_gc=True)
        ops.extend(self._move_chunk(victim, page, slots, lsns, res, now, cause))
        return ops

    def _relocate_mlc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        ops: list[OpRecord] = []
        res = self.alloc_mlc_page(now, ops, for_gc=True)
        ops.extend(self._move_chunk(victim, page, slots, lsns, res, now, cause))
        return ops

    def _move_chunk(self, victim: Block, page: int, slots: list[int],
                    lsns: list[Lsn], dest: tuple[Block, int], now: Ms,
                    cause: Cause) -> list[OpRecord]:
        """Program one page's valid data compactly at the destination.

        The destination page keeps the extent-grouped layout (slots 0..k),
        so future updates of the data can still use intra-page programming,
        and the new page starts with a clean ``page_updated`` flag — a
        relocated page must prove its hotness again before the next GC.
        """
        block, npage = dest
        self.flash.invalidate_many(victim.block_id, page, slots)
        return [self._land(block, npage, list(range(len(lsns))), lsns,
                           now, cause)]
