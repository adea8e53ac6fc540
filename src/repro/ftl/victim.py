"""GC victim-selection policies.

* :class:`GreedyVictimPolicy` — the conventional policy (Baseline, MGA,
  and both schemes' high-density region): pick the block that frees the
  most space.
* :class:`GreedyPageVictimPolicy` — greedy on reclaimable *whole pages*,
  for schemes whose GC moves pages one-to-one without compaction.
* :class:`IsrVictimPolicy` — IPU's policy: pick the block with the largest
  invalid-subpage ratio including the coldness weight of Equation 2, so
  blocks full of cold valid data are preferred and their data gets sifted
  down the level hierarchy.

Every policy offers two equivalent selection paths:

* ``select(candidates, now)`` — the naive reference scan over an explicit
  candidate list.  Kept deliberately simple; the property tests
  (``tests/test_victim_properties.py``) use it as the ground truth.
* ``select_indexed(index, now)`` — the fast path over a
  :class:`~repro.ftl.allocator.VictimIndex`, whose incrementally-maintained
  score arrays turn a selection into O(dirty) patches plus one vectorised
  ``argmax``.  Both paths return the same block for the same device state.

**Tie-breaking rule (all policies):** among candidates with the same best
score, the lowest ``block_id`` wins, regardless of candidate iteration
order.  The indexed path gets this for free — ``np.argmax`` returns the
*first* maximum of the ascending-``block_id`` score array — and the naive
scan implements it explicitly.

**Scan-cost accounting** is split into two channels so the host-side
optimisation cannot distort the paper's Figure 12:

* ``scan_seconds`` — measured host wall time (:func:`time.perf_counter`),
  a nondeterministic diagnostic;
* ``scanned_blocks`` / ``modelled_scan_ms`` — the *modelled* cost of the
  scan the device firmware would perform: every candidate block examined
  is charged a per-block constant (ISR pays more per block, it reads the
  stored 4-byte IS' record of Section 4.4.1 on top of the invalid
  counter).  This count is deterministic and independent of how fast the
  simulator happens to evaluate the scan.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..nand.block import Block
from .hotcold import block_age_sum, block_coldness
from ..units import Ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (allocator imports us)
    from .allocator import VictimIndex

#: Modelled firmware cost of examining one candidate in a greedy scan
#: (read one on-chip counter, one compare).
MODELLED_SCAN_NS_PER_BLOCK_GREEDY = 100.0
#: ISR additionally reads the stored 4-byte IS' record per block
#: (Section 4.4.1), modelled at 2.5x the greedy per-block cost.
MODELLED_SCAN_NS_PER_BLOCK_ISR = 250.0


class VictimPolicy(Protocol):
    """Selects one victim from fully-programmed candidate blocks."""

    #: Accumulated selection wall time (seconds) and scan count.
    scan_seconds: float
    scans: int
    #: Deterministic count of candidate blocks examined over all scans.
    scanned_blocks: int

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        """Return the victim, or None when no candidate is worth collecting."""
        ...  # pragma: no cover

    def select_indexed(self, index: "VictimIndex", now: Ms) -> Block | None:
        """Same selection served from the incremental victim index."""
        ...  # pragma: no cover


class _ScanAccounting:
    """Shared wall-time + modelled-cost bookkeeping."""

    #: Per-block modelled scan cost; subclasses override.
    modelled_ns_per_block = MODELLED_SCAN_NS_PER_BLOCK_GREEDY

    def __init__(self):
        self.scan_seconds = 0.0
        self.scans = 0
        self.scanned_blocks = 0

    @property
    def modelled_scan_ms(self) -> float:
        """Deterministic modelled scan cost over all selections (Figure 12)."""
        return self.scanned_blocks * self.modelled_ns_per_block * 1e-6


class GreedyVictimPolicy(_ScanAccounting):
    """Pick the block with the most reclaimable subpages.

    Ties on the score are broken to the **lowest** ``block_id``, whatever
    order the candidates arrive in, so selection is a pure function of
    device state.
    """

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        best: Block | None = None
        best_score = 0
        for block in candidates:
            score = block.reclaimable_subpages
            if score > best_score or (score == best_score and best is not None
                                      and score > 0 and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0 else None

    def select_indexed(self, index: "VictimIndex", now: Ms) -> Block | None:
        start = time.perf_counter()
        blocks = index.refresh()
        best: Block | None = None
        if blocks:
            scores = index.total_sp_arr - index.n_valid_arr
            i = int(np.argmax(scores))  # first max == lowest block_id
            if scores[i] > 0:
                best = blocks[i]
        self.scans += 1
        self.scanned_blocks += len(blocks)
        self.scan_seconds += time.perf_counter() - start
        return best


class GreedyPageVictimPolicy(_ScanAccounting):
    """Pick the block that frees the most whole pages.

    The right greedy metric for schemes whose GC moves pages one-to-one
    without compaction (Baseline's positional layout, IPU's extent-grouped
    pages): a page with any valid slot costs a full destination page, so
    only fully-invalid (or never-programmed) pages actually free space.

    Ties are broken to the lowest ``block_id`` regardless of candidate
    iteration order.
    """

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        best: Block | None = None
        best_score = 0
        for block in candidates:
            score = block.pages - block.pages_with_valid
            if score > best_score or (score == best_score and best is not None
                                      and score > 0 and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0 else None

    def select_indexed(self, index: "VictimIndex", now: Ms) -> Block | None:
        start = time.perf_counter()
        blocks = index.refresh()
        best: Block | None = None
        if blocks:
            scores = index.pages_free_arr
            i = int(np.argmax(scores))  # first max == lowest block_id
            if scores[i] > 0:
                best = blocks[i]
        self.scans += 1
        self.scanned_blocks += len(blocks)
        self.scan_seconds += time.perf_counter() - start
        return best


class IsrVictimPolicy(_ScanAccounting):
    """Pick the block with the largest ISR (Equations 1 and 2).

    ``T`` is the region-wide mean age of valid subpages (see
    :mod:`repro.ftl.hotcold`).  Mirrors the paper's stored-IS' design
    (Section 4.4.1 keeps a 4-byte IS' record per SLC page): per-block age
    sums and coldness terms are cached and only recomputed when the
    block's content changed or the cached value is older than
    ``refresh_ms``, so a GC scan is one comparison per block instead of
    one Equation-2 evaluation per subpage.  (Equation 2 itself is
    evaluated as one vectorised ``np.exp`` over the block's subpages when
    a cache entry does need recomputing; batching *across* blocks would
    change summation grouping and is deliberately avoided to keep results
    byte-identical to the scalar reference.)

    Ties on the ISR score are broken to the lowest ``block_id`` regardless
    of candidate iteration order.
    """

    modelled_ns_per_block = MODELLED_SCAN_NS_PER_BLOCK_ISR

    def __init__(self, refresh_ms: float = 100.0):
        super().__init__()
        self.refresh_ms = refresh_ms
        #: block_id -> (content_epoch, computed_at, age_sum, n_valid)
        self._age_cache: dict[int, tuple[int, float, float, int]] = {}
        #: block_id -> (content_epoch, computed_at, t_mean, coldness)
        self._cold_cache: dict[int, tuple[int, float, float, float]] = {}

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        refresh_ms = self.refresh_ms
        # Both stored-IS' cache lookups are inlined: this loop runs once
        # per candidate per GC scan, the largest cost of a replay at scale.
        age_cache = self._age_cache
        total_age = 0.0
        total_count = 0
        for block in candidates:
            cached = age_cache.get(block.block_id)
            if (cached is not None and cached[0] == block.content_epoch
                    and now - cached[1] <= refresh_ms):
                epoch, at, age_sum, count = cached
                # Ages grow linearly with the clock: shift the cached sum.
                age_sum = age_sum + count * (now - at)
            else:
                age_sum, count = block_age_sum(block, now)
                age_cache[block.block_id] = (
                    block.content_epoch, now, age_sum, count)
            total_age += age_sum
            total_count += count
        t_mean = total_age / total_count if total_count else 0.0

        cold_cache = self._cold_cache
        best: Block | None = None
        best_score = 0.0
        for block in candidates:
            cached = cold_cache.get(block.block_id)
            if (cached is not None and cached[0] == block.content_epoch
                    and now - cached[1] <= refresh_ms
                    and abs(t_mean - cached[2]) <= 0.25 * max(cached[2], 1e-9)):
                coldness = cached[3]
            else:
                coldness = block_coldness(block, now, t_mean)
                cold_cache[block.block_id] = (
                    block.content_epoch, now, t_mean, coldness)
            # ``pages * spp`` is ``total_subpages`` without the property frame.
            score = (block.n_invalid + coldness) / (block.pages * block.spp)
            if score > best_score or (score == best_score and best is not None
                                      and score > 0.0
                                      and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0.0 else None

    def select_indexed(self, index: "VictimIndex", now: Ms) -> Block | None:
        # The index supplies the candidate set without an O(region) state
        # scan; the ISR accumulation itself must stay the sequential
        # scalar loop (identical float-summation order) and already runs
        # in O(candidates) dictionary hits thanks to the stored-IS' cache.
        return self.select(index.candidates(), now)
