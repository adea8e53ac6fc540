"""FTL framework and the comparison schemes.

* :mod:`repro.ftl.base` — shared plumbing: subpage map, read path,
  allocation, the write-placement primitive, GC wiring, statistics.
* :mod:`repro.ftl.baseline` — *Baseline*: a fresh page per write chunk at
  positional slots, no partial programming.
* :mod:`repro.ftl.mga` — *MGA* (Feng et al., DATE'17): subpage-granularity
  two-level mapping; small writes from different requests are packed into
  one SLC page with partial programming.
* :mod:`repro.ftl.delta` — *Delta* (Zhang et al., FAST'16): in-place delta
  compression beside live originals.

The paper's own scheme lives in :mod:`repro.core`.
"""

from .mapping import SubpageMap
from .allocator import RegionAllocator
from .hotcold import block_isr, coldness_weight
from .victim import GreedyVictimPolicy, IsrVictimPolicy, VictimPolicy
from .gc import GarbageCollector
from .base import BaseFTL
from .baseline import BaselineFTL
from .mga import MGAFTL
from .delta import DeltaFTL

__all__ = [
    "SubpageMap",
    "RegionAllocator",
    "block_isr",
    "coldness_weight",
    "VictimPolicy",
    "GreedyVictimPolicy",
    "IsrVictimPolicy",
    "GarbageCollector",
    "BaseFTL",
    "BaselineFTL",
    "MGAFTL",
    "DeltaFTL",
]
