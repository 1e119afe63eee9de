"""Two-level inclusive cache hierarchy (extension).

The paper analyzes a single cache level; multi-level memory models (Savage's
HMM extension is cited as [24]) behave the same asymptotically when each
level is analyzed independently.  This simulator stacks two LRU levels so
the robustness experiments can confirm that a partition sized for L1 also
reduces L2 traffic, and one sized for L2 still wins at L1 granularity.

Cost accounting: ``stats`` of the hierarchy counts *L2 misses* (transfers
from memory), matching the DAM cost of the larger cache; the embedded level
objects expose their own stats for per-level inspection.

Two engines, one policy name (see ``docs/REPLAY.md``):

* :class:`TwoLevelCache` is the *stepwise* engine of
  ``policy="two_level"`` in :mod:`repro.cache.policy`.  It stays the
  differential-test oracle.
* The *vectorized* engine lives in :mod:`repro.runtime.replay`: an L1 pass
  (stack distances for LRU, a per-frame scan when L1 is direct-mapped)
  emits the miss sub-trace that feeds a second L2 pass — because L2 only
  ever sees L1 misses, one L1 pass amortizes over every L2 capacity.

A hierarchical sweep point is a :class:`TwoLevelGeometry` — a pair of
per-level :class:`~repro.cache.base.CacheGeometry` (each with its own
``ways``/sets organization) sharing one block size, which is what lets a
single compiled block trace drive both levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.base import CacheGeometry, CacheModel
from repro.cache.lru import LRUCache
from repro.errors import CacheConfigError

__all__ = ["TwoLevelCache", "TwoLevelGeometry"]


@dataclass(frozen=True)
class TwoLevelGeometry:
    """An (L1, L2) geometry pair — the sweep point of ``policy="two_level"``.

    Both levels carry full :class:`~repro.cache.base.CacheGeometry`
    organizations (``ways``/sets per level).  The levels must share one
    block size: the replay path drives both levels from a single compiled
    block trace, whose granularity is that block.  L2 must hold at least as
    many frames as L1 (the usual inclusive-capacity requirement, the same
    one :class:`TwoLevelCache` enforces).
    """

    l1: CacheGeometry
    l2: CacheGeometry

    def __post_init__(self) -> None:
        if not isinstance(self.l1, CacheGeometry) or not isinstance(
            self.l2, CacheGeometry
        ):
            raise CacheConfigError(
                f"TwoLevelGeometry needs CacheGeometry levels, got "
                f"l1={self.l1!r}, l2={self.l2!r}"
            )
        if self.l1.block != self.l2.block:
            raise CacheConfigError(
                f"two-level replay needs one block size at both levels "
                f"(one trace drives both); got L1 block {self.l1.block}, "
                f"L2 block {self.l2.block}"
            )
        if self.l2.size < self.l1.size:
            raise CacheConfigError(
                f"L2 ({self.l2.size}) must be at least as large as L1 "
                f"({self.l1.size})"
            )

    @property
    def block(self) -> int:
        """Shared block size (what ``simulate_trace`` validates against)."""
        return self.l1.block

    def describe(self) -> str:
        def org(g: CacheGeometry) -> str:
            if g.is_fully_associative:
                return f"{g.size}w"
            return f"{g.size}w/{g.ways}-way"

        return f"L1={org(self.l1)}, L2={org(self.l2)}"


class TwoLevelCache(CacheModel):
    """L1 (small) in front of L2 (large), both LRU (set-associative when the
    level's geometry carries an explicit ``ways``; ``ways=1`` makes a level
    direct-mapped).

    An access hits L1, else touches L2 (and is installed in both).  The
    top-level ``stats`` mirror L2: ``misses`` are memory transfers, and one
    L2-block consult records one access — when L1 blocks are smaller than
    L2 blocks, the several L1 lines an L2 block fills within one call are
    one transfer, not several (see ``access_range``).
    """

    def __init__(self, l1: CacheGeometry, l2: CacheGeometry) -> None:
        if l2.size < l1.size:
            raise CacheConfigError(
                f"L2 ({l2.size}) must be at least as large as L1 ({l1.size})"
            )
        if l2.block % l1.block != 0:
            # both entry points map each L1 block to a single containing L2
            # block, which only exists when L1 blocks tile L2 blocks exactly
            raise CacheConfigError(
                f"L1 block ({l1.block}) must divide L2 block ({l2.block})"
            )
        super().__init__(l2)
        self.l1 = LRUCache(l1)
        self.l2 = LRUCache(l2)

    def access_block(self, block: int) -> bool:
        # `block` is in units of the *hierarchy* geometry, i.e. L2 blocks.
        # When L1 blocks are smaller, one L2 block covers several L1 blocks
        # and touching it must touch all of them — the same accounting
        # access_range produces for the equivalent word range.
        return self.access_range(block * self.geometry.block, self.geometry.block) > 0

    def access(self, address: int) -> bool:
        # A single word fills one L1 line (plus its containing L2 block),
        # not every L1 line of the L2 block — the range path is the
        # faithful one, so both word entry points go through it.
        return self.access_range(address, 1) > 0

    def access_range(self, start: int, length: int) -> int:
        """Touch a word range at L1 granularity, filtering through to L2.

        One L2-block consult per call is recorded even when it fills
        several L1 lines: the L1 blocks of a range ascend, so all lines of
        one L2 block are consecutive, and after the first L1 miss fetches
        (or confirms) the L2 block, the remaining lines of that block fill
        from it — same transfer, no extra L2 access, no extra top-level
        record.  Recording each fill separately double-counted the access
        as both an L1 miss and a fresh L2 hit.
        """
        if length <= 0:
            return 0
        misses = 0
        consulted = -1  # L2 block fetched/confirmed earlier in this call
        l1_words = self.l1.geometry.block
        l2_words = self.l2.geometry.block
        for l1_blk in self.l1.geometry.blocks_spanned(start, length):
            if self.l1.access_block(l1_blk):
                l2_blk = l1_blk * l1_words // l2_words
                if l2_blk == consulted:
                    continue  # filled from the block this call just touched
                miss = self.l2.access_block(l2_blk)
                self.stats.record(miss)
                consulted = l2_blk
                if miss:
                    misses += 1
            else:
                self.stats.record(False)
        return misses

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()

    def resident_blocks(self) -> int:
        return self.l2.resident_blocks()
