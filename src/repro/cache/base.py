"""Cache geometry and the simulator interface.

All simulators share :class:`CacheGeometry` (M words, B-word blocks,
optionally ``ways``-associative) and the :class:`CacheModel` interface:
``access(address)`` for a single word and ``access_range(start, length)``
for a contiguous region (a module's state or a slice of a channel buffer).
Ranges are the common case — a firing touches ``s(v)`` contiguous state
words plus short contiguous buffer windows — so ``access_range`` iterates
*blocks*, not words, making simulation cost proportional to block transfers
rather than memory traffic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.cache.stats import CacheStats
from repro.errors import CacheConfigError

__all__ = ["CacheGeometry", "CacheModel"]


@dataclass(frozen=True)
class CacheGeometry:
    """Cache of ``size`` words with ``block`` words per block.

    ``size`` need not be a multiple of ``block`` conceptually, but we require
    it (and positivity) to keep block counting exact: the cache holds exactly
    ``size // block`` blocks.

    ``ways`` is the associativity: ``None`` (the default, and the paper's
    model) means fully associative — replacement may evict any resident
    block.  An explicit ``ways`` splits the frames into ``n_blocks // ways``
    sets indexed by ``block_id % sets``; ``ways=1`` is a direct-mapped
    organization.  Explicit associativity is validated the way hardware
    indexes demand: ``ways`` must divide ``n_blocks`` and the resulting set
    count must be a power of two (set indices are address bits — a non
    power-of-two count would silently mis-map them).
    """

    size: int
    block: int
    ways: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise CacheConfigError(f"cache size must be positive, got {self.size}")
        if self.block <= 0:
            raise CacheConfigError(f"block size must be positive, got {self.block}")
        if self.size % self.block != 0:
            raise CacheConfigError(
                f"cache size {self.size} must be a multiple of block size {self.block}"
            )
        if self.size // self.block < 1:
            raise CacheConfigError("cache must hold at least one block")
        if self.ways is not None:
            n_blocks = self.size // self.block
            if not isinstance(self.ways, int) or self.ways < 1:
                raise CacheConfigError(
                    f"associativity must be a positive integer, got {self.ways!r}"
                )
            if n_blocks % self.ways != 0:
                raise CacheConfigError(
                    f"ways={self.ways} does not divide the frame count "
                    f"n_blocks={n_blocks} (size={self.size} / block={self.block}): "
                    f"sets would be unequal"
                )
            n_sets = n_blocks // self.ways
            if n_sets & (n_sets - 1):
                raise CacheConfigError(
                    f"sets={n_sets} (n_blocks={n_blocks} / ways={self.ways}) "
                    f"is not a power of two — set indices are address bits"
                )

    @property
    def n_blocks(self) -> int:
        return self.size // self.block

    @property
    def sets(self) -> int:
        """Number of sets: 1 when fully associative, ``n_blocks // ways``
        under explicit associativity (``n_blocks`` when direct mapped)."""
        if self.ways is None:
            return 1
        return self.n_blocks // self.ways

    @property
    def associativity(self) -> int:
        """Effective ways per set (``n_blocks`` when fully associative)."""
        if self.ways is None:
            return self.n_blocks
        return self.ways

    @property
    def is_fully_associative(self) -> bool:
        return self.ways is None or self.ways == self.n_blocks

    def conflict_classes(self, policy: str) -> int:
        """Conflict classes ``policy`` splits this cache into, each one
        replayed apart from the others: its sets, that is one per frame when
        direct-mapped (``policy="direct"`` or ``ways=1``) and one when fully
        associative."""
        return self.n_blocks if policy == "direct" else self.sets

    def set_of(self, block: int, sets: Optional[int] = None) -> int:
        """Set index ``block % sets`` a block id maps to.

        ``sets`` overrides the class count (the direct-mapped engines pass
        ``n_blocks`` — every frame its own class); by default it is the
        geometry's own set count.
        """
        return block % (self.sets if sets is None else sets)

    def frame_of(self, block: int) -> int:
        """Frame a block maps to in a direct-mapped reading of this
        geometry (every frame its own conflict class)."""
        return self.set_of(block, sets=self.n_blocks)

    def with_ways(self, ways: Optional[int]) -> "CacheGeometry":
        """This geometry reorganized as ``ways``-associative, its frame
        count snapped *up* to the nearest ``ways * power-of-two`` so the
        set indexing validates.  ``None``/``0`` returns it fully
        associative."""
        if not ways:
            if self.ways is None:
                return self
            return CacheGeometry(size=self.size, block=self.block)
        if not isinstance(ways, int) or ways < 1:
            raise CacheConfigError(
                f"associativity must be a positive integer, got {ways!r}"
            )
        sets = 1
        while sets * ways < self.n_blocks:
            sets *= 2
        return CacheGeometry(size=sets * ways * self.block, block=self.block, ways=ways)

    def block_of(self, address: int) -> int:
        return address // self.block

    def blocks_spanned(self, start: int, length: int) -> range:
        """Block ids covered by the word range [start, start+length)."""
        if length <= 0:
            return range(0)
        return range(start // self.block, (start + length - 1) // self.block + 1)


class CacheModel(ABC):
    """Interface shared by all cache simulators."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.stats = CacheStats()

    @abstractmethod
    def access_block(self, block: int) -> bool:
        """Touch one block; return True on a miss."""

    def access(self, address: int) -> bool:
        """Touch the word at ``address``; return True on a miss."""
        return self.access_block(self.geometry.block_of(address))

    def access_range(self, start: int, length: int) -> int:
        """Touch every block of a contiguous word range; return #misses."""
        misses = 0
        for blk in self.geometry.blocks_spanned(start, length):
            if self.access_block(blk):
                misses += 1
        return misses

    @abstractmethod
    def flush(self) -> None:
        """Empty the cache (does not reset statistics)."""

    @abstractmethod
    def resident_blocks(self) -> int:
        """Number of blocks currently cached (for invariant tests)."""

    def reset(self) -> None:
        """Flush and zero the statistics."""
        self.flush()
        self.stats = CacheStats()
