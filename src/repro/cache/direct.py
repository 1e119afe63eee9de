"""Direct-mapped cache — a hardware-flavoured extension.

The paper's model is fully associative; real L1 caches are set-associative
or direct mapped, where *conflict misses* appear.  We provide a direct-mapped
simulator so the robustness experiments can show that the partitioned
schedule's advantage survives (and conflict misses mostly wash out because
the layout packs each component contiguously).

This is the ``ways=1`` corner of the associativity spectrum: every frame is
its own set.  A plain geometry (``ways=None``) is accepted for backward
compatibility and treated as direct mapped over all ``n_blocks`` frames; a
geometry claiming any other associativity is rejected.  The vectorized
counterpart — one per-set last-block scan answering a whole sweep — lives in
:mod:`repro.runtime.replay`; this class remains its oracle.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.base import CacheGeometry, CacheModel
from repro.errors import CacheConfigError

__all__ = ["DirectMappedCache"]


class DirectMappedCache(CacheModel):
    """Each block maps to one frame (``block % n_blocks``); a frame holds
    one block."""

    def __init__(self, geometry: CacheGeometry) -> None:
        if geometry.ways not in (None, 1):
            raise CacheConfigError(
                f"direct-mapped cache needs ways=1 (or an unspecified "
                f"associativity), got ways={geometry.ways}"
            )
        super().__init__(geometry)
        self._frames: Dict[int, int] = {}

    def access_block(self, block: int) -> bool:
        frame = self.geometry.frame_of(block)
        current = self._frames.get(frame)
        if current == block:
            self.stats.record(False)
            return False
        if current is not None:
            self.stats.record_eviction()
        self._frames[frame] = block
        self.stats.record(True)
        return True

    def flush(self) -> None:
        self._frames.clear()

    def resident_blocks(self) -> int:
        return len(self._frames)

