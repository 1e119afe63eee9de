"""LRU cache — the workhorse simulator, fully or set-associative.

The ideal-cache / DAM analyses in the paper assume an omniscient replacement
policy; LRU with a constant-factor larger cache is within a constant factor
of optimal on every trace (Sleator & Tarjan 1985), so simulating LRU
preserves every asymptotic claim.  Experiment A3 quantifies the LRU-vs-OPT
gap empirically on our traces.

The geometry decides the organization: ``ways=None`` (the paper's model) is
fully associative — one recency order over all ``n_blocks`` frames; an
explicit ``ways`` runs LRU independently inside each of ``geometry.sets``
sets, with blocks mapped by ``block % sets`` (so conflict misses appear,
the robustness experiments' subject).

Implementation: an ``OrderedDict`` per associativity domain, keyed by block
id; ``move_to_end`` gives O(1) touch, ``popitem(last=False)`` O(1) eviction.
This is the standard CPython idiom and is fast enough to run millions of
block touches per second, which bounds all benchmark run times.  The
vectorized counterpart is :mod:`repro.runtime.replay`, which answers whole
geometry sweeps from one compiled trace; this class remains its
differential-test oracle (see :mod:`repro.cache.policy`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import CacheGeometry, CacheModel

__all__ = ["LRUCache"]


class LRUCache(CacheModel):
    """LRU over ``geometry.n_blocks`` block frames.

    Fully associative by default; an explicit ``geometry.ways`` partitions
    the frames into LRU sets of that associativity.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        super().__init__(geometry)
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        if geometry.is_fully_associative:
            self._set_caches = None
        else:
            # one (OrderedDict, capacity) LRU domain per set, looked up by block % sets
            self._set_caches = [OrderedDict() for _ in range(geometry.sets)]
            self._n_sets = geometry.sets
            self._ways = geometry.ways

    def access_block(self, block: int) -> bool:
        if self._set_caches is None:
            resident = self._resident
            capacity = self.geometry.n_blocks
        else:
            resident = self._set_caches[self.geometry.set_of(block)]
            capacity = self._ways
        if block in resident:
            resident.move_to_end(block)
            self.stats.record(False)
            return False
        if len(resident) >= capacity:
            resident.popitem(last=False)
            self.stats.record_eviction()
        resident[block] = None
        self.stats.record(True)
        return True

    def flush(self) -> None:
        self._resident.clear()
        if self._set_caches is not None:
            for s in self._set_caches:
                s.clear()

    def resident_blocks(self) -> int:
        if self._set_caches is None:
            return len(self._resident)
        return sum(len(s) for s in self._set_caches)

    def contains_block(self, block: int) -> bool:
        """Non-mutating residency probe (no recency update, no stats)."""
        if self._set_caches is None:
            return block in self._resident
        return block in self._set_caches[self.geometry.set_of(block)]

    def contains_address(self, address: int) -> bool:
        return self.contains_block(self.geometry.block_of(address))
