"""Belady's offline-optimal replacement (OPT / MIN) on a recorded trace.

Used by ablation A3 to measure the constant between LRU and the omniscient
policy the paper's lower bounds implicitly allow.  OPT needs the future, so
it runs over a complete block trace (recorded by
:class:`repro.mem.trace.TraceRecorder` or compiled by
:class:`repro.runtime.compiled.TraceCompiler`) rather than online.

The implementation is the standard two-pass algorithm: precompute, for each
trace position, the next position at which the same block is used
(``next_use``), then simulate with a max-heap of (next_use, block) entries,
evicting the block whose next use is farthest.  Lazy deletion keeps the heap
O(log n) per access; stale heap entries are skipped when popped.

This stepwise loop is the *oracle* path (policy ``"opt"`` in
:mod:`repro.cache.policy`); whole geometry sweeps run through the vectorized
OPT stack-distance replay in :mod:`repro.runtime.replay`, which answers
every capacity in one pass.  :func:`next_occurrences` is the vectorized
next-use precomputation both the replay kernel and anything else needing
forward reuse distances share — the argsort trick of
:func:`repro.analysis.misscurve._previous_occurrences`, reversed.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

import numpy as np

from repro.cache.base import CacheGeometry
from repro.cache.stats import CacheStats

__all__ = ["OPTCache", "simulate_opt", "simulate_opt_misses", "next_occurrences"]

_INF = float("inf")


def next_occurrences(blocks: np.ndarray) -> np.ndarray:
    """``nxt[i]`` = first position after ``i`` touching ``blocks[i]``, else ``n``.

    Vectorized via one stable argsort (positions of equal blocks come out
    adjacent and time-ordered) — the mirror image of the previous-occurrence
    pass the stack-distance kernel uses.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = blocks.shape[0]
    nxt = np.full(n, n, dtype=np.int64)
    if n < 2:
        return nxt
    order = np.argsort(blocks, kind="stable")
    sb = blocks[order]
    same = sb[1:] == sb[:-1]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


def _opt_miss_sequence(block_trace: Sequence[int], capacity: int) -> List[bool]:
    """Per-access hit/miss of Belady's OPT with ``capacity`` block frames."""
    n = len(block_trace)
    next_use: List[float] = [0.0] * n
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        blk = block_trace[i]
        next_use[i] = last_seen.get(blk, _INF)
        last_seen[blk] = i

    out: List[bool] = []
    resident: Dict[int, float] = {}  # block -> next use position
    heap: List[tuple] = []  # (-next_use, block); lazy entries

    for i, blk in enumerate(block_trace):
        if blk in resident:
            out.append(False)
        else:
            if len(resident) >= capacity:
                while True:
                    neg_nu, victim = heapq.heappop(heap)
                    # Skip entries that are stale (block gone or next-use
                    # changed since the entry was pushed).
                    if victim in resident and resident[victim] == -neg_nu:
                        del resident[victim]
                        break
            out.append(True)
        resident[blk] = next_use[i]
        heapq.heappush(heap, (-next_use[i], blk))
    return out


def simulate_opt_misses(
    block_trace: Sequence[int], geometry: CacheGeometry
) -> List[bool]:
    """Per-access miss sequence of OPT on ``block_trace`` with this geometry.

    Under explicit associativity, OPT runs independently inside each set
    (block ``b`` in set ``b % sets``, ``ways`` frames per set): the
    offline-optimal *within the organization's mapping constraint*.
    """
    if geometry.is_fully_associative:
        return _opt_miss_sequence(block_trace, geometry.n_blocks)
    per_set: Dict[int, List[int]] = {}
    positions: Dict[int, List[int]] = {}
    for i, blk in enumerate(block_trace):
        s = geometry.set_of(blk)
        per_set.setdefault(s, []).append(blk)
        positions.setdefault(s, []).append(i)
    out: List[bool] = [False] * len(block_trace)
    for s, seq in per_set.items():
        for pos, miss in zip(positions[s], _opt_miss_sequence(seq, geometry.ways)):
            out[pos] = miss
    return out


def simulate_opt(block_trace: Sequence[int], geometry: CacheGeometry) -> CacheStats:
    """Number of misses OPT incurs on ``block_trace`` with this geometry."""
    misses = simulate_opt_misses(block_trace, geometry)
    stats = CacheStats()
    for miss in misses:
        stats.record(miss)
    # every miss beyond a set's capacity evicted something (a set's resident
    # count only grows until full, then each further miss replaces)
    if geometry.is_fully_associative:
        stats.evictions = max(0, stats.misses - geometry.n_blocks)
    else:
        per_set_misses: Dict[int, int] = {}
        for blk, miss in zip(block_trace, misses):
            if miss:
                s = geometry.set_of(blk)
                per_set_misses[s] = per_set_misses.get(s, 0) + 1
        stats.evictions = sum(
            max(0, m - geometry.ways) for m in per_set_misses.values()
        )
    return stats


class OPTCache:
    """Convenience wrapper with the shape of :class:`CacheModel` but batch
    semantics: feed the whole trace, read ``stats``.

    (OPT cannot be an online :class:`CacheModel`: its decisions depend on the
    future of the trace.)
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.stats = CacheStats()

    def run(self, block_trace: Sequence[int]) -> CacheStats:
        self.stats = simulate_opt(block_trace, self.geometry)
        return self.stats
