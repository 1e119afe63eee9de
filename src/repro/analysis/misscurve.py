"""Miss curves via Mattson stack distances — vectorized.

LRU is a *stack algorithm*: the content of a size-C cache is always a
subset of a size-C' > C cache on the same trace (inclusion).  Mattson's
classic consequence: one pass over a trace yields the miss count for
**every** cache size simultaneously — an access hits in a size-C cache iff
its *stack distance* (number of distinct blocks touched since the previous
access to the same block) is at most C.

This turns the simulator's per-geometry runs into a whole design curve:
``miss_curve(trace)`` gives misses(C) for all C, and experiment E15 plots
the partitioned schedule's curve against the naive schedule's — the
partitioned curve drops to the compulsory floor at C ≈ O(M) (its working
set is one component), while the naive curve stays high until the *entire*
graph fits, which is the paper's whole argument in one figure.

Implementation: fully vectorized in numpy.  Writing ``p_i`` for the
previous occurrence of access ``i``'s block (``-1`` when cold), the stack
distance satisfies

    d_i = (i - p_i) - #{ j < i : p_j > p_i }

because the distinct blocks in the window ``(p_i, i]`` are exactly the
positions whose own previous occurrence falls at or before ``p_i`` (their
first appearance inside the window), and every position ``j`` with
``p_j > p_i`` necessarily lies inside the window (``p_j < j``).  The
correction term is a per-element "count earlier, greater" query, answered
like a wavelet matrix (Claude, Navarro & Ordonez 2015): walk the bits of
``p + 1`` from the top, stably partition the array by each bit (0s first),
and let every 0-bit element count the 1-bit elements ahead of it among the
elements that agree with it on all higher bits.  One prefix sum, one
running maximum and three scatters per bit: O(n log n) total with all
per-element work inside numpy.

The pure-Python Fenwick-tree formulation this replaces survives as
:func:`repro.testing.oracles.reference_stack_distances` and backs the
differential tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "stack_distances",
    "stack_distances_array",
    "miss_curve",
    "misses_at",
    "opt_miss_curve",
    "experiment_e15_miss_curves",
]


def _previous_occurrences(blocks: np.ndarray) -> np.ndarray:
    """``prev[i]`` = last position before ``i`` touching ``blocks[i]``, else -1."""
    n = blocks.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(blocks, kind="stable")  # groups equal blocks, positions ascending
    sb = blocks[order]
    same = sb[1:] == sb[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """``out[i]`` = #{ j < i : values[j] > values[i] } for ``values`` in
    ``[-1, n)``, in O(n log n).

    A pair ``j < i`` with ``values[j] > values[i]`` first differs at one
    bit, where ``j`` has the 1.  The bits of ``values + 1`` are walked from
    the top and the array is stably partitioned by each one, 0s first, so
    before each bit's pass the elements that agree on every higher bit sit
    together, in trace order.  Within such a group each 0-bit element adds
    the 1-bit elements ahead of it: a prefix count of the bit minus that
    count at the group's start, which a running maximum carries across the
    group.  The work arrays are int32 whenever ``n + 1`` fits in one.
    """
    n = values.shape[0]
    out = np.zeros(n, dtype=np.int64)
    if n < 2:
        return out
    dtype = np.int32 if n + 1 < 2**31 else np.int64
    v = values.astype(dtype) + 1
    pos = np.arange(n, dtype=dtype)
    idx = pos.copy()  # original position of each element in current order
    counts = np.zeros(n, dtype=dtype)
    ones = np.zeros(n + 1, dtype=dtype)  # ones[p] = 1-bits before slot p
    before = ones[:-1]
    first = np.ones(n, dtype=bool)  # slot opens a group
    dest = np.empty(n, dtype=np.intp)  # numpy converts other index dtypes per scatter
    for level in range(int(v.max()).bit_length() - 1, -1, -1):
        bit = (v >> level) & 1
        head = v >> (level + 1)
        np.not_equal(head[1:], head[:-1], out=first[1:])
        np.cumsum(bit, out=ones[1:])
        group_ones = np.maximum.accumulate(before * first)
        counts += (before - group_ones) * (1 - bit)
        if level == 0:
            break
        # 0s keep their order at the front, 1s behind them
        zeros_before = pos - before
        np.add(zeros_before, bit * (n - ones[n] + before - zeros_before), out=dest)
        for arr in (v, counts, idx):
            arr[dest] = arr.copy()
    out[idx] = counts
    return out


def stack_distances_array(trace: Sequence[int]) -> np.ndarray:
    """Per-access LRU stack distances as an int64 array; 0 marks cold accesses.

    distance d >= 1 means: d distinct blocks (including this one) were
    touched since the previous access to this block, so the access hits in
    any fully-associative LRU cache holding >= d blocks.  Cold (first)
    accesses miss at every size and are encoded as 0.
    """
    blocks = np.ascontiguousarray(trace, dtype=np.int64)
    n = blocks.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    prev = _previous_occurrences(blocks)
    d = np.arange(n, dtype=np.int64) - prev - _count_earlier_greater(prev)
    d[prev < 0] = 0
    return d


def stack_distances(trace: Sequence[int]) -> List[Optional[int]]:
    """Per-access LRU stack distances; ``None`` marks cold (first) accesses.

    Convenience list form of :func:`stack_distances_array` (the vectorized
    kernel); kept for callers that want the historical ``Optional[int]``
    convention.
    """
    d = stack_distances_array(trace)
    return [None if di == 0 else int(di) for di in d]


def miss_curve(trace: Sequence[int], max_blocks: Optional[int] = None) -> np.ndarray:
    """``curve[c]`` = total LRU misses with a cache of ``c`` blocks.

    ``curve[0]`` is every access; the curve is non-increasing and flattens
    at the compulsory-miss floor (number of distinct blocks).  ``max_blocks``
    truncates the returned array (default: enough to reach the floor).
    """
    d = stack_distances_array(trace)
    finite = d[d > 0]
    max_d = int(finite.max()) if finite.size else 0
    size = (max_blocks if max_blocks is not None else max_d) + 1

    # histogram of hit distances; an access with distance d misses at c < d
    hist = np.bincount(np.minimum(finite, size), minlength=size + 1)
    # hits(c) = # accesses with distance <= c;  misses(c) = n - hits(c)
    hits_cum = np.cumsum(hist[: size + 1])[:size]
    return d.shape[0] - hits_cum  # index c: misses with c blocks (c=0 .. size-1)


def misses_at(trace: Sequence[int], blocks: int) -> int:
    """Misses of a ``blocks``-frame LRU on the trace (via the curve)."""
    curve = miss_curve(trace, max_blocks=blocks)
    idx = min(blocks, len(curve) - 1)
    return int(curve[idx])


def opt_miss_curve(trace: Sequence[int], max_blocks: Optional[int] = None) -> np.ndarray:
    """``curve[c]`` = total OPT (Belady) misses with a cache of ``c`` blocks.

    The OPT twin of :func:`miss_curve`: MIN is also a stack algorithm
    (Mattson 1970), so one truncated priority-stack pass
    (:func:`repro.runtime.replay.opt_stack_distances`) yields per-access OPT
    stack distances and hence the miss count of every capacity at once.
    Same conventions as :func:`miss_curve`: ``curve[0]`` is every access,
    the curve is non-increasing, flattens at the compulsory floor, and
    ``max_blocks`` truncates the returned array (default: enough to reach
    the floor).
    """
    from repro.runtime.replay import opt_stack_distances

    blocks = np.ascontiguousarray(trace, dtype=np.int64)
    n = blocks.shape[0]
    if n == 0:
        return np.zeros((max_blocks or 0) + 1, dtype=np.int64)
    # the floor is reached once every distinct block fits, so that depth
    # always suffices when the caller does not truncate
    distinct = int(np.unique(blocks).shape[0])
    size = (max_blocks if max_blocks is not None else distinct) + 1
    d = opt_stack_distances(blocks, max(1, size - 1))
    finite = d[d > 0]
    hist = np.bincount(np.minimum(finite, size), minlength=size + 1)
    hits_cum = np.cumsum(hist[: size + 1])[:size]
    return n - hits_cum


def experiment_e15_miss_curves(seed: int = 53, n_outputs: int = 400):
    """E15 — whole miss curves for partitioned vs naive schedules.

    Compile each schedule to its block trace once
    (:func:`repro.runtime.compiled.compile_trace` — no stepwise cache
    simulation at all), then read misses at EVERY cache size from the stack
    distances.  The paper's argument as a single figure: the partitioned
    schedule's curve collapses to its compulsory floor once the cache holds
    one component (~O(M)); the naive schedule's curve stays high until the
    entire graph fits.  Rows sample the curves at geometrically spaced
    sizes.  The OPT overlay (:func:`opt_miss_curve` on the same two traces)
    bounds how much an omniscient replacement policy could recover: the
    partitioned schedule tracks its own OPT closely — the scheduling, not
    the replacement policy, removed the misses.
    """
    from repro.cache.base import CacheGeometry
    from repro.core.baselines import interleaved_schedule
    from repro.core.partition_sched import (
        component_layout_order,
        pipeline_dynamic_schedule,
    )
    from repro.core.pipeline import optimal_pipeline_partition
    from repro.graphs.topologies import pipeline as make_pipeline
    from repro.runtime.compiled import compile_trace

    g = make_pipeline([32] * 12)  # 384 words of state
    M = 128
    B = 8
    part = optimal_pipeline_partition(g, M, c=1.0)
    geom = CacheGeometry(size=M, block=B)  # partition granularity only; traces are size-independent

    def record(schedule, order=None):
        return compile_trace(g, schedule, B, layout_order=order).blocks

    part_trace = record(
        pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs),
        order=component_layout_order(part),
    )
    naive_trace = record(interleaved_schedule(g, n_iterations=n_outputs))

    sample_blocks = (4, 8, 16, 24, 32, 48, 64, 96, 128)
    part_curve = miss_curve(part_trace)
    naive_curve = miss_curve(naive_trace)
    part_opt = opt_miss_curve(part_trace, max_blocks=max(sample_blocks))
    naive_opt = opt_miss_curve(naive_trace, max_blocks=max(sample_blocks))

    rows = []
    for blocks in sample_blocks:
        words = blocks * B
        p = int(part_curve[min(blocks, len(part_curve) - 1)])
        nv = int(naive_curve[min(blocks, len(naive_curve) - 1)])
        rows.append(
            {
                "cache_words": words,
                "cache_over_M": round(words / M, 2),
                "partitioned_misses": p,
                "naive_misses": nv,
                "partitioned_opt": int(part_opt[min(blocks, len(part_opt) - 1)]),
                "naive_opt": int(naive_opt[min(blocks, len(naive_opt) - 1)]),
                "naive_over_partitioned": round(nv / p, 2) if p else float("inf"),
            }
        )
    return rows
