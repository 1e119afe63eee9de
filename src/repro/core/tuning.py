"""Batch-granularity and buffer-size tuning (Section 3).

The inhomogeneous partition scheduler works at a granularity of ``T`` source
firings, where ``T`` must satisfy (paper, "Scheduling inhomogeneous
graphs"): for every edge ``(u, v)``, the batch traffic ``T * gain(u, v)`` is
integral, divisible by both ``out(u, v)`` and ``in(u, v)``, and at least
``M``.  Choosing ``T = k * r(s)`` — a multiple of the source's repetition
count — satisfies the divisibility requirements automatically, because one
iteration moves ``r(u) * out(u, v) = r(v) * in(u, v)`` tokens across every
channel; ``k`` then scales batch traffic past ``M``.

:func:`choose_batch` computes the smallest such ``k`` (optionally requiring
the >=M condition only on a partition's cross edges, which the cache bound
actually needs — the strict per-paper "every edge" variant is available for
fidelity experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Iterable, Optional

from repro.cache.base import CacheGeometry
from repro.core.partition import Partition
from repro.errors import GraphError
from repro.graphs.repetition import iteration_tokens, repetition_vector
from repro.graphs.sdf import StreamGraph

__all__ = ["BatchPlan", "choose_batch", "cross_capacities", "augmented_geometry", "required_geometry"]


@dataclass(frozen=True)
class BatchPlan:
    """One high-level batch of the inhomogeneous scheduler.

    Attributes
    ----------
    k:
        Number of graph iterations per batch.
    source_fires:
        ``T``: source firings per batch (= ``k * r(source)``).
    fires:
        Firings of every module per batch (= ``k * r(v)``).
    channel_tokens:
        Tokens crossing each channel per batch (= ``k *`` iteration tokens);
        this is both the required cross-edge buffer capacity and the batch
        traffic ``T * gain(u, v)`` of the paper.
    """

    k: int
    source_fires: int
    fires: Dict[str, int]
    channel_tokens: Dict[int, int]


def choose_batch(
    graph: StreamGraph,
    cache_size: int,
    cross_cids: Optional[Iterable[int]] = None,
) -> BatchPlan:
    """Smallest batch satisfying the Section-3 conditions.

    ``cross_cids`` restricts the ``>= M`` traffic requirement to those
    channels (a partition's cross edges); ``None`` applies it to every
    channel, exactly as the paper states it.
    """
    reps = repetition_vector(graph)
    iter_tok = iteration_tokens(graph, reps)
    sources = graph.sources()
    if len(sources) != 1:
        raise GraphError(f"batch tuning requires a single source, found {sources}")
    source = sources[0]

    relevant = list(cross_cids) if cross_cids is not None else list(iter_tok)
    if relevant:
        min_traffic = min(iter_tok[cid] for cid in relevant)
        k = max(1, ceil(cache_size / min_traffic))
    else:
        # No cross edges (single-component partition): one iteration per
        # batch is enough; nothing needs amortizing across components.
        k = 1
    return BatchPlan(
        k=k,
        source_fires=k * reps[source],
        fires={name: k * r for name, r in reps.items()},
        channel_tokens={cid: k * t for cid, t in iter_tok.items()},
    )


def cross_capacities(partition: Partition, plan: BatchPlan) -> Dict[int, int]:
    """Buffer capacities for a partition's cross edges under ``plan``:
    exactly the batch traffic ``T * gain(u, v)`` of each cross edge, plus
    its delay (the tokens already on the edge when a batch lands)."""
    return {
        ch.cid: plan.channel_tokens[ch.cid] + ch.delay
        for ch in partition.cross_channels()
    }


def required_geometry(
    partition: Partition,
    geometry: CacheGeometry,
    slack: float = 1.25,
    cross_hot_blocks: int = 2,
) -> CacheGeometry:
    """The concrete O(M) cache a partition schedule needs (Lemma 4/8).

    The proofs require each loaded component to co-reside with its internal
    buffers and one or two hot blocks per incident cross edge.  In our
    simulator buffers are block aligned, so the exact footprint of component
    ``V_i`` is::

        state(V_i)
      + sum over internal edges of block_aligned(minBuf(e))
      + cross_hot_blocks * B * degree(V_i)      -- streaming cross buffers
      + 2 * B                                   -- external input/output

    The returned geometry is ``slack`` times the worst component footprint
    (never smaller than the given geometry), rounded up to whole blocks.
    Experiments report the implied augmentation factor — this is the
    explicit constant behind the paper's "cache size O(M)".
    """
    from math import ceil as _ceil

    from repro.graphs.minbuf import min_buffer

    B = geometry.block
    worst = geometry.size
    for idx in range(partition.k):
        footprint = partition.component_state(idx)
        for ch in partition.internal_channels(idx):
            footprint += _ceil(min_buffer(ch) / B) * B
        footprint += cross_hot_blocks * B * partition.component_degree(idx)
        footprint += 2 * B
        worst = max(worst, footprint)
    blocks = max(1, _ceil(worst * slack / B))
    return CacheGeometry(size=blocks * B, block=B)


def augmented_geometry(geometry: CacheGeometry, factor: float) -> CacheGeometry:
    """Geometry with ``factor``-times the cache size (same block size),
    rounded up to a whole number of blocks — the "O(1) memory augmentation"
    knob of Corollaries 6 and 9."""
    blocks = max(1, ceil(geometry.size * factor / geometry.block))
    return CacheGeometry(size=blocks * geometry.block, block=geometry.block)
