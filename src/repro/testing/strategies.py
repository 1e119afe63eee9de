"""Hypothesis strategies for random stream graphs, cache geometries, and
placements.

Centralized here so every property-based test draws from the same
distributions, and so extensions can reuse them.  The graph strategies emit
graphs satisfying the paper's Section-2 assumptions (dag, rate matched,
single source/sink) by construction; :func:`geometry_strategy` emits only
organizations :class:`~repro.cache.base.CacheGeometry` validation accepts
(power-of-two set counts), and
:func:`placement_strategy` emits (order, gaps) candidates inside a given
address-space gap budget — the exact search space
:mod:`repro.mem.placement` explores; and :func:`chunking_strategy` emits
arbitrary partitions of a trace into positive chunk sizes — the adversary
for the streaming-replay invariance properties.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import pipeline
from repro.mem.layout import ObjectKey

__all__ = [
    "rate_matched_pipelines",
    "small_dags",
    "geometry_strategy",
    "placement_strategy",
    "chunking_strategy",
]

_rates = st.tuples(st.integers(1, 5), st.integers(1, 5))


@st.composite
def rate_matched_pipelines(
    draw: st.DrawFn, max_n: int = 10, max_state: int = 30,
    with_delays: bool = False,
) -> StreamGraph:
    """Random pipelines: arbitrary states, arbitrary per-edge rates (always
    rate matched on a chain), optionally with small SDF delays."""
    n = draw(st.integers(2, max_n))
    states = draw(st.lists(st.integers(0, max_state), min_size=n, max_size=n))
    rs = draw(st.lists(_rates, min_size=n - 1, max_size=n - 1))
    g = pipeline(states, rs)
    if with_delays:
        delays = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
        g2 = StreamGraph(g.name)
        for m in g.modules():
            g2.add_module(m.name, state=m.state, work=m.work)
        for ch, d in zip(g.channels(), delays):
            g2.add_channel(ch.src, ch.dst, out_rate=ch.out_rate, in_rate=ch.in_rate, delay=d)
        return g2
    return g


@st.composite
def geometry_strategy(
    draw: st.DrawFn,
    block: int = 8,
    max_ways: int = 8,
    max_sets: int = 32,
    allow_fully_associative: bool = True,
) -> CacheGeometry:
    """Random *valid* cache organizations: ``ways`` from 1 up to
    ``max_ways``, a power-of-two set count up to ``max_sets`` (what
    geometry validation demands), and — when allowed — fully-associative
    geometries with power-of-two frame counts."""
    sets_choices = [s for s in (1, 2, 4, 8, 16, 32) if s <= max_sets]
    ways_choices = [w for w in (1, 2, 4, 8) if w <= max_ways]
    if allow_fully_associative and draw(st.booleans()):
        frames = draw(st.sampled_from(sets_choices))
        return CacheGeometry(size=frames * block, block=block)
    ways = draw(st.sampled_from(ways_choices))
    sets = draw(st.sampled_from(sets_choices))
    return CacheGeometry(size=sets * ways * block, block=block, ways=ways)


@st.composite
def placement_strategy(
    draw: st.DrawFn, objects: Iterable[ObjectKey], max_gap: int = 3,
    gap_budget: Optional[int] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    """Random placement candidates over ``objects``: a permutation plus a
    per-object gap map (blocks of deliberate padding, each at most
    ``max_gap``), truncated so the total never exceeds ``gap_budget`` when
    one is given.  Returns ``(order, gaps)`` ready for
    :func:`repro.mem.placement.remap_blocks` or
    :meth:`repro.mem.layout.MemoryLayout.place_graph`."""
    objects = list(objects)
    order = draw(st.permutations(objects))
    gap_list = draw(
        st.lists(
            st.integers(0, max_gap), min_size=len(objects), max_size=len(objects)
        )
    )
    gaps: Dict[ObjectKey, int] = {}
    spent = 0
    for key, gap in zip(order, gap_list):
        if gap_budget is not None:
            gap = min(gap, gap_budget - spent)
        if gap > 0:
            gaps[key] = gap
            spent += gap
    return list(order), gaps


@st.composite
def chunking_strategy(draw: st.DrawFn, n: int) -> List[int]:
    """Random partition of a length-``n`` trace into positive chunk sizes.

    Draws a set of cut points in ``[1, n-1]`` and returns the consecutive
    differences, so every partition of ``n`` — from ``[n]`` (no cuts) to
    ``[1] * n`` (all cuts) — is reachable and the sizes always sum to
    ``n``.  This is the adversary for the streaming-replay invariance
    properties: miss counts (and carry-over state) must not depend on
    where the chunk boundaries fall.
    """
    if n < 1:
        raise ValueError(f"chunking_strategy needs n >= 1, got {n}")
    if n == 1:
        return [1]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    bounds = [0] + cuts + [n]
    return [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]


@st.composite
def small_dags(
    draw: st.DrawFn, max_layers: int = 4, max_width: int = 3,
    max_state: int = 20,
) -> StreamGraph:
    """Random homogeneous layered dags, small enough for exact partition
    search: a single source/sink, every layer fully reachable."""
    layers = draw(st.integers(1, max_layers))
    width = draw(st.integers(1, max_width))
    g = StreamGraph("hyp-dag")
    g.add_module("src", state=draw(st.integers(0, max_state)))
    prev = ["src"]
    for layer in range(layers):
        cur = []
        for w in range(width):
            name = f"n{layer}_{w}"
            g.add_module(name, state=draw(st.integers(1, max_state)))
            cur.append(name)
        # each node gets >= 1 parent from prev; each prev node >= 1 child
        used = set()
        for name in cur:
            parents = draw(
                st.lists(st.sampled_from(prev), min_size=1, max_size=len(prev), unique=True)
            )
            for p in parents:
                g.add_channel(p, name)
                used.add(p)
        for p in prev:
            if p not in used:
                g.add_channel(p, draw(st.sampled_from(cur)))
        prev = cur
    g.add_module("snk", state=draw(st.integers(0, max_state)))
    for p in prev:
        g.add_channel(p, "snk")
    return g
