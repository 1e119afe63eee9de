"""Graph transformations used throughout the paper's constructions.

* :func:`normalize_source_sink` — the w.l.o.g. reduction of Section 2: a
  multi-source (multi-sink) dag is converted to one with a single source
  (sink) by adding a zero-state super-source/super-sink wired with rates that
  preserve rate-matching.
* :func:`induced_subgraph` — the subgraph induced by a vertex subset, used to
  evaluate components of a partition.
* :func:`contract_partition` — contracts every component of a partition into
  one vertex, producing the component multigraph whose acyclicity defines a
  *well-ordered* partition (Definition 2).
* :func:`as_networkx` — optional bridge for tests that use networkx as an
  oracle (the library itself never depends on networkx).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.sdf import StreamGraph

__all__ = [
    "normalize_source_sink",
    "induced_subgraph",
    "contract_partition",
    "as_networkx",
]

SUPER_SOURCE = "__source__"
SUPER_SINK = "__sink__"


def normalize_source_sink(graph: StreamGraph) -> StreamGraph:
    """Return a copy with a unique source and a unique sink.

    New modules have zero state (they model the external world, not cached
    computation).  Rates on the new edges are chosen so the resulting graph
    remains rate matched: if the original sources have gains ``g_i`` relative
    to the first source, the super-source sends ``out = num(g_i * L)`` tokens
    consumed ``in = L`` at source ``i``... in practice we hook each original
    source with ``out = r_i``/``in = 1`` where ``r`` restricted to sources is
    derived from a repetition vector of the *component-wise* graph, which is
    the standard construction.

    Graphs that are already single-source/single-sink are returned as an
    unmodified copy (no super nodes added).
    """
    sources = graph.sources()
    sinks = graph.sinks()
    if len(sources) <= 1 and len(sinks) <= 1:
        return graph.copy()

    g = graph.copy()

    # Relative firing frequencies of sources/sinks come from the repetition
    # vector when the graph is connected and rate matched; fall back to 1 for
    # isolated components.
    from repro.graphs.repetition import compute_gains

    gains: Dict[str, Fraction] = {}
    try:
        table = compute_gains(graph)
        gains = dict(table.node)
    except GraphError:
        gains = {m.name: Fraction(1) for m in graph.modules()}

    if len(sources) > 1:
        if SUPER_SOURCE in g:
            raise GraphError("graph already contains a super-source module")
        g.add_module(SUPER_SOURCE, state=0, work=0)
        denom = 1
        for s in sources:
            denom = lcm(denom, gains.get(s, Fraction(1)).denominator)
        for s in sources:
            rate = int(gains.get(s, Fraction(1)) * denom)
            # One super-source firing emits `rate` tokens consumed one-by-one
            # by source s, so s fires `rate` times per super firing, matching
            # its relative gain.
            g.add_channel(SUPER_SOURCE, s, out_rate=max(rate, 1), in_rate=1)

    if len(sinks) > 1:
        if SUPER_SINK in g:
            raise GraphError("graph already contains a super-sink module")
        g.add_module(SUPER_SINK, state=0, work=0)
        denom = 1
        for t in sinks:
            denom = lcm(denom, gains.get(t, Fraction(1)).denominator)
        for t in sinks:
            rate = int(gains.get(t, Fraction(1)) * denom)
            g.add_channel(t, SUPER_SINK, out_rate=1, in_rate=max(rate, 1))

    return g


def induced_subgraph(graph: StreamGraph, names: Iterable[str], name: str = "") -> StreamGraph:
    """Subgraph induced by ``names``: those modules plus every channel whose
    two endpoints both lie in the set.  Channel rates, delays and module
    state carry over unchanged."""
    keep = set(names)
    for n in keep:
        graph.module(n)  # existence check
    sub = StreamGraph(name or f"{graph.name}[{len(keep)}]")
    for m in graph.modules():
        if m.name in keep:
            sub.add_module(m.name, state=m.state, work=m.work)
    for ch in graph.channels():
        if ch.src in keep and ch.dst in keep:
            sub.add_channel(
                ch.src, ch.dst, out_rate=ch.out_rate, in_rate=ch.in_rate, delay=ch.delay
            )
    return sub


def contract_partition(
    graph: StreamGraph, components: Sequence[Iterable[str]]
) -> Tuple[StreamGraph, Dict[str, int]]:
    """Contract each component to a single vertex (Definition 2).

    Returns the contracted multigraph — one module per component, named
    ``"C<i>"`` with state equal to the component's total state — plus the
    mapping from original module name to component index.  Cross channels
    become channels between component vertices (parallel channels preserved,
    with their original rates); internal channels disappear.

    Raises :class:`GraphError` if ``components`` is not a partition of the
    graph's vertex set (missing or duplicated modules).
    """
    assignment: Dict[str, int] = {}
    for idx, comp in enumerate(components):
        comp_list = list(comp)
        if not comp_list:
            raise GraphError(f"component {idx} is empty")
        for n in comp_list:
            graph.module(n)
            if n in assignment:
                raise GraphError(f"module {n!r} appears in components {assignment[n]} and {idx}")
            assignment[n] = idx
    missing = [m.name for m in graph.modules() if m.name not in assignment]
    if missing:
        raise GraphError(f"components do not cover modules: {missing}")

    contracted = StreamGraph(f"{graph.name}/contracted")
    totals: Dict[int, int] = {}
    for name, idx in assignment.items():
        totals[idx] = totals.get(idx, 0) + graph.state(name)
    for idx in range(len(components)):
        contracted.add_module(f"C{idx}", state=totals.get(idx, 0))
    for ch in graph.channels():
        a, b = assignment[ch.src], assignment[ch.dst]
        if a != b:
            contracted.add_channel(f"C{a}", f"C{b}", out_rate=ch.out_rate, in_rate=ch.in_rate)
    return contracted, assignment


def as_networkx(graph: StreamGraph):
    """Convert to a ``networkx.MultiDiGraph`` (test oracle only)."""
    import networkx as nx

    g = nx.MultiDiGraph(name=graph.name)
    for m in graph.modules():
        g.add_node(m.name, state=m.state, work=m.work)
    for ch in graph.channels():
        g.add_edge(ch.src, ch.dst, key=ch.cid, out_rate=ch.out_rate, in_rate=ch.in_rate)
    return g
