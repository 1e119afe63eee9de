"""Partitioning general streaming dags (Section 5).

Finding the minimum-bandwidth well-ordered c-bounded partition of a dag is
NP-complete ([8], ND15 "Acyclic Partition"), so the paper prescribes either
exact search at compile time ("it may be reasonable to use an
exponential-time algorithm") or heuristics.  We implement both ends plus a
middle:

* :func:`exact_min_bandwidth_partition` — exhaustive branch-and-bound over
  assignments of modules (visited in topological order) to components, with
  three prunes: state bound, partial-bandwidth bound against the incumbent,
  and canonical component numbering (a module may open component ``k`` only
  if components ``0..k-1`` are in use) to avoid symmetric duplicates.
  Exponential — intended for graphs up to ~12 modules; provides the
  ``minBW_c(G)`` ground truth for Theorem 7 / Corollary 9 experiments.

* :func:`interval_dp_partition` — optimal among partitions whose components
  are *contiguous intervals of one topological order* (always well ordered).
  O(n² · E).  For pipelines the chain order makes this globally optimal
  (same DP as :func:`repro.core.pipeline.optimal_pipeline_partition`).

* :func:`greedy_topological_partition` — linear-time first-fit scan of a
  topological order; the baseline partitioner.

* :func:`refine_partition` — hill-climbing vertex moves between components,
  preserving well-orderedness and the state bound; polishes any of the
  above.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.graphs.repetition import GainTable, compute_gains
from repro.graphs.sdf import StreamGraph
from repro.obs import core as obs
from repro.obs import names as obs_names

__all__ = [
    "exact_min_bandwidth_partition",
    "interval_dp_partition",
    "greedy_topological_partition",
    "refine_partition",
    "min_bandwidth",
]


def exact_min_bandwidth_partition(
    graph: StreamGraph,
    cache_size: int,
    c: float = 3.0,
    max_modules: int = 14,
    require_well_ordered: bool = True,
) -> Partition:
    """Exact minimum-bandwidth well-ordered c-bounded partition.

    Branch and bound over component assignments in topological order.  A
    candidate's bandwidth counts each cross edge's gain once; the partial
    bandwidth of already-decided edges (both endpoints assigned) is a valid
    lower bound on any completion, enabling aggressive pruning.

    The search adds gains as integers: each edge gain times the lcm of all
    their denominators, which leaves every comparison as it was.

    Well-orderedness is checked at the leaves via the contracted graph
    (incremental acyclicity maintenance is not worth the complexity at these
    sizes).  ``require_well_ordered=False`` computes the unconstrained
    minimum-bandwidth c-bounded partition — used in tests to confirm the
    constraint actually binds on graphs like diamonds.

    Raises :class:`PartitionError` for graphs larger than ``max_modules``
    (use the heuristics instead) or when no c-bounded partition exists.
    """
    order = graph.topological_order()
    n = len(order)
    if n > max_modules:
        raise PartitionError(
            f"exact search limited to {max_modules} modules, graph has {n}; "
            "use greedy_topological_partition / interval_dp_partition"
        )
    gains = compute_gains(graph)
    pos = {name: i for i, name in enumerate(order)}
    states = [graph.state(name) for name in order]
    bound = c * cache_size
    for name, s in zip(order, states):
        if s > bound:
            raise PartitionError(f"module {name!r} state {s} > c*M = {bound}")

    # Scaling by one positive constant is exact, so every comparison,
    # tie-break and the partition found stay those of Fraction sums.
    scale = lcm(*(gains.edge_gain(ch.cid).denominator for ch in graph.channels()))
    # adjacency by position: for each vertex, edges to earlier-assigned ones
    in_edges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for ch in graph.channels():
        g = gains.edge_gain(ch.cid)
        in_edges[pos[ch.dst]].append((pos[ch.src], g.numerator * (scale // g.denominator)))

    best_bw: List[int] = [(1 << 62) * scale]
    best_assign: List[Optional[List[int]]] = [None]
    assign: List[int] = [-1] * n
    comp_state: List[float] = []

    def leaf_ok(k: int) -> bool:
        if not require_well_ordered:
            return True
        comps: List[List[str]] = [[] for _ in range(k)]
        for i, a in enumerate(assign):
            comps[a].append(order[i])
        try:
            p = Partition(graph, comps, gains=gains)
        except PartitionError:
            return False
        return p.is_well_ordered()

    def rec(i: int, partial_bw: int) -> None:
        if partial_bw >= best_bw[0]:
            return
        if i == n:
            if leaf_ok(len(comp_state)):
                best_bw[0] = partial_bw
                best_assign[0] = assign.copy()
            return
        s = states[i]
        n_open = len(comp_state)
        for comp in range(n_open + 1):
            if comp < n_open and comp_state[comp] + s > bound:
                continue
            if comp == n_open and s > bound:
                continue
            added = 0
            for src_pos, g in in_edges[i]:
                if assign[src_pos] != comp:
                    added += g
            if partial_bw + added >= best_bw[0]:
                continue
            assign[i] = comp
            if comp == n_open:
                comp_state.append(s)
            else:
                comp_state[comp] += s
            rec(i + 1, partial_bw + added)
            if comp == n_open:
                comp_state.pop()
            else:
                comp_state[comp] -= s
            assign[i] = -1

    with obs.span(obs_names.PARTITION, kind="exact"):
        rec(0, 0)
    if best_assign[0] is None:
        raise PartitionError("no well-ordered c-bounded partition found")
    k = max(best_assign[0]) + 1
    comps: List[List[str]] = [[] for _ in range(k)]
    for i, a in enumerate(best_assign[0]):
        comps[a].append(order[i])
    return Partition(graph, comps, gains=gains, label=f"exact[c={c},M={cache_size}]")


def min_bandwidth(graph: StreamGraph, cache_size: int, c: float = 3.0) -> Fraction:
    """``minBW_c(G)``: the bandwidth of an optimal well-ordered c-bounded
    partition (Theorem 7's lower-bound quantity).  Exact; small graphs only."""
    return exact_min_bandwidth_partition(graph, cache_size, c=c).bandwidth()


def interval_dp_partition(
    graph: StreamGraph,
    cache_size: int,
    c: float = 1.0,
    order: Optional[Sequence[str]] = None,
) -> Partition:
    """Optimal partition among contiguous intervals of a topological order.

    Interval partitions of a topological order are always well ordered
    (every edge goes forward, so the contracted graph's edges go from lower
    to higher interval index).  The DP charges each cross edge to the
    interval containing its *source*: ``cost(j, i)`` is the total gain of
    edges leaving ``order[j:i]`` for positions >= i; then
    ``dp[i] = min_j dp[j] + cost(j, i)`` over feasible ``j``.

    This is the paper's partitioning story made practical: exact on
    pipelines, a strong heuristic on dags (the loss is only the restriction
    to one linear order).
    """
    topo = list(order) if order is not None else graph.topological_order()
    gains = compute_gains(graph)
    pos = {name: i for i, name in enumerate(topo)}
    if len(pos) != graph.n_modules:
        raise PartitionError("order must enumerate every module exactly once")
    n = len(topo)
    states = [graph.state(name) for name in topo]
    bound = c * cache_size
    for name, s in zip(topo, states):
        if s > bound:
            raise PartitionError(f"module {name!r} state {s} > c*M = {bound}")

    # out_edges[p] = list of (dst_pos, gain) for edges leaving position p
    out_edges: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n)]
    for ch in graph.channels():
        out_edges[pos[ch.src]].append((pos[ch.dst], gains.edge_gain(ch.cid)))

    prefix = [0] * (n + 1)
    for i, s in enumerate(states):
        prefix[i + 1] = prefix[i] + s

    INF = Fraction(1 << 62)
    dp: List[Fraction] = [INF] * (n + 1)
    parent = [-1] * (n + 1)
    dp[0] = Fraction(0)
    for i in range(1, n + 1):
        # candidate last interval = topo[j:i]
        cost = Fraction(0)
        # build cost(j, i) incrementally as j decreases: adding position j
        # contributes gains of its edges leaving [j, i).
        for j in range(i - 1, -1, -1):
            if prefix[i] - prefix[j] > bound:
                break
            for dst_pos, g in out_edges[j]:
                if dst_pos >= i:
                    cost += g
            if dp[j] + cost < dp[i]:
                dp[i] = dp[j] + cost
                parent[i] = j
    if dp[n] >= INF:
        raise PartitionError("no feasible interval partition under the state bound")

    bounds: List[int] = []
    i = n
    while i > 0:
        bounds.append(parent[i])
        i = parent[i]
    bounds.reverse()
    comps = []
    for idx, j in enumerate(bounds):
        hi = bounds[idx + 1] if idx + 1 < len(bounds) else n
        comps.append(list(topo[j:hi]))
    return Partition(graph, comps, gains=gains, label=f"interval-dp[c={c},M={cache_size}]")


def greedy_topological_partition(
    graph: StreamGraph, cache_size: int, c: float = 1.0
) -> Partition:
    """First-fit scan of a topological order: open a new component whenever
    adding the next module would exceed ``c*M``.  Linear time; always well
    ordered; no attention to bandwidth — the baseline the smarter
    partitioners are measured against (ablation A1)."""
    topo = graph.topological_order()
    bound = c * cache_size
    comps: List[List[str]] = []
    cur: List[str] = []
    acc = 0
    for name in topo:
        s = graph.state(name)
        if s > bound:
            raise PartitionError(f"module {name!r} state {s} > c*M = {bound}")
        if cur and acc + s > bound:
            comps.append(cur)
            cur, acc = [], 0
        cur.append(name)
        acc += s
    if cur:
        comps.append(cur)
    return Partition(graph, comps, label=f"greedy[c={c},M={cache_size}]")


def refine_partition(
    partition: Partition,
    cache_size: int,
    c: float = 1.0,
    max_passes: int = 8,
) -> Partition:
    """Hill climbing: repeatedly move one module to an adjacent component if
    that reduces bandwidth while keeping the partition well ordered and
    c-bounded.  Deterministic sweep order; stops at a local optimum or after
    ``max_passes`` sweeps.  Never returns a worse partition."""
    graph = partition.graph
    gains = partition.gains()
    bound = c * cache_size
    best = partition
    best_bw = partition.bandwidth()

    for _ in range(max_passes):
        improved = False
        comps = [list(comp) for comp in best.components]
        for name in graph.module_names():
            cur_idx = next(i for i, comp in enumerate(comps) if name in comp)
            if len(comps[cur_idx]) == 1:
                continue  # moving would empty the component
            neighbor_idxs = set()
            for ch in graph.out_channels(name) + graph.in_channels(name):
                other = ch.dst if ch.src == name else ch.src
                oi = next(i for i, comp in enumerate(comps) if other in comp)
                if oi != cur_idx:
                    neighbor_idxs.add(oi)
            for target in sorted(neighbor_idxs):
                trial = [list(comp) for comp in comps]
                trial[cur_idx].remove(name)
                trial[target].append(name)
                trial = [t for t in trial if t]
                try:
                    cand = Partition(graph, trial, gains=gains, label=best.label + "+refined")
                except PartitionError:
                    continue
                if not cand.is_c_bounded(cache_size, c) or not cand.is_well_ordered():
                    continue
                bw = cand.bandwidth()
                if bw < best_bw:
                    best, best_bw = cand, bw
                    comps = [list(comp) for comp in best.components]
                    improved = True
                    break
        if not improved:
            break
    return best
