"""Dynamic (asynchronous) scheduling of homogeneous dags.

Section 3, "Scheduling homogeneous graphs", last paragraph: the batch
schedule "extends to an asynchronous or parallel dynamic schedule.  To
schedule components, choose any component(s) with M data items on all
incoming cross edges and empty outgoing cross edges.  Then schedule each
internal module M times ... The homogeneity of the graph ensures that it is
always possible to find a schedulable component."

This module implements the uniprocessor version of that rule (the parallel
version lives in :mod:`repro.core.parallel_sched`): a component becomes
*ready* when every incoming cross buffer holds at least ``M`` tokens and
every outgoing cross buffer has at least ``M`` free slots; running it
performs the M-fold topological sweep of the static scheduler.  Unlike the
static batch schedule, no global phase structure exists — components fire
whenever their local condition holds, which is what a work-queue runtime
would do.

Buffer sizing: each cross edge gets capacity ``2M`` so that a producer can
stay ready while its consumer holds M unconsumed tokens (capacity exactly M
also works but serializes producer/consumer strictly; 2M matches the
"large buffers" the paper's schedulability argument uses).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cache.base import CacheGeometry
from repro.core.partition import Partition
from repro.errors import DeadlockError, GraphError, ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.sdf import StreamGraph
from repro.runtime.deadlock import TokenTable
from repro.runtime.schedule import Schedule, schedule_span

__all__ = ["dynamic_dag_schedule", "ready_components"]


def _component_cross_edges(partition: Partition):
    """Per component: (incoming cross cids, outgoing cross cids)."""
    incoming: List[List[int]] = [[] for _ in range(partition.k)]
    outgoing: List[List[int]] = [[] for _ in range(partition.k)]
    for ch in partition.cross_channels():
        outgoing[partition.component_of(ch.src)].append(ch.cid)
        incoming[partition.component_of(ch.dst)].append(ch.cid)
    return incoming, outgoing


def ready_components(
    partition: Partition,
    tokens: Dict[int, int],
    capacity: int,
    batch: int,
) -> List[int]:
    """Components satisfying the Section 3 dynamic rule right now:
    >= ``batch`` tokens on every incoming cross edge and room for ``batch``
    more on every outgoing cross edge."""
    incoming, outgoing = _component_cross_edges(partition)
    ready = []
    for idx in range(partition.k):
        if all(tokens[cid] >= batch for cid in incoming[idx]) and all(
            tokens[cid] + batch <= capacity for cid in outgoing[idx]
        ):
            ready.append(idx)
    return ready


@schedule_span("dynamic_dag")
def dynamic_dag_schedule(
    graph: StreamGraph,
    partition: Partition,
    geometry: CacheGeometry,
    target_outputs: int,
    policy: str = "fifo",
) -> Schedule:
    """Uniprocessor dynamic schedule for a homogeneous dag.

    Repeatedly picks a ready component (under ``policy``: ``"fifo"`` —
    least-recently-run first, the fair choice; ``"topo"`` — earliest in
    contracted topological order) and runs its M-fold sweep, until the sink
    has fired at least ``target_outputs`` times.  Channels start at their
    delays.

    Returns the induced firing sequence with its buffer capacities; the
    sequence is feasible by construction and reproducible through
    :class:`repro.runtime.executor.Executor`.

    Raises :class:`DeadlockError` if no component is ready — impossible for
    well-ordered partitions of homogeneous dags by the paper's argument, so
    hitting it indicates a broken partition.
    """
    if not graph.is_homogeneous():
        raise GraphError("dynamic_dag_schedule requires a homogeneous graph")
    if target_outputs < 1:
        raise ScheduleError(f"target_outputs must be >= 1, got {target_outputs}")
    if policy not in ("fifo", "topo"):
        raise ScheduleError(f"unknown policy {policy!r}")

    M = geometry.size
    comp_order = partition.component_order()  # validates well-orderedness
    topo_rank = {n: i for i, n in enumerate(graph.topological_order())}
    comp_topo: Dict[int, List[str]] = {
        idx: sorted(partition.components[idx], key=lambda n: topo_rank[n])
        for idx in comp_order
    }
    incoming, outgoing = _component_cross_edges(partition)
    capacity = 2 * M

    caps: Dict[int, int] = min_buffers(graph)
    for ch in partition.cross_channels():
        caps[ch.cid] = capacity

    names = graph.module_names()
    table = TokenTable(graph, names, caps)
    index = {n: i for i, n in enumerate(names)}
    fire, tokens = table.fire, table.tokens
    sweeps = {idx: [index[n] for n in comp_topo[idx]] for idx in comp_order}
    in_slots = [[table.slot[cid] for cid in cids] for cids in incoming]
    out_slots = [[(table.slot[cid], caps[cid] - M) for cid in cids] for cids in outgoing]
    sink = index[graph.sinks()[0]]

    firings: List[str] = []
    sink_fires = 0
    last_run: Dict[int, int] = {idx: -1 for idx in comp_order}
    clock = 0

    while sink_fires < target_outputs:
        ready = [
            idx
            for idx in comp_order
            if all(tokens[s] >= M for s in in_slots[idx])
            and all(tokens[s] <= room for s, room in out_slots[idx])
        ]
        if not ready:
            raise DeadlockError(
                "no schedulable component — partition is not well ordered or "
                "buffers are undersized"
            )
        if policy == "fifo":
            chosen = min(ready, key=lambda idx: last_run[idx])
        else:
            chosen = ready[0]  # comp_order is topological
        sweep = sweeps[chosen]
        for _ in range(M):
            for i in sweep:
                fire(i)
            firings.extend(comp_topo[chosen])
        if sink in sweep:
            sink_fires += M
        clock += 1
        last_run[chosen] = clock

    return Schedule(
        firings,
        capacities=caps,
        label=f"dynamic-dag[{policy},{partition.label or partition.k}]",
    )
