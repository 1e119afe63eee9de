"""Partition schedulers — the paper's Section 3 runtime strategies.

Three schedulers, one per graph class the paper treats:

* :func:`homogeneous_partition_schedule` — all rates 1.  Batch granularity
  ``T = M``: load each component once per batch (components in contracted
  topological order) and, once loaded, sweep its modules in topological
  order ``M`` times ("the modules are topologically sorted and are each
  fired just once in order; this lower-level schedule repeats M times").
  Cross edges carry exactly ``M`` tokens per batch, so each buffer needs
  capacity ``M`` plus the edge's delay.

* :func:`inhomogeneous_partition_schedule` — arbitrary rates.  Batch
  granularity ``T`` from :func:`repro.core.tuning.choose_batch`; each
  component is loaded once per batch and run to completion by a
  demand-driven low-level schedule with ``minBuf`` internal buffers.

* :func:`pipeline_dynamic_schedule` — the Section 3/4 dynamic pipeline
  scheduler: Θ(M) buffers on cross edges; a segment is *schedulable* when
  its input buffer is at least half full and its output buffer at most half
  full; it then runs until the input empties or the output fills.  The
  scheduling loop scans cross edges in order and runs the segment before the
  first at-most-half-full edge (the paper's continuity argument guarantees
  this segment is schedulable; the sink's output counts as always empty).

Every scheduler returns a :class:`repro.runtime.schedule.Schedule` carrying
the exact buffer capacities it assumed, and every schedule is feasibility-
checked by construction (tests re-validate with
:func:`repro.runtime.schedule.validate_schedule`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import CacheGeometry
from repro.core.partition import Partition
from repro.core.tuning import BatchPlan, choose_batch, cross_capacities
from repro.errors import DeadlockError, GraphError, PartitionError, ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.sdf import StreamGraph
from repro.graphs.transforms import induced_subgraph
from repro.runtime.deadlock import TokenTable, demand_driven_schedule
from repro.runtime.schedule import Schedule, schedule_span

__all__ = [
    "homogeneous_partition_schedule",
    "inhomogeneous_partition_schedule",
    "pipeline_dynamic_schedule",
    "component_layout_order",
]


def component_layout_order(partition: Partition) -> List[str]:
    """Module placement order grouping each component contiguously, in
    contracted topological order — the arena layout the scheduler wants so a
    loaded component occupies a contiguous address range."""
    order: List[str] = []
    for idx in partition.component_order():
        comp = list(partition.components[idx])
        sub_order = {n: i for i, n in enumerate(partition.graph.topological_order())}
        comp.sort(key=lambda n: sub_order[n])
        order.extend(comp)
    return order


# ----------------------------------------------------------------------
# homogeneous graphs
# ----------------------------------------------------------------------
@schedule_span("homogeneous")
def homogeneous_partition_schedule(
    graph: StreamGraph,
    partition: Partition,
    geometry: CacheGeometry,
    n_batches: int = 1,
) -> Schedule:
    """Section 3, "Scheduling homogeneous graphs" (T = M).

    Per batch: components in contracted topological order; per component,
    its modules in topological order, the whole sweep repeated ``M`` times.
    Requires a homogeneous graph and a well-ordered partition.
    """
    if not graph.is_homogeneous():
        raise GraphError("homogeneous_partition_schedule requires in=out=1 on every channel")
    if n_batches < 1:
        raise ScheduleError(f"n_batches must be >= 1, got {n_batches}")
    T = geometry.size

    comp_order = partition.component_order()  # raises if not well ordered
    topo_rank = {n: i for i, n in enumerate(graph.topological_order())}
    comp_topo: List[List[str]] = [
        sorted(partition.components[idx], key=lambda n: topo_rank[n]) for idx in comp_order
    ]

    firings: List[str] = []
    for _ in range(n_batches):
        for modules in comp_topo:
            for _ in range(T):
                firings.extend(modules)

    caps: Dict[int, int] = min_buffers(graph)
    for ch in partition.cross_channels():
        caps[ch.cid] = T + ch.delay
    return Schedule(
        firings,
        capacities=caps,
        label=f"partitioned-homog[{partition.label or partition.k}]",
    )


# ----------------------------------------------------------------------
# inhomogeneous graphs
# ----------------------------------------------------------------------
def _component_low_level(
    graph: StreamGraph,
    component: Sequence[str],
    fires: Dict[str, int],
    max_capacity_doublings: int = 6,
) -> List[str]:
    """Low-level schedule of one component: fire each module its per-batch
    count using minBuf internal buffers.

    The component's incoming cross edges are dropped (the high level
    guarantees their tokens are fully available when the component runs) and
    outgoing cross edges are unbounded within the batch (their buffers are
    sized to exactly the batch traffic), so the induced subgraph with its
    internal channels is the right arena.

    The paper's assumption set guarantees minBuf capacities admit a schedule
    [17]; for robustness against graphs at the assumption's edge we double
    internal capacities on deadlock, up to ``max_capacity_doublings`` times,
    and record nothing — the returned firing order is feasible under the
    *original* minBuf capacities whenever the first attempt succeeds (the
    common case, asserted by tests on the paper's graph classes).
    """
    sub = induced_subgraph(graph, component)
    targets = {n: fires[n] for n in component}
    caps = min_buffers(sub)
    scale = 1
    for attempt in range(max_capacity_doublings + 1):
        try:
            return demand_driven_schedule(sub, targets, capacities=caps)
        except DeadlockError:
            scale *= 2
            caps = {cid: cap * 2 for cid, cap in caps.items()}
    raise DeadlockError(
        f"component {list(component)} cannot complete a batch even with "
        f"{scale}x minBuf internal buffers"
    )


@schedule_span("inhomogeneous")
def inhomogeneous_partition_schedule(
    graph: StreamGraph,
    partition: Partition,
    geometry: CacheGeometry,
    n_batches: int = 1,
    plan: Optional[BatchPlan] = None,
    strict_paper_batching: bool = False,
) -> Schedule:
    """Section 3, "Scheduling inhomogeneous graphs".

    Batch ``T`` source firings (``T`` from :func:`choose_batch`); per batch,
    load each component exactly once in contracted topological order and run
    it until all progeny of the batch's source firings have been pushed to
    its outgoing cross edges.

    ``strict_paper_batching`` applies the ``>= M`` batch-traffic condition
    to every channel as the paper literally states; the default applies it
    to cross edges only (sufficient for the cache bound, much smaller
    buffers — an engineering deviation from the paper's text;
    ``tests/test_partition_sched.py`` runs both).
    """
    if n_batches < 1:
        raise ScheduleError(f"n_batches must be >= 1, got {n_batches}")
    comp_order = partition.component_order()
    cross_cids = None if strict_paper_batching else [
        ch.cid for ch in partition.cross_channels()
    ]
    if plan is None:
        plan = choose_batch(graph, geometry.size, cross_cids=cross_cids)

    per_comp: List[List[str]] = []
    for idx in comp_order:
        per_comp.append(_component_low_level(graph, partition.components[idx], plan.fires))

    batch: List[str] = []
    for comp_firings in per_comp:
        batch.extend(comp_firings)
    firings = batch * n_batches

    caps: Dict[int, int] = min_buffers(graph)
    caps.update(cross_capacities(partition, plan))
    return Schedule(
        firings,
        capacities=caps,
        label=f"partitioned-inhomog[k={plan.k},{partition.label or partition.k}]",
    )


# ----------------------------------------------------------------------
# pipelines: the dynamic half-full / half-empty scheduler
# ----------------------------------------------------------------------
@schedule_span("pipeline_dynamic")
def pipeline_dynamic_schedule(
    graph: StreamGraph,
    partition: Partition,
    geometry: CacheGeometry,
    target_outputs: int,
    buffer_factor: int = 2,
    cross_capacity: Optional[int] = None,
) -> Schedule:
    """Section 3, "Scheduling pipelines" — the dynamic schedule that
    Theorem 5's upper bound uses.

    Every cross edge gets a Θ(M) buffer (capacity
    ``buffer_factor * max(M, minBuf)``, or ``max(cross_capacity, 2*minBuf)``
    when ``cross_capacity`` is given — ablation A2 sweeps it to show why
    Θ(M) is the right size); the loop runs until the sink has
    fired ``target_outputs`` times.  Each step scans cross edges in chain
    order for the first at-most-half-full buffer and runs the preceding
    segment until its input is empty or its output full; when every cross
    buffer is more than half full, the last segment runs (the sink's output
    buffer is "always empty").  Channels start at their delays.

    The returned schedule is a plain firing list — executing it through
    :class:`repro.runtime.executor.Executor` with the recorded capacities
    reproduces the dynamic execution exactly.
    """
    if target_outputs < 1:
        raise ScheduleError(f"target_outputs must be >= 1, got {target_outputs}")
    if not graph.is_pipeline():
        raise GraphError("pipeline_dynamic_schedule requires a pipeline graph")
    order = graph.pipeline_order()

    # Components must be contiguous segments in chain order.
    comp_order = partition.component_order()
    segments: List[List[str]] = [list(partition.components[i]) for i in comp_order]
    rank = {n: i for i, n in enumerate(order)}
    flat: List[str] = []
    for seg in segments:
        seg.sort(key=lambda n: rank[n])
        flat.extend(seg)
    if flat != order:
        raise PartitionError("pipeline partition components must be contiguous chain segments")

    # Cross edges between consecutive segments, in order.
    seg_of = {n: i for i, seg in enumerate(segments) for n in seg}
    caps: Dict[int, int] = min_buffers(graph)
    cross: List[int] = []  # cid of the edge entering segment i+1
    for ch in graph.channels():
        if seg_of[ch.src] != seg_of[ch.dst]:
            cross.append(ch.cid)
            if cross_capacity is not None:
                caps[ch.cid] = max(cross_capacity, 2 * caps[ch.cid])
            else:
                caps[ch.cid] = buffer_factor * max(geometry.size, caps[ch.cid])
    cross.sort(key=lambda cid: rank[graph.channel(cid).src])

    # the table's module i is chain position i; segment i spans the
    # positions bounds[i][0]..bounds[i][1]
    table = TokenTable(graph, order, caps)
    can_fire, fire, tokens = table.can_fire, table.fire, table.tokens
    cross_slots = [(table.slot[cid], caps[cid]) for cid in cross]
    bounds: List[Tuple[int, int]] = [(rank[seg[0]], rank[seg[-1]]) for seg in segments]
    sink = len(order) - 1
    firings: List[str] = []
    sink_fires = 0

    while sink_fires < target_outputs:
        target_seg = len(segments) - 1
        for i, (s, cap) in enumerate(cross_slots):
            if tokens[s] * 2 <= cap:
                target_seg = i
                break
        # Fire the segment downstream-first until stuck.  A firing at
        # position p changes only p's two channels, so of the positions
        # the scan rejected (p + 1 .. hi) only p + 1 can fire now.
        lo, hi = bounds[target_seg]
        start = hi
        progressed = 0
        while sink_fires < target_outputs:
            for p in range(start, lo - 1, -1):
                if can_fire(p):
                    break
            else:
                break
            fire(p)
            firings.append(order[p])
            progressed += 1
            if p == sink:
                sink_fires += 1
            start = min(p + 1, hi)
        if progressed == 0:
            raise DeadlockError(
                f"dynamic pipeline scheduler stuck: segment {target_seg} cannot fire "
                f"(cross occupancies={[tokens[s] for s, _cap in cross_slots]})"
            )

    return Schedule(
        firings,
        capacities=caps,
        label=f"pipeline-dynamic[{partition.label or partition.k}]",
    )
