"""Reference implementations used as differential-test oracles.

Each oracle is written for obviousness, not speed, with different data
structures than the production code so shared bugs are unlikely:

* :class:`NaiveLRU` — LRU over a plain Python list (O(n) per access);
* :func:`bruteforce_pipeline_partition` — all 2^(n-1) segmentations;
* :func:`reference_token_replay` — schedule feasibility by dict-of-lists
  token simulation (tokens as individual objects, not counters), also
  checking FIFO order end to end;
* :func:`reference_stack_distances` — the sequential Fenwick-tree stack
  distance algorithm, checking the vectorized numpy kernel in
  :mod:`repro.analysis.misscurve`;
* :func:`assert_trace_equivalent` — the compiled-trace engine
  (:mod:`repro.runtime.compiled`) against the stepwise
  :class:`~repro.runtime.executor.Executor` + :class:`~repro.cache.lru.LRUCache`,
  block-for-block and miss-for-miss across cache geometries;
* :func:`reference_demand_driven_schedule`,
  :func:`reference_pipeline_dynamic_schedule` and
  :func:`reference_kohli_greedy_schedule` — the schedulers as per-check
  scans over the graph's channel lists, each scan starting from the
  preferred end, against the :class:`~repro.runtime.deadlock.TokenTable`
  versions that resume a scan where a firing could have changed anything.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DeadlockError, GraphError, PartitionError, ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import compute_gains
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey
from repro.runtime.schedule import Schedule

if TYPE_CHECKING:  # runtime import at call time, like the engines below
    from repro.cache.base import CacheGeometry
    from repro.core.partition import Partition
    from repro.runtime.compiled import CompiledTrace

__all__ = [
    "NaiveLRU",
    "bruteforce_pipeline_partition",
    "reference_token_replay",
    "reference_stack_distances",
    "assert_trace_equivalent",
    "reference_demand_driven_schedule",
    "reference_pipeline_dynamic_schedule",
    "reference_kohli_greedy_schedule",
]


class NaiveLRU:
    """List-based LRU: index 0 = most recent.  O(n) per access, obviously
    correct; differential tests compare it block-for-block with the
    production OrderedDict implementation."""

    def __init__(self, capacity_blocks: int) -> None:
        self.capacity = capacity_blocks
        self.stack: List[int] = []
        self.misses = 0
        self.accesses = 0

    def access(self, block: int) -> bool:
        self.accesses += 1
        if block in self.stack:
            self.stack.remove(block)
            self.stack.insert(0, block)
            return False
        self.misses += 1
        self.stack.insert(0, block)
        if len(self.stack) > self.capacity:
            self.stack.pop()
        return True


class _Fenwick:
    """Prefix-sum tree over trace positions (1-based internally)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s

    def range_sum(self, lo: int, hi: int) -> int:
        if hi < lo:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


def reference_stack_distances(trace: Sequence[int]) -> List[Optional[int]]:
    """Sequential Mattson stack distances; ``None`` marks cold accesses.

    The classic last-access dict + Fenwick tree over "most recent for their
    block" positions — O(n log n), one access at a time.  This was the
    production algorithm before the vectorized kernel in
    :mod:`repro.analysis.misscurve` replaced it; it stays here as the
    differential oracle for that kernel.
    """
    n = len(trace)
    fen = _Fenwick(n)
    last: Dict[int, int] = {}
    out: List[Optional[int]] = [None] * n
    for i, blk in enumerate(trace):
        prev = last.get(blk)
        if prev is not None:
            # distinct blocks touched in (prev, i) = marked positions there,
            # plus this block itself
            out[i] = fen.range_sum(prev + 1, i - 1) + 1
            fen.add(prev, -1)
        fen.add(i, 1)
        last[blk] = i
    return out


def bruteforce_pipeline_partition(
    graph: StreamGraph, cache_size: int, c: float
) -> Optional[Fraction]:
    """Minimum bandwidth over ALL segmentations of a pipeline (2^(n-1)
    candidates), or None when no c-bounded segmentation exists.  Exponential;
    n <= ~14 only."""
    order = graph.pipeline_order()
    n = len(order)
    states = [graph.state(name) for name in order]
    gains = compute_gains(graph)
    chans = []
    for a, b in zip(order, order[1:]):
        chans.append(graph.channels_between(a, b)[0])
    bound = c * cache_size

    best: Optional[Fraction] = None
    for cuts in product([0, 1], repeat=n - 1):
        bw = Fraction(0)
        acc = states[0]
        feasible = True
        for i, cut in enumerate(cuts):
            if cut:
                if acc > bound:  # the segment being closed must fit
                    feasible = False
                    break
                bw += gains.edge_gain(chans[i].cid)
                acc = 0
            acc += states[i + 1]
        if acc > bound:  # the final segment must fit too
            feasible = False
        if feasible and (best is None or bw < best):
            best = bw
    return best


def assert_trace_equivalent(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    sizes: Iterable[int],
    layout_order: Optional[Iterable[str]] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> "CompiledTrace":
    """Differential oracle for the compiled-trace engine.

    Runs the schedule twice per call: once through the stepwise
    :class:`~repro.runtime.executor.Executor` with a tracing LRU cache, and
    once through :func:`repro.runtime.compiled.compile_trace`.  Asserts

    1. the two block traces are identical, element for element;
    2. for every cache size in ``sizes`` (words, multiples of ``block``),
       the vectorized :func:`~repro.runtime.compiled.simulate_trace` result
       equals a fresh per-geometry LRU run — misses, accesses, phase
       attribution, and firing accounting.

    ``layout_order``, ``placement`` and ``gaps`` place the objects for both
    paths alike.  Returns the compiled trace so callers can make further
    assertions.
    """
    from repro.cache.base import CacheGeometry
    from repro.cache.lru import LRUCache
    from repro.mem.trace import TraceRecorder, TracingCache
    from repro.runtime.compiled import compile_trace, simulate_trace
    from repro.runtime.executor import Executor

    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one cache size to compare")

    trace = compile_trace(
        graph,
        schedule,
        block,
        layout_order=layout_order,
        placement=placement,
        gaps=gaps,
    )

    # 1. block-for-block trace equality against the recording executor
    big = CacheGeometry(size=max(sizes) * 4, block=block)
    recorder = TraceRecorder()
    rec_res = Executor.measure(
        graph,
        big,
        schedule,
        layout_order=layout_order,
        placement=placement,
        gaps=gaps,
        cache=TracingCache(LRUCache(big), recorder),
    )
    assert trace.blocks.tolist() == recorder.blocks, (
        f"compiled trace diverges from executor trace "
        f"({trace.accesses} vs {len(recorder.blocks)} touches)"
    )
    assert trace.firings == rec_res.firings
    assert trace.fire_counts == rec_res.fire_counts
    assert trace.source_fires == rec_res.source_fires
    assert trace.sink_fires == rec_res.sink_fires

    # 2. per-geometry miss equality against fresh stepwise LRU runs
    geometries = [CacheGeometry(size=s, block=block) for s in sizes]
    fast = simulate_trace(trace, geometries)
    for geom, fast_res in zip(geometries, fast):
        ref = Executor.measure(
            graph,
            geom,
            schedule,
            layout_order=layout_order,
            placement=placement,
            gaps=gaps,
        )
        assert fast_res.misses == ref.misses, (
            f"size {geom.size}: compiled {fast_res.misses} != stepwise {ref.misses}"
        )
        assert fast_res.accesses == ref.accesses
        assert fast_res.phase_misses == ref.phase_misses, (
            f"size {geom.size}: phase attribution diverged "
            f"({fast_res.phase_misses} vs {ref.phase_misses})"
        )
        assert fast_res.source_fires == ref.source_fires
    return trace


def reference_token_replay(
    graph: StreamGraph,
    firings: Sequence[str],
    capacities: Optional[Dict[int, int]] = None,
) -> Tuple[bool, Dict[int, int]]:
    """Token-object replay of a schedule.

    Each token is an integer sequence number per channel; the replay checks
    (a) feasibility (enough tokens to pop, enough room to push) and (b) that
    tokens are consumed in exactly the order produced (FIFO).  Returns
    (feasible, final occupancies); feasibility failure returns (False, ...)
    rather than raising so hypothesis can compare against the production
    validator's raise/no-raise behaviour.
    """
    caps = capacities or {}
    queues: Dict[int, List[int]] = {ch.cid: list(range(ch.delay)) for ch in graph.channels()}
    next_seq: Dict[int, int] = {ch.cid: ch.delay for ch in graph.channels()}
    expected_pop: Dict[int, int] = {ch.cid: 0 for ch in graph.channels()}

    for name in firings:
        in_chs = graph.in_channels(name)
        out_chs = graph.out_channels(name)
        if any(len(queues[ch.cid]) < ch.in_rate for ch in in_chs):
            return False, {cid: len(q) for cid, q in queues.items()}
        for ch in out_chs:
            cap = caps.get(ch.cid)
            if cap is not None and len(queues[ch.cid]) + ch.out_rate > cap:
                return False, {cid: len(q) for cid, q in queues.items()}
        for ch in in_chs:
            for _ in range(ch.in_rate):
                tok = queues[ch.cid].pop(0)
                assert tok == expected_pop[ch.cid], "FIFO order violated"
                expected_pop[ch.cid] += 1
        for ch in out_chs:
            for _ in range(ch.out_rate):
                queues[ch.cid].append(next_seq[ch.cid])
                next_seq[ch.cid] += 1
    return True, {cid: len(q) for cid, q in queues.items()}


# ----------------------------------------------------------------------
# reference schedulers: a full downstream-first scan per firing, each check
# re-reading the graph's channel lists
# ----------------------------------------------------------------------
def reference_demand_driven_schedule(
    graph: StreamGraph,
    target_fires: Dict[str, int],
    capacities: Optional[Dict[int, int]] = None,
    initial_tokens: Optional[Dict[int, int]] = None,
    prefer_downstream: bool = True,
) -> List[str]:
    """:func:`repro.runtime.deadlock.demand_driven_schedule` as a scan of
    every candidate per firing, each check through
    :func:`repro.runtime.deadlock.can_fire`."""
    from repro.runtime.deadlock import can_fire

    order = graph.topological_order()
    rank = {n: i for i, n in enumerate(order)}
    owed: Dict[str, int] = {n: int(c) for n, c in target_fires.items() if c > 0}
    for n in owed:
        graph.module(n)

    tokens: Dict[int, int] = {ch.cid: ch.delay for ch in graph.channels()}
    if initial_tokens:
        tokens.update(initial_tokens)

    firings: List[str] = []
    total = sum(owed.values())
    candidates = sorted(owed, key=lambda n: rank[n], reverse=prefer_downstream)
    while total > 0:
        fired = None
        for n in candidates:
            if owed.get(n, 0) > 0 and can_fire(graph, n, tokens, capacities):
                fired = n
                break
        if fired is None:
            owing = {n: c for n, c in owed.items() if c > 0}
            raise DeadlockError(
                f"no fireable module among {sorted(owing)}; "
                f"occupancies={ {cid: t for cid, t in tokens.items() if t} }"
            )
        for ch in graph.in_channels(fired):
            tokens[ch.cid] -= ch.in_rate
        for ch in graph.out_channels(fired):
            tokens[ch.cid] += ch.out_rate
        owed[fired] -= 1
        total -= 1
        firings.append(fired)
    return firings


def reference_pipeline_dynamic_schedule(
    graph: StreamGraph,
    partition: "Partition",
    geometry: "CacheGeometry",
    target_outputs: int,
    buffer_factor: int = 2,
    cross_capacity: Optional[int] = None,
) -> Schedule:
    """:func:`repro.core.partition_sched.pipeline_dynamic_schedule` with
    every firing's segment scan restarting at the segment's downstream
    end."""
    if target_outputs < 1:
        raise ScheduleError(f"target_outputs must be >= 1, got {target_outputs}")
    if not graph.is_pipeline():
        raise GraphError("pipeline_dynamic_schedule requires a pipeline graph")
    order = graph.pipeline_order()

    comp_order = partition.component_order()
    segments: List[List[str]] = [list(partition.components[i]) for i in comp_order]
    rank = {n: i for i, n in enumerate(order)}
    flat: List[str] = []
    for seg in segments:
        seg.sort(key=lambda n: rank[n])
        flat.extend(seg)
    if flat != order:
        raise PartitionError("pipeline partition components must be contiguous chain segments")

    seg_of = {n: i for i, seg in enumerate(segments) for n in seg}
    caps: Dict[int, int] = min_buffers(graph)
    cross: List[int] = []
    for ch in graph.channels():
        if seg_of[ch.src] != seg_of[ch.dst]:
            cross.append(ch.cid)
            if cross_capacity is not None:
                caps[ch.cid] = max(cross_capacity, 2 * caps[ch.cid])
            else:
                caps[ch.cid] = buffer_factor * max(geometry.size, caps[ch.cid])
    cross.sort(key=lambda cid: rank[graph.channel(cid).src])

    tokens: Dict[int, int] = {ch.cid: ch.delay for ch in graph.channels()}
    sink = order[-1]
    firings: List[str] = []
    sink_fires = 0

    def can_fire(name: str) -> bool:
        for ch in graph.in_channels(name):
            if tokens[ch.cid] < ch.in_rate:
                return False
        for ch in graph.out_channels(name):
            if tokens[ch.cid] + ch.out_rate > caps[ch.cid]:
                return False
        return True

    def fire(name: str) -> None:
        nonlocal sink_fires
        for ch in graph.in_channels(name):
            tokens[ch.cid] -= ch.in_rate
        for ch in graph.out_channels(name):
            tokens[ch.cid] += ch.out_rate
        firings.append(name)
        if name == sink:
            sink_fires += 1

    def run_segment(idx: int) -> int:
        members = segments[idx]
        count = 0
        while sink_fires < target_outputs:
            fired = False
            for name in reversed(members):  # downstream-first
                if can_fire(name):
                    fire(name)
                    count += 1
                    fired = True
                    break
            if not fired:
                break
        return count

    while sink_fires < target_outputs:
        target_seg = len(segments) - 1
        for i, cid in enumerate(cross):
            if tokens[cid] * 2 <= caps[cid]:
                target_seg = i
                break
        progressed = run_segment(target_seg)
        if progressed == 0:
            raise DeadlockError(
                f"dynamic pipeline scheduler stuck: segment {target_seg} cannot fire "
                f"(cross occupancies={[tokens[c] for c in cross]})"
            )

    return Schedule(
        firings,
        capacities=caps,
        label=f"pipeline-dynamic[{partition.label or partition.k}]",
    )


def reference_kohli_greedy_schedule(
    graph: StreamGraph,
    geometry: "CacheGeometry",
    target_outputs: int,
    batch_fraction: float = 0.25,
) -> Schedule:
    """:func:`repro.core.baselines.kohli_greedy_schedule` with every check
    re-reading the module's channel lists."""
    if not graph.is_pipeline():
        raise GraphError("kohli_greedy_schedule requires a pipeline graph")
    if target_outputs < 1:
        raise ScheduleError(f"target_outputs must be >= 1, got {target_outputs}")
    order = graph.pipeline_order()
    sink = order[-1]

    caps: Dict[int, int] = {}
    batch_tokens = max(1, int(batch_fraction * geometry.size))
    for ch in graph.channels():
        caps[ch.cid] = max(batch_tokens, ch.out_rate + ch.in_rate) + ch.delay

    tokens: Dict[int, int] = {ch.cid: ch.delay for ch in graph.channels()}
    firings: List[str] = []
    sink_fires = 0

    def can_fire(name: str) -> bool:
        for ch in graph.in_channels(name):
            if tokens[ch.cid] < ch.in_rate:
                return False
        for ch in graph.out_channels(name):
            if tokens[ch.cid] + ch.out_rate > caps[ch.cid]:
                return False
        return True

    idx = 0
    stalls = 0
    while sink_fires < target_outputs:
        name = order[idx]
        runs = 0
        max_runs = max(
            1,
            batch_tokens
            // max((ch.out_rate for ch in graph.out_channels(name)), default=1),
        )
        while runs < max_runs and can_fire(name):
            for ch in graph.in_channels(name):
                tokens[ch.cid] -= ch.in_rate
            for ch in graph.out_channels(name):
                tokens[ch.cid] += ch.out_rate
            firings.append(name)
            runs += 1
            if name == sink:
                sink_fires += 1
                if sink_fires >= target_outputs:
                    break
        stalls = stalls + 1 if runs == 0 else 0
        if stalls > len(order):
            raise ScheduleError("kohli heuristic made no progress over a full cycle")
        idx = (idx + 1) % len(order)

    return Schedule(firings, capacities=caps, label=f"kohli[b={batch_tokens}]")
