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
  block-for-block and miss-for-miss across cache geometries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs.repetition import compute_gains
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey
from repro.runtime.schedule import Schedule

if TYPE_CHECKING:  # runtime import at call time, like the engines below
    from repro.runtime.compiled import CompiledTrace

__all__ = [
    "NaiveLRU",
    "bruteforce_pipeline_partition",
    "reference_token_replay",
    "reference_stack_distances",
    "assert_trace_equivalent",
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
    count_external: bool = True,
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
        count_external=count_external,
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
        count_external=count_external,
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
            count_external=count_external,
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
