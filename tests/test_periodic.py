"""Period-aware compilation and replay of looped schedules.

A :class:`~repro.runtime.looped.LoopedSchedule` compiles its top-level
loops one period at a time and writes the other whole periods with numpy;
``simulate_trace`` then answers mod-indexed lru/direct geometries from two
short slices of the trace.  Both shortcuts must be invisible: chunks,
metadata, misses and per-phase misses equal those of the flat expansion
(and of the stepwise executor), and every fallback gives the same answers
with the period counters at 0.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.policy import get_policy
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import pipeline
from repro.obs import names as obs_names
from repro.runtime.compiled import TraceCompiler, compile_trace, simulate_trace
from repro.runtime.deadlock import demand_driven_schedule
from repro.runtime.executor import Executor, sink_stream_words, source_stream_words
from repro.runtime.looped import Loop, LoopedSchedule
from repro.runtime.streaming import compile_trace_chunked
from repro.runtime.trace_cache import TraceCache, cached_compile_trace, trace_digest
from repro.testing.strategies import geometry_strategy, rate_matched_pipelines

B = 8
SIX = pipeline([24, 16, 32, 8, 40, 16], name="six")


def _body(g: StreamGraph) -> Tuple[List[str], Dict[int, int]]:
    """One balanced steady-state iteration and the minBuf capacities it
    runs under (repeatable: every channel's token count returns)."""
    caps = min_buffers(g)
    return demand_driven_schedule(g, repetition_vector(g), caps), caps


def _period_iterations(g: StreamGraph, body: List[str]) -> int:
    """The loop period in iterations, from graph arithmetic alone: every
    head returns after ``cap / gcd(pops, cap)`` iterations, every stream
    position mod B after ``B / gcd(words, B)``."""
    caps = TraceCompiler(g, B, capacities=min_buffers(g)).capacities
    p = 1
    for ch in g.channels():
        pops = ch.in_rate * body.count(ch.dst)
        p = math.lcm(p, caps[ch.cid] // math.gcd(pops, caps[ch.cid]))
    for words in (
        sum(source_stream_words(g, s) * body.count(s) for s in g.sources()),
        sum(sink_stream_words(g, s) * body.count(s) for s in g.sinks()),
    ):
        p = math.lcm(p, B // math.gcd(words, B))
    return p


def _looped(
    body: List[str], caps: Dict[int, int], count: int, cut: int, tail: int
) -> LoopedSchedule:
    """Prefix ``body[:cut]``, then ``count`` iterations of the body rotated
    by ``cut``, then a suffix running one more rotation and ``tail`` more
    firings — feasible because the flat expansion is ``body`` repeated."""
    rot = tuple(body[cut:] + body[:cut])
    suffix = list(rot) + body[cut:] + body[:cut][:tail]
    return LoopedSchedule(
        loops=(*body[:cut], Loop(count, rot), *suffix), capacities=caps,
        label="periodic",
    )


def _meta(c: TraceCompiler) -> tuple:
    m = c.last
    return (m.label, m.firings, m.fire_counts, m.source_fires, m.sink_fires, m.accesses)


def _answers(results) -> List[Tuple[int, Dict[str, int]]]:
    return [(r.misses, r.phase_misses) for r in results]


def _stepwise(g, flat, geoms, policy) -> List[Tuple[int, Dict[str, int]]]:
    model = get_policy(policy).make_model
    return _answers(
        Executor.measure(g, geom, flat, cache=model(geom)) for geom in geoms
    )


def _counters(cap: obs.capture) -> Tuple[int, int]:
    counters = cap.snapshot["counters"]
    return (
        counters.get(obs_names.COMPILE_PERIOD_REPEATS, 0),
        counters.get(obs_names.REPLAY_PERIOD_GEOMETRIES, 0),
    )


def _classes(geom: CacheGeometry, policy: str) -> int:
    if policy == "direct":
        return geom.n_blocks
    return 1 if geom.is_fully_associative else geom.sets


def _hyperperiod(g, body, p, geom, policy) -> int:
    """Periods after which a geometry's class mapping of stream blocks
    repeats: ``lcm(S / gcd(s, S))`` over the two streams' shifts ``s``."""
    sets = _classes(geom, policy)
    h = 1
    for words in (
        sum(source_stream_words(g, s) * body.count(s) for s in g.sources()),
        sum(sink_stream_words(g, s) * body.count(s) for s in g.sinks()),
    ):
        if words:
            h = math.lcm(h, sets // math.gcd(p * words // B, sets))
    return h


# ----------------------------------------------------------------------
# compile: chunk for chunk, metadata included
# ----------------------------------------------------------------------
@given(g=rate_matched_pipelines(max_n=4, with_delays=True), data=st.data())
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_compile_chunks_equal_flat(g, data):
    body, caps = _body(g)
    p = _period_iterations(g, body)
    assume(p * len(body) <= 300)
    counts = [5 * p + 2, 2 * p, 2 * p - 1, p + 1, p, p - 1, 3, 2, 1]
    count = data.draw(st.sampled_from(list(dict.fromkeys(c for c in counts if c >= 1))))
    cut = data.draw(st.integers(0, len(body) - 1))
    tail = data.draw(st.integers(0, len(body)))
    sched = _looped(body, caps, count, cut, tail)
    for chunk_words in (None, 1, 37):
        looped = TraceCompiler(g, B, capacities=caps)
        flat = TraceCompiler(g, B, capacities=caps)
        got = list(looped.compile_chunks(sched, chunk_words=chunk_words))
        want = list(flat.compile_chunks(sched.to_flat(), chunk_words=chunk_words))
        assert len(got) == len(want)
        for (gb, gp), (wb, wp) in zip(got, want):
            assert np.array_equal(gb, wb) and np.array_equal(gp, wp)
        assert _meta(looped) == _meta(flat)
        repeats = count // p if count >= 2 * p else None
        assert (looped.last.period and looped.last.period[2]) == repeats


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 15, 16, 17, 100])
def test_period_contract(count):
    """``period`` means what CompiledTrace documents: every repeat is the
    first period plus ``j`` times one shift, with the same phases."""
    g = SIX
    body, caps = _body(g)
    trace = compile_trace(g, _looped(body, caps, count, 2, 3), B)
    flat = compile_trace(g, _looped(body, caps, count, 2, 3).to_flat(), B)
    assert np.array_equal(trace.blocks, flat.blocks)
    if count < 16:  # one period is 8 iterations of this pipeline
        assert trace.period is None
        return
    start, length, repeats = trace.period
    assert repeats == count // 8
    base = trace.blocks[start:start + length]
    shift = trace.blocks[start + length:start + 2 * length] - base
    assert set(np.unique(shift).tolist()) == {0, 1}
    for j in range(repeats):
        lo = start + j * length
        assert np.array_equal(trace.blocks[lo:lo + length], base + j * shift)
        assert np.array_equal(trace.phases[lo:lo + length], trace.phases[start:start + length])


def test_monolithic_compile_writes_periods_in_place():
    """A monolithic compile writes a loop's repeated periods straight into
    the one output array, so its allocation peak stays near the trace's own
    bytes (it was twice them while the repeats were materialized and then
    joined with the rest)."""
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 8000, 2, 3)
    compiler = TraceCompiler(g, B, capacities=caps)
    tracemalloc.start()
    try:
        trace = compiler.compile(sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.period is not None and trace.period[2] == 1000
    assert trace.accesses > 200_000
    assert peak <= 1.25 * (trace.blocks.nbytes + trace.phases.nbytes)
    flat = compile_trace(g, sched.to_flat(), B)
    assert np.array_equal(trace.blocks, flat.blocks)
    assert np.array_equal(trace.phases, flat.phases)


# ----------------------------------------------------------------------
# replay: the two-slice answer equals the expanded replay and the executor
# ----------------------------------------------------------------------
def _replay_case(g, data, policy, max_sets):
    body, caps = _body(g)
    p = _period_iterations(g, body)
    assume(p * len(body) <= 64)
    # long loops first: hypothesis favours the front of the list
    count = data.draw(st.sampled_from(
        [34 * p + 5, 10 * p + 3, 34 * p + p // 2, 2 * p + 1, p + 1, 1]
    ))
    sched = _looped(body, caps, count, data.draw(st.integers(0, len(body) - 1)),
                    data.draw(st.integers(0, len(body))))
    geoms = data.draw(st.lists(
        geometry_strategy(block=B, max_sets=max_sets),
        min_size=1, max_size=3,
    ))
    if policy == "direct":
        geoms = [CacheGeometry(size=geom.size, block=B, ways=1) for geom in geoms]
    flat = sched.to_flat()
    want = _answers(simulate_trace(compile_trace(g, flat, B), geoms, policy=policy))
    assert want == _stepwise(g, flat, geoms, policy)
    repeats = count // p if count >= 2 * p else 0
    expect = sum(
        1 for geom in geoms
        if repeats >= _hyperperiod(g, body, p, geom, policy) + 2
    )
    event(f"answered from slices: {expect > 0}")
    chunk_words = data.draw(st.sampled_from([97, 1024]))
    for trace in (
        compile_trace(g, sched, B),
        compile_trace_chunked(g, sched, B, chunk_words=chunk_words),
    ):
        with obs.capture(enabled=True) as cap:
            got = _answers(simulate_trace(trace, geoms, policy=policy))
        assert got == want
        assert _counters(cap)[1] == expect


@given(
    g=rate_matched_pipelines(max_n=4, with_delays=True), data=st.data(),
    policy=st.sampled_from(["lru", "direct"]),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_replay_equals_expanded_and_executor(g, data, policy):
    _replay_case(g, data, policy, max_sets=8)


@pytest.mark.slow
@given(
    g=rate_matched_pipelines(max_n=5, with_delays=True), data=st.data(),
    policy=st.sampled_from(["lru", "direct"]),
)
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_replay_equals_expanded_and_executor_nightly(g, data, policy):
    _replay_case(g, data, policy, max_sets=32)


def test_mixed_sweep_keeps_geometry_order():
    """Qualifying and non-qualifying geometries in one call come back in
    input order, each equal to the expanded replay (64 and 128 sets have a
    hyperperiod longer than the trace's 50 periods)."""
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 400, 1, 4)
    geoms = [
        CacheGeometry(size=64 * 4 * B, block=B, ways=4),
        CacheGeometry(size=16 * B, block=B),
        CacheGeometry(size=16 * B, block=B, ways=2),
        CacheGeometry(size=128 * 2 * B, block=B, ways=2),
    ]
    want = _answers(simulate_trace(compile_trace(g, sched.to_flat(), B), geoms))
    with obs.capture(enabled=True) as cap:
        got = _answers(simulate_trace(compile_trace(g, sched, B), geoms))
    assert got == want
    assert _counters(cap) == (400 // 8 - 1, 2)


# ----------------------------------------------------------------------
# fallbacks: same answers, counters at 0
# ----------------------------------------------------------------------
def _two_pipelines() -> StreamGraph:
    g = StreamGraph("two")
    for name, state in (("a0", 40), ("a1", 24), ("b0", 16), ("b1", 8)):
        g.add_module(name, state=state)
    g.add_channel("a0", "a1")
    g.add_channel("b0", "b1")
    return g


SIX_LOOPED = LoopedSchedule((Loop(64, tuple(_body(SIX)[0])),), _body(SIX)[1])

FALLBACKS = {
    # the body pushes one token more than it pops: never back at entry
    "unbalanced": (
        pipeline([16, 8]),
        LoopedSchedule((Loop(20, ("m0", "m0", "m1")),), capacities={0: 64}),
        "lru",
        [CacheGeometry(size=8 * B, block=B), CacheGeometry(size=8 * B, block=B, ways=2)],
    ),
    # the suffix refires a pipeline only the prefix fired: its blocks were
    # last seen before the final period, so a 64-block cache hits there
    "suffix-reaches-back": (
        _two_pipelines(),
        LoopedSchedule(
            ("a0", "a1", Loop(40, ("b0", "b1")), "a0", "a1"),
            min_buffers(_two_pipelines()),
        ),
        "lru",
        [CacheGeometry(size=64 * B, block=B), CacheGeometry(size=64 * B, block=B, ways=1)],
    ),
    "opt": (
        SIX,
        SIX_LOOPED,
        "opt",
        [CacheGeometry(size=16 * B, block=B), CacheGeometry(size=32 * B, block=B, ways=2)],
    ),
    "two_level": (
        SIX,
        SIX_LOOPED,
        "two_level",
        [TwoLevelGeometry(CacheGeometry(size=4 * B, block=B),
                          CacheGeometry(size=32 * B, block=B, ways=2))],
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
@pytest.mark.parametrize("chunk_words", [None, 53])
def test_fallbacks_agree_with_counters_at_zero(case, chunk_words):
    g, sched, policy, geoms = FALLBACKS[case]
    flat = sched.to_flat()
    want = _answers(simulate_trace(compile_trace(g, flat, B), geoms, policy=policy))
    if policy != "opt":
        assert want == _stepwise(g, flat, geoms, policy)
    with obs.capture(enabled=True) as cap:
        trace = (
            compile_trace(g, sched, B) if chunk_words is None
            else compile_trace_chunked(g, sched, B, chunk_words)
        )
        got = _answers(simulate_trace(trace, geoms, policy=policy))
    assert got == want
    repeats, geometries = _counters(cap)
    assert geometries == 0
    assert (repeats > 0) == (case != "unbalanced")
    if case == "suffix-reaches-back":
        assert trace.period is not None  # the check, not a missing period, fell back


def test_counters_zero_on_flat_schedules():
    g = SIX
    body, caps = _body(g)
    flat = _looped(body, caps, 64, 0, 0).to_flat()
    with obs.capture(enabled=True) as cap:
        trace = compile_trace(g, flat, B)
        simulate_trace(trace, [CacheGeometry(size=16 * B, block=B)])
        chunked = compile_trace_chunked(g, flat, B, chunk_words=100)
        simulate_trace(chunked, [CacheGeometry(size=16 * B, block=B, ways=1)], policy="direct")
    assert trace.period is None and chunked.period is None
    assert _counters(cap) == (0, 0)


# ----------------------------------------------------------------------
# chunked segments and the trace cache
# ----------------------------------------------------------------------
def test_corrupt_segment_of_periodic_trace_heals(tmp_path):
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 300, 3, 2)
    lru = [CacheGeometry(size=16 * B, block=B, ways=2)]
    direct = [CacheGeometry(size=32 * B, block=B, ways=1)]
    flat = compile_trace(g, sched.to_flat(), B)
    want = _answers(simulate_trace(flat, lru) + simulate_trace(flat, direct, policy="direct"))
    cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
    trace = compile_trace_chunked(g, sched, B, chunk_words=500, cache=cache)
    assert trace.period == compile_trace(g, sched, B).period
    for index in (0, trace.n_chunks - 1):  # one segment per slice
        trace.segment_path(index).write_bytes(b"not an npz")
    with obs.capture(enabled=True) as cap:
        got = _answers(simulate_trace(trace, lru) + simulate_trace(trace, direct, policy="direct"))
    assert got == want
    counters = cap.snapshot["counters"]
    assert counters[obs_names.CACHE_CORRUPT] == 2
    assert counters[obs_names.REPLAY_PERIOD_GEOMETRIES] == 2


def test_period_round_trips_through_trace_cache(tmp_path):
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 100, 1, 1)
    cache = TraceCache(tmp_path / "c")
    first, key, hit1 = cached_compile_trace(g, sched, B, cache=cache)
    second, _key, hit2 = cached_compile_trace(g, sched, B, cache=cache)
    assert (hit1, hit2) == (False, True)
    assert first.period is not None and second.period == first.period
    geom = [CacheGeometry(size=16 * B, block=B, ways=2)]
    assert _answers(simulate_trace(second, geom)) == _answers(simulate_trace(first, geom))


def test_malformed_period_reads_as_corrupt(tmp_path):
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 100, 1, 1)
    cache = TraceCache(tmp_path / "c")
    trace, key, _hit = cached_compile_trace(g, sched, B, cache=cache)
    start, length, _repeats = trace.period
    trace.period = (start, length, trace.accesses)  # runs past the trace
    cache.put(key, trace)
    assert cache.get(key) is None
    assert cache.counters.corrupt == 1


# ----------------------------------------------------------------------
# digests: a looped schedule hashes by its nest
# ----------------------------------------------------------------------
def test_looped_digest_hashes_the_nest():
    g = SIX
    body, caps = _body(g)
    sched = _looped(body, caps, 40, 1, 1)
    key = trace_digest(g, sched, B)
    assert key == trace_digest(g, _looped(body, caps, 40, 1, 1), B)
    assert key != trace_digest(g, sched.to_flat(), B)
    assert key != trace_digest(g, _looped(body, caps, 41, 1, 1), B)
    huge = LoopedSchedule((Loop(10**12, tuple(body)),), capacities=caps)
    t0 = time.perf_counter()
    trace_digest(g, huge, B)
    assert time.perf_counter() - t0 < 1.0  # the nest, not 10**12 firings

