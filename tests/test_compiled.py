"""Tests for the trace-compilation engine (repro.runtime.compiled).

The load-bearing property is *exact* equivalence with the stepwise
executor: same block trace, same misses at every geometry, same phase
attribution.  The compiler derives every window from token arithmetic
instead of stepping buffers, so the executor is its specification: the
oracle suite exercises the seed graphs the acceptance criteria name
(pipeline, fm_radio) plus the circular-buffer wrap-around case, and the
differential properties at the end draw random graphs, block sizes,
layouts, chunkings and infeasible schedules against it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache.base import CacheGeometry
from repro.cache.policy import get_policy
from repro.core.baselines import interleaved_schedule, single_appearance_schedule
from repro.core.partition_sched import (
    component_layout_order,
    inhomogeneous_partition_schedule,
    pipeline_dynamic_schedule,
)
from repro.core.dagpart import interval_dp_partition
from repro.core.pipeline import optimal_pipeline_partition
from repro.core.tuning import choose_batch, required_geometry
from repro.errors import CacheConfigError, GraphError, ScheduleError
from repro.graphs.apps import fm_radio
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import pipeline, random_pipeline
from repro.mem.layout import Region, layout_objects
from repro.obs import names as obs_names
from repro.runtime import backend, replay
from repro.runtime.buffers import ChannelBuffer
from repro.runtime.compiled import (
    MEASURE_CHUNK_WORDS,
    TraceCompiler,
    compile_trace,
    measure_compiled,
    simulate_trace,
)
from repro.runtime.deadlock import demand_driven_schedule
from repro.runtime.executor import Executor
from repro.runtime.looped import Loop, LoopedSchedule
from repro.runtime.schedule import Schedule
from repro.testing.oracles import assert_trace_equivalent
from repro.testing.strategies import (
    geometry_strategy,
    placement_strategy,
    rate_matched_pipelines,
    small_dags,
)


B = 8


class TestOracleSuite:
    """simulate_trace / miss_curve vs step-by-step LRUCache across geometries."""

    def test_pipeline_interleaved(self):
        g = pipeline([16, 8, 24])
        assert_trace_equivalent(g, interleaved_schedule(g, n_iterations=40), B, [32, 64, 128, 256])

    def test_pipeline_partitioned_dynamic(self):
        g = pipeline([32] * 8)
        M = 96
        geom = CacheGeometry(size=M, block=B)
        part = optimal_pipeline_partition(g, M, c=1.0)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=120)
        assert_trace_equivalent(
            g, sched, B, [64, 128, 256], layout_order=component_layout_order(part)
        )

    def test_fm_radio_partitioned(self):
        g = fm_radio(taps=24, bands=3)
        M = 128
        geom = CacheGeometry(size=M, block=B)
        part = interval_dp_partition(g, M, c=2.0)
        plan = choose_batch(g, M, cross_cids=[c.cid for c in part.cross_channels()])
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=2, plan=plan)
        trace = assert_trace_equivalent(
            g, sched, B, [128, 256, 512], layout_order=component_layout_order(part)
        )
        assert trace.source_fires > 0 and trace.sink_fires > 0

    def test_fm_radio_single_appearance(self):
        g = fm_radio(taps=16, bands=3)
        assert_trace_equivalent(
            g, single_appearance_schedule(g, n_iterations=8), B, [64, 192, 384]
        )

    def test_multirate_pipeline(self):
        g = random_pipeline(8, 24, seed=5, rate_choices=[(1, 1), (2, 1), (1, 2), (3, 2)])
        assert_trace_equivalent(
            g, single_appearance_schedule(g, n_iterations=10), B, [32, 96, 256]
        )

    def test_unaligned_block_size(self):
        # B=4 with odd state sizes exercises partial-block regions
        g = pipeline([7, 13, 5])
        assert_trace_equivalent(g, interleaved_schedule(g, n_iterations=15), 4, [16, 32, 64])


class TestWrapAround:
    """Circular-buffer windows that wrap the region end, feeding the compiler."""

    def _wrap_graph(self):
        g = StreamGraph("wrap")
        g.add_module("m0", state=8)
        g.add_module("m1", state=8)
        g.add_channel("m0", "m1", out_rate=3, in_rate=3)
        return g

    def test_channelbuffer_wrap_ranges(self):
        # capacity 7, rate 3: the third push starts at slot 6 and wraps
        buf = ChannelBuffer(0, Region(0, 7))
        assert buf.push_ranges(3) == [(0, 3)]
        assert buf.push_ranges(3) == [(3, 3)]
        assert buf.pop_ranges(3) == [(0, 3)]
        ranges = buf.push_ranges(3)
        assert ranges == [(6, 1), (0, 2)]  # two ranges: the window wrapped
        assert buf.pop_ranges(3) == [(3, 3)]
        assert buf.pop_ranges(3) == [(6, 1), (0, 2)]

    def test_compiler_matches_executor_through_wraps(self):
        g = self._wrap_graph()
        # head walks 0,3,6,2,5,1,4 mod 7 — every wrap offset is exercised
        firings = ["m0", "m0", "m1"] + ["m0", "m1"] * 20
        sched = Schedule(firings, capacities={0: 7}, label="wrap")
        trace = assert_trace_equivalent(g, sched, 4, [8, 16, 32])
        assert trace.firings == len(firings)

    def test_wrap_window_blocks_are_two_runs(self):
        g = self._wrap_graph()
        sched = Schedule(["m0", "m0", "m1", "m0"], capacities={0: 7}, label="wrap")
        compiler = TraceCompiler(g, 4, capacities={0: 7})
        trace = compiler.compile(sched)
        # the final push wraps: its window touches the buffer's last block
        # then its first block again (non-monotone block ids within a firing)
        buf_region = compiler.layout.buffer_region(0)
        first_block = buf_region.start // 4
        last_block = (buf_region.end - 1) // 4
        blocks = trace.blocks.tolist()
        wrap_pos = [
            i for i in range(1, len(blocks)) if blocks[i - 1] == last_block and blocks[i] == first_block
        ]
        assert wrap_pos, "expected a wrapped window touching last then first block"


class TestCompiledTrace:
    def test_trace_metadata(self):
        g = pipeline([16, 8])
        sched = interleaved_schedule(g, n_iterations=5)
        trace = compile_trace(g, sched, B)
        assert trace.accesses == len(trace) == trace.blocks.shape[0]
        assert trace.phases is not None and trace.phases.shape == trace.blocks.shape
        assert trace.firings == 10
        assert trace.fire_counts == {"m0": 5, "m1": 5}
        assert trace.source_fires == 5 and trace.sink_fires == 5
        assert trace.distinct_blocks() <= trace.accesses

    def test_looped_schedule_matches_flat(self):
        g = pipeline([16, 8, 8])
        flat = interleaved_schedule(g, n_iterations=30)
        looped = LoopedSchedule(
            (Loop(30, ("m0", "m1", "m2")),), capacities=flat.capacities, label=flat.label
        )
        assert list(looped.firings_iter()) == flat.firings
        a = compile_trace(g, flat, B)
        b = compile_trace(g, looped, B)
        assert (a.blocks == b.blocks).all()
        assert a.fire_counts == b.fire_counts

    def test_infeasible_schedule_raises(self):
        g = pipeline([8, 8])
        with pytest.raises(ScheduleError):
            compile_trace(g, Schedule(["m1"]), B)

    def test_overflow_raises(self):
        g = pipeline([8, 8])
        with pytest.raises(ScheduleError):
            compile_trace(g, Schedule(["m0"] * 100, capacities={0: 2}), B)

    def test_block_mismatch_rejected(self):
        g = pipeline([8, 8])
        trace = compile_trace(g, interleaved_schedule(g, n_iterations=2), B)
        with pytest.raises(CacheConfigError):
            simulate_trace(trace, [CacheGeometry(size=32, block=4)])

    def test_measure_compiled_is_drop_in(self):
        g = random_pipeline(6, 20, seed=1, rate_choices=[(1, 1), (2, 1)])
        sched = single_appearance_schedule(g, n_iterations=12)
        geom = CacheGeometry(size=64, block=B)
        fast = measure_compiled(g, geom, sched)
        ref = Executor.measure(g, geom, sched)
        assert fast.misses == ref.misses
        assert fast.accesses == ref.accesses
        assert fast.phase_misses == ref.phase_misses
        assert fast.misses_per_source_fire == ref.misses_per_source_fire

    def test_single_pass_is_monotone_in_size(self):
        g = pipeline([32] * 6)
        sched = interleaved_schedule(g, n_iterations=30)
        trace = compile_trace(g, sched, B)
        sizes = [8, 16, 32, 64, 128, 256, 512]
        misses = [r.misses for r in simulate_trace(trace, [CacheGeometry(size=s, block=B) for s in sizes])]
        assert misses == sorted(misses, reverse=True)  # LRU inclusion property

    def test_recorded_trace_interop(self):
        from repro.cache.lru import LRUCache
        from repro.mem.trace import TraceRecorder, TracingCache

        g = pipeline([16, 8])
        sched = interleaved_schedule(g, n_iterations=10)
        geom = CacheGeometry(size=512, block=B)
        rec = TraceRecorder()
        Executor.measure(g, geom, sched, cache=TracingCache(LRUCache(geom), rec))
        observed = rec.to_compiled(B)
        compiled = compile_trace(g, sched, B)
        assert (observed.blocks == compiled.blocks).all()
        small = CacheGeometry(size=32, block=B)
        assert (
            simulate_trace(observed, [small])[0].misses
            == simulate_trace(compiled, [small])[0].misses
        )


class TestReusedCompiler:
    def test_each_compile_starts_from_the_delays(self):
        """A schedule that leaves tokens behind compiles the same trace on
        every call of one compiler, chunked or not: each call starts from
        the channel delays and stream position 0."""
        g = StreamGraph("reuse")
        g.add_module("m0", state=8)
        g.add_module("m1", state=8)
        g.add_module("m2", state=4)
        g.add_channel("m0", "m1", out_rate=2, in_rate=1, delay=1)
        g.add_channel("m1", "m2")
        sched = Schedule(["m0", "m1", "m1", "m2", "m0"], capacities={0: 5, 1: 2})
        compiler = TraceCompiler(g, 4, capacities=sched.capacities)
        first = compiler.compile(sched)
        second = compiler.compile(sched)
        assert np.array_equal(first.blocks, second.blocks)
        assert np.array_equal(first.phases, second.phases)
        assert second.fire_counts == first.fire_counts == {"m0": 2, "m1": 2, "m2": 1}
        chunks = list(compiler.compile_chunks(sched, chunk_words=3))
        assert np.array_equal(np.concatenate([b for b, _p in chunks]), first.blocks)
        oracle = assert_trace_equivalent(g, sched, 4, [4, 16])
        assert np.array_equal(oracle.blocks, first.blocks)


# ----------------------------------------------------------------------
# differential properties: the pass against the stepwise executor
# ----------------------------------------------------------------------
@st.composite
def _graph_schedules(draw):
    """A random pipeline (multi-rate, with delays) or homogeneous dag under
    minBuf capacities, so buffer windows wrap, and one to three balanced
    steady-state iterations of a demand-driven schedule."""
    g = draw(st.one_of(
        rate_matched_pipelines(max_n=4, max_state=20, with_delays=True),
        small_dags(max_layers=2, max_width=2, max_state=12),
    ))
    caps = min_buffers(g)
    body = demand_driven_schedule(g, repetition_vector(g), caps)
    return g, Schedule(body * draw(st.integers(1, 3)), capacities=caps, label="hyp")


@given(data=st.data())
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_pass_matches_the_executor_at_every_chunking(data):
    g, sched = data.draw(_graph_schedules())
    block = data.draw(st.sampled_from([1, 3, 4, 8]))
    placement = gaps = None
    if data.draw(st.booleans()):
        placement, gaps = data.draw(placement_strategy(layout_objects(g), max_gap=2))
    layout = dict(placement=placement, gaps=gaps)
    trace = assert_trace_equivalent(g, sched, block, [block, 4 * block, 32 * block], **layout)
    for chunk_words in (1, 37, None):
        compiler = TraceCompiler(g, block, capacities=sched.capacities, **layout)
        chunks = list(compiler.compile_chunks(sched, chunk_words=chunk_words))
        assert all(b.shape[0] == (chunk_words or trace.accesses) for b, _p in chunks[:-1])
        assert np.array_equal(np.concatenate([b for b, _p in chunks]), trace.blocks)
        assert np.array_equal(np.concatenate([p for _b, p in chunks]), trace.phases)
        assert compiler.last.fire_counts == trace.fire_counts
        assert compiler.last.accesses == trace.accesses


def _outcome(run):
    try:
        run()
    except (ScheduleError, GraphError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


@given(data=st.data())
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_infeasible_and_unknown_firings_raise_the_executor_error(data):
    """One firing moved earlier (and maybe an unknown module name dropped
    in): compilation raises exactly what ``Executor.measure`` raises, with
    the same message, or succeeds when it does."""
    g, sched = data.draw(_graph_schedules())
    firings = list(sched.firings)
    if len(firings) > 1:
        i = data.draw(st.integers(1, len(firings) - 1))
        firings.insert(data.draw(st.integers(0, i - 1)), firings.pop(i))
    if data.draw(st.booleans()):
        firings.insert(data.draw(st.integers(0, len(firings))), "ghost")
    moved = Schedule(firings, capacities=sched.capacities)
    want = _outcome(lambda: Executor.measure(g, CacheGeometry(size=64, block=B), moved))
    event(want[0])
    assert _outcome(lambda: compile_trace(g, moved, B)) == want
    compiler = TraceCompiler(g, B, capacities=moved.capacities)
    assert _outcome(lambda: list(compiler.compile_chunks(moved, chunk_words=5))) == want


@pytest.mark.parametrize("chunk_words", [None, 1, 37])
def test_nested_and_unbalanced_loops_equal_their_flat_expansion(chunk_words):
    g = pipeline([16, 8, 24])
    nested = LoopedSchedule(
        (Loop(3, (Loop(20, ("m0", "m1", "m2")),)),
         Loop(40, (Loop(2, ("m0",)), Loop(2, ("m1",)), Loop(2, ("m2",)))), "m0"),
        capacities={0: 2, 1: 2},
    )
    unbalanced = LoopedSchedule((Loop(20, ("m0", "m0", "m1")),), capacities={0: 64, 1: 64})
    for sched, periodic in ((nested, True), (unbalanced, False)):
        looped = TraceCompiler(g, B, capacities=sched.capacities)
        flat = TraceCompiler(g, B, capacities=sched.capacities)
        got = list(looped.compile_chunks(sched, chunk_words=chunk_words))
        want = list(flat.compile_chunks(sched.to_flat(), chunk_words=chunk_words))
        assert len(got) == len(want)
        for (gb, gp), (wb, wp) in zip(got, want):
            assert np.array_equal(gb, wb) and np.array_equal(gp, wp)
        assert looped.last.fire_counts == flat.last.fire_counts
        assert looped.last.accesses == flat.last.accesses
        assert (looped.last.period is not None) == periodic


# ----------------------------------------------------------------------
# the streamed single-geometry measure against the stepwise executor
# ----------------------------------------------------------------------
def _summary(res):
    return (
        res.label, res.firings, res.misses, res.accesses, res.phase_misses,
        res.fire_counts, res.source_fires, res.sink_fires,
    )


@given(data=st.data())
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_streamed_measure_matches_the_executor(data):
    """``measure_compiled`` streams an lru or direct geometry of a flat
    schedule chunk by chunk under the recency carry: at every chunk size
    the configured default can set, it answers what ``Executor.measure``
    answers with that policy's stepwise cache, metadata included."""
    g, sched = data.draw(_graph_schedules())
    block = data.draw(st.sampled_from([1, 4, 8]))
    policy = data.draw(st.sampled_from(["lru", "direct"]))
    if policy == "lru":  # fully or set associative, ways=1 included
        geom = data.draw(geometry_strategy(block=block, max_ways=4, max_sets=8))
    else:
        geom = CacheGeometry(size=data.draw(st.sampled_from([1, 2, 8, 32])) * block, block=block)
    layout = dict(placement=None, gaps=None)
    if data.draw(st.booleans()):
        layout["placement"], layout["gaps"] = data.draw(
            placement_strategy(layout_objects(g), max_gap=2)
        )
    chunk_words = data.draw(st.sampled_from([1, 7, 64, None]))
    event(f"{policy}, chunk_words={chunk_words}")
    want = Executor.measure(g, geom, sched, cache=get_policy(policy).make_model(geom), **layout)
    previous = backend.configure(chunk_words=chunk_words)
    try:
        with obs.capture(enabled=True) as cap:
            got = measure_compiled(g, geom, sched, policy=policy, **layout)
    finally:
        backend.configure(*previous)
    assert _summary(got) == _summary(want)
    counters = cap.snapshot["counters"]
    assert counters.get(obs_names.STREAM_CHUNKS, 0) == -(
        -want.accesses // (chunk_words or MEASURE_CHUNK_WORDS)
    )
    assert counters[obs_names.COMPILE_CALLS] == 1
    assert counters[obs_names.REPLAY_GEOMETRIES] == 1


@pytest.mark.parametrize("chunk_words", [7, 64, None])
@pytest.mark.parametrize(
    "policy, geom",
    [
        ("lru", CacheGeometry(size=8, block=1)),
        ("lru", CacheGeometry(size=8, block=1, ways=2)),
        ("direct", CacheGeometry(size=8, block=1)),
    ],
)
def test_streamed_measure_of_a_stream_heavy_schedule(policy, geom, chunk_words, monkeypatch):
    """External-stream blocks are nearly all of this schedule's distinct
    blocks, so its recency carry grows with the schedule; trimmed to the
    geometry after every fold it stays within the cache, and the answer
    is still the executor's.  The schedule spans three chunks even at the
    default chunk size, so every case folds a carry."""
    g = pipeline([1, 1, 1, 1])
    sched = interleaved_schedule(g, n_iterations=3000)
    trace = compile_trace(g, sched, 1)
    assert trace.distinct_blocks() > 50 * geom.n_blocks
    assert trace.accesses > 2 * MEASURE_CHUNK_WORDS
    kept = []
    before = replay._Carry.before

    def spy(carry, chunk):
        out = before(carry, chunk)
        kept.append(out[1])
        return out

    monkeypatch.setattr(replay._Carry, "before", spy)
    want = Executor.measure(g, geom, sched, cache=get_policy(policy).make_model(geom))
    previous = backend.configure(chunk_words=chunk_words)
    try:
        got = measure_compiled(g, geom, sched, policy=policy)
    finally:
        backend.configure(*previous)
    assert _summary(got) == _summary(want)
    assert 0 < max(kept) <= geom.n_blocks


@pytest.mark.parametrize("firings", [[], ["m0", "m1"]])
def test_streamed_measure_rejects_direct_geometries_with_ways(firings):
    """A direct-mapped geometry with ways > 1 is rejected as the stepwise
    ``DirectMappedCache`` rejects it, even for a schedule with no
    firings, which yields no chunk to replay."""
    g = pipeline([8, 8])
    geom = CacheGeometry(size=64, block=B, ways=2)
    with pytest.raises(CacheConfigError, match="ways=2"):
        Executor.measure(g, geom, Schedule(firings), cache=get_policy("direct").make_model(geom))
    with pytest.raises(CacheConfigError, match="ways=2"):
        measure_compiled(g, geom, Schedule(firings), policy="direct")


def test_streamed_measure_allocates_a_fraction_of_its_trace():
    """E1's heavy-n20 schedule (1.4M accesses) measures without building
    its trace: the traced allocation peak stays under a quarter of the
    trace's bytes (the monolithic compile and replay allocate ~9.5x)."""
    g = random_pipeline(20, 100, seed=9, rate_choices=((1, 1), (2, 1), (1, 2)))
    geom = CacheGeometry(size=160, block=B)
    part = optimal_pipeline_partition(g, 160, c=3.0)
    sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=200)
    run_geom, order = required_geometry(part, geom), component_layout_order(part)
    # a first call imports what numpy loads lazily (~1.3 MB of modules)
    res = measure_compiled(g, run_geom, sched, layout_order=order)
    tracemalloc.start()
    try:
        assert measure_compiled(g, run_geom, sched, layout_order=order) == res
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace_bytes = res.accesses * (np.dtype(np.int64).itemsize + np.dtype(np.uint8).itemsize)
    assert res.accesses > 10**6
    assert peak < trace_bytes / 4
