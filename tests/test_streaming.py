"""Acceptance tests for the out-of-core streaming engine
(:mod:`repro.runtime.streaming`).

The contract is *bit-identity*: chunked compilation + carried replay must
answer exactly what the monolithic engine answers, for every policy and
**any** chunk partition — including
``chunk_words=1`` (maximal carry traffic), ``chunk_words=len(trace)`` (one
chunk, the degenerate monolithic case), and prime sizes that straddle every
frame/loop boundary.  The differential grids run through the shared harness
(:func:`~repro.testing.harness.differential_grid` with its ``chunk_sizes=``
axis), so the chain *stepwise oracle == monolithic kernel == streaming
kernel at every chunking* is pinned per access, not per total.

Also pinned here: segment-granular recompilation after cache corruption
(one truncated ``.npz`` recompiles alone — intact segments keep their bytes
and mtimes) or eviction (a cache capped below a trace's segments still
replays it), and the ``chunk_words=`` threading through every front door
(``compile_trace_chunked`` / ``simulate_trace`` / ``measure_compiled`` /
``configure``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.policy import POLICIES, stepwise_trace_misses
from repro.core.baselines import interleaved_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.graphs.topologies import pipeline
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.backend import configure
from repro.runtime.compiled import (
    compile_trace,
    measure_compiled,
    simulate_trace,
)
from repro.runtime import replay
from repro.runtime.replay import recency_carry, replay_miss_masks, replay_misses
from repro.runtime.streaming import (
    ArrayChunkSource,
    ChunkedTrace,
    compile_trace_chunked,
)
from repro.runtime.trace_cache import TraceCache
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle
from repro.testing.strategies import chunking_strategy, geometry_strategy

B = 8

#: chunk sizes every differential grid sweeps: 1 (maximal carry traffic),
#: small primes straddling frame and loop boundaries, and the trace length
#: itself (one chunk — the degenerate monolithic case) appended per test.
PRIME_SIZES = (1, 7, 13, 31)


def _trace_blocks(n=600, spread=48, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) % spread).astype(np.int64)


def _fa_geometries():
    return [CacheGeometry(size=c * B, block=B) for c in (1, 2, 3, 8, 16)]


def _sa_geometries():
    return [
        CacheGeometry(size=sets * ways * B, block=B, ways=ways)
        for ways in (1, 2, 4)
        for sets in (2, 8)
    ]


@pytest.fixture(scope="module")
def workload():
    g = fm_radio()
    sched = interleaved_schedule(g, n_iterations=2)
    trace = compile_trace(g, sched, B)
    return g, sched, trace


# ----------------------------------------------------------------------
# differential grids: streaming kernel vs stepwise oracle at every chunking
# ----------------------------------------------------------------------
class TestStreamingDifferential:
    def test_lru_chunked_matches_stepwise_at_every_size(self):
        trace = _trace_blocks()
        geoms = _fa_geometries() + _sa_geometries()
        compared = differential_grid(
            replay_kernel("lru"), stepwise_oracle("lru"), geoms, trace,
            chunk_sizes=PRIME_SIZES + (len(trace),),
        )
        assert compared == len(geoms) * (1 + len(PRIME_SIZES) + 1)

    def test_direct_chunked_matches_stepwise_at_every_size(self):
        trace = _trace_blocks(seed=4)
        geoms = _fa_geometries() + [
            CacheGeometry(size=s * B, block=B, ways=1) for s in (1, 2, 4, 16)
        ]
        differential_grid(
            replay_kernel("direct"), stepwise_oracle("direct"), geoms, trace,
            chunk_sizes=PRIME_SIZES + (len(trace),),
        )

    def test_opt_chunked_matches_stepwise_at_every_size(self):
        trace = _trace_blocks(n=400, seed=5)
        geoms = _fa_geometries() + _sa_geometries()
        differential_grid(
            replay_kernel("opt"), stepwise_oracle("opt"), geoms, trace,
            chunk_sizes=PRIME_SIZES + (len(trace),),
        )

    def test_two_level_chunked_matches_stepwise_at_every_size(self):
        trace = _trace_blocks(n=400, spread=64, seed=6)
        l1s = [
            CacheGeometry(size=2 * B, block=B),
            CacheGeometry(size=4 * B, block=B, ways=1),
        ]
        grid = [
            TwoLevelGeometry(l1, l2)
            for l1 in l1s
            for l2 in _sa_geometries()
            if l2.size >= l1.size
        ]
        differential_grid(
            replay_kernel("two_level"), stepwise_oracle("two_level"), grid, trace,
            chunk_sizes=PRIME_SIZES + (len(trace),),
        )

    def test_explicit_partition_source_matches_monolith(self):
        # an adversarial uneven partition (not fixed-size chunks)
        trace = _trace_blocks(n=200, seed=7)
        sizes = [1, 1, 97, 2, 50, 49]
        assert sum(sizes) == len(trace)
        geoms = _fa_geometries() + _sa_geometries()
        for policy in ("lru", "opt"):
            mono = replay_miss_masks(trace, geoms, policy=policy)
            chunked = replay_miss_masks(
                ArrayChunkSource(trace, sizes=sizes), geoms, policy=policy
            )
            for m, c in zip(mono, chunked):
                assert np.array_equal(m, c)


# ----------------------------------------------------------------------
# hypothesis properties: invariance under any partition, carry fold law
# ----------------------------------------------------------------------
def _partition_invariance(trace, data, policy, geoms):
    blocks = np.asarray(trace, dtype=np.int64)
    sizes = data.draw(chunking_strategy(len(trace)))
    mono = [int(np.count_nonzero(m)) for m in replay_miss_masks(blocks, geoms, policy=policy)]
    chunked = replay_misses(
        ArrayChunkSource(blocks, sizes=sizes), geoms, policy=policy
    )
    assert chunked == mono


class TestChunkingProperties:
    GEOMS = [
        CacheGeometry(size=3 * B, block=B),
        CacheGeometry(size=4 * 2 * B, block=B, ways=2),
    ]

    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=120),
        data=st.data(),
        policy=st.sampled_from(["lru", "direct", "opt"]),
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_miss_counts_invariant_under_any_partition(self, trace, data, policy):
        geoms = [g for g in self.GEOMS if policy != "direct" or g.ways in (None, 1)]
        geoms = geoms or [CacheGeometry(size=3 * B, block=B)]
        _partition_invariance(trace, data, policy, geoms)

    @given(
        trace=st.lists(st.integers(0, 40), min_size=1, max_size=100),
        data=st.data(),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_two_level_invariant_under_any_partition(self, trace, data):
        grid = [
            TwoLevelGeometry(
                CacheGeometry(size=2 * B, block=B),
                CacheGeometry(size=8 * B, block=B, ways=2),
            )
        ]
        _partition_invariance(trace, data, "two_level", grid)

    @given(
        prefix=st.lists(st.integers(0, 25), max_size=60),
        a=st.lists(st.integers(0, 25), max_size=60),
        b=st.lists(st.integers(0, 25), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_carry_fold_equals_fresh_pass_over_concatenation(self, prefix, a, b):
        # folding chunk by chunk == one fold over the concatenation: the
        # carry after any partition is the carry of the flat trace
        c0 = recency_carry(np.asarray(prefix, dtype=np.int64))
        aa = np.asarray(a, dtype=np.int64)
        bb = np.asarray(b, dtype=np.int64)
        stepped = recency_carry(np.concatenate([recency_carry(np.concatenate([c0, aa])), bb]))
        flat = recency_carry(np.concatenate([c0, aa, bb]))
        assert np.array_equal(stepped, flat)
        # and the carry is exactly the distinct blocks in recency order
        whole = np.concatenate([np.asarray(prefix, dtype=np.int64), aa, bb])
        seen = {}
        for i, blk in enumerate(whole.tolist()):
            seen[blk] = i
        expect = [blk for blk, _i in sorted(seen.items(), key=lambda kv: kv[1])]
        assert recency_carry(whole).tolist() == expect

    @given(
        trace=st.lists(st.integers(0, 80), min_size=1, max_size=300),
        data=st.data(),
        policy=st.sampled_from(["lru", "direct"]),
    )
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_trimmed_carry_replays_like_the_full_carry(self, trace, data, policy):
        # one geometry replayed in chunks under the carry its kernel trims
        # after every fold reads the whole trace's masks, and the carry
        # never outgrows the cache
        if policy == "lru":
            geom = data.draw(geometry_strategy(block=B, max_ways=4, max_sets=8))
        else:
            geom = CacheGeometry(size=data.draw(st.sampled_from([1, 2, 4, 8])) * B, block=B)
        whole = np.asarray(trace, dtype=np.int64)
        (want,) = replay_miss_masks(whole, [geom], policy)
        sizes = data.draw(chunking_strategy(len(trace)))
        carry, at = replay._Carry([replay._organization(geom, policy == "direct")]), 0
        for size in sizes:
            _synth, kept = carry.before(whole[at:at + size])
            assert kept <= geom.n_blocks
            # what is kept is the full carry's order, restricted
            full = recency_carry(whole[:at])
            assert np.array_equal(carry.blocks, full[np.isin(full, carry.blocks)])
            at += size
        (got,) = replay_miss_masks(ArrayChunkSource(whole, sizes=sizes), [geom], policy)
        assert np.array_equal(got, want)

    # -- nightly twins: same properties, cranked hard (--runslow) --------
    @pytest.mark.slow
    @given(
        trace=st.lists(st.integers(0, 80), min_size=1, max_size=600),
        data=st.data(),
        policy=st.sampled_from(["lru", "direct", "opt", "two_level"]),
    )
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_partition_invariance_nightly(self, trace, data, policy):
        if policy == "two_level":
            geoms = [
                TwoLevelGeometry(
                    CacheGeometry(size=2 * B, block=B),
                    CacheGeometry(size=16 * B, block=B, ways=4),
                )
            ]
        elif policy == "direct":
            geoms = [CacheGeometry(size=8 * B, block=B, ways=1)]
        else:
            geoms = [
                CacheGeometry(size=6 * B, block=B),
                CacheGeometry(size=8 * 4 * B, block=B, ways=4),
            ]
        _partition_invariance(trace, data, policy, geoms)

    @pytest.mark.slow
    @given(
        parts=st.lists(
            st.lists(st.integers(0, 60), max_size=80), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_carry_fold_associativity_nightly(self, parts):
        arrays = [np.asarray(p, dtype=np.int64) for p in parts]
        stepped = np.zeros(0, dtype=np.int64)
        for arr in arrays:
            stepped = recency_carry(np.concatenate([stepped, arr]))
        flat = recency_carry(np.concatenate(arrays))
        assert np.array_equal(stepped, flat)


# ----------------------------------------------------------------------
# trimmed carries: a sweep's carry stays within the caches it serves
# ----------------------------------------------------------------------
def _fa(n):
    return CacheGeometry(size=n, block=1)


def _sa(sets, ways):
    return CacheGeometry(size=sets * ways, block=1, ways=ways)


#: policy -> (sweep, blocks its organizations hold together); a two_level
#: carry serves one level, so its bound is the larger level's
STREAM_HEAVY_SWEEPS = {
    "lru": ([_fa(4), _fa(16), _sa(8, 2), _sa(4, 4)], 4 + 16 + 16 + 16),
    "direct": ([_sa(4, 1), _sa(16, 1)], 4 + 16),
    "two_level": (
        [TwoLevelGeometry(l1, l2) for l1 in (_fa(2), _sa(4, 1))
         for l2 in (_fa(8), _sa(8, 2))],
        max(2 + 4, 8 + 16),
    ),
}


@pytest.mark.parametrize("policy", sorted(STREAM_HEAVY_SWEEPS))
def test_chunked_sweep_carries_no_more_than_its_caches_hold(policy, monkeypatch):
    """A stream-heavy schedule touches a new block with nearly every
    source and sink firing, so a carry of every distinct block would grow
    with the schedule.  Replayed in chunks of 64, every pass sees at most
    a chunk plus a carry trimmed to what the swept organizations hold
    together, and the misses are the stepwise engines'."""
    g = pipeline([1, 1, 1, 1])
    trace = compile_trace(g, interleaved_schedule(g, n_iterations=400), 1)
    geoms, held = STREAM_HEAVY_SWEEPS[policy]
    assert trace.distinct_blocks() > 10 * held
    seen = []

    def spied(scan):
        def run(blocks, classes):
            seen.append(blocks.shape[0])
            return scan(blocks, classes)

        return run

    for name in ("per_set_stack_distances", "_direct_hit_mask"):
        monkeypatch.setattr(replay, name, spied(getattr(replay, name)))
    got = simulate_trace(trace, geoms, policy=policy, chunk_words=64)
    monkeypatch.undo()
    blocks = trace.blocks.tolist()
    assert [r.misses for r in got] == [
        sum(stepwise_trace_misses(blocks, geom, policy)) for geom in geoms
    ]
    assert seen and max(seen) <= 64 + held


# ----------------------------------------------------------------------
# chunked compilation: segments, equivalence, corruption recovery
# ----------------------------------------------------------------------
#: one sweep per policy for the capped-cache replay
CAPPED_SWEEPS = {
    "lru": [CacheGeometry(size=16 * B, block=B, ways=2), CacheGeometry(size=32 * B, block=B)],
    "direct": [CacheGeometry(size=16 * B, block=B, ways=1)],
    "opt": [CacheGeometry(size=16 * B, block=B, ways=2), CacheGeometry(size=8 * B, block=B)],
    "two_level": [
        TwoLevelGeometry(
            CacheGeometry(size=4 * B, block=B),
            CacheGeometry(size=16 * B, block=B, ways=2),
        )
    ],
}


class TestChunkedCompilation:
    def test_chunks_concatenate_to_the_monolithic_trace(self, workload, tmp_path):
        g, sched, mono = workload
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        ct = compile_trace_chunked(g, sched, B, chunk_words=97, cache=cache)
        assert isinstance(ct, ChunkedTrace)
        assert ct.accesses == mono.accesses and ct.firings == mono.firings
        assert ct.fire_counts == mono.fire_counts
        assert ct.source_fires == mono.source_fires
        assert ct.sink_fires == mono.sink_fires
        blocks = np.concatenate([ct.chunk(i)[0] for i in range(ct.n_chunks)])
        phases = np.concatenate([ct.chunk(i)[1] for i in range(ct.n_chunks)])
        assert np.array_equal(blocks, mono.blocks)
        assert np.array_equal(phases, mono.phases)
        # every chunk except the last is exactly chunk_words long
        for i, (lo, hi) in enumerate(ct.chunk_bounds()):
            assert (hi - lo == 97) or i == ct.n_chunks - 1

    def test_rerun_rewrites_nothing(self, workload, tmp_path):
        g, sched, _mono = workload
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        ct1 = compile_trace_chunked(g, sched, B, chunk_words=200, cache=cache)
        stamps = {
            k: ct1.segment_path(i).stat().st_mtime_ns
            for i, k in enumerate(ct1.segment_keys)
        }
        ct2 = compile_trace_chunked(g, sched, B, chunk_words=200, cache=cache)
        assert ct2.segment_keys == ct1.segment_keys
        for i, k in enumerate(ct2.segment_keys):
            assert ct2.segment_path(i).stat().st_mtime_ns == stamps[k]

    def test_chunk_words_must_be_positive(self, workload):
        g, sched, _mono = workload
        with pytest.raises(CacheConfigError, match="chunk_words"):
            compile_trace_chunked(g, sched, B, chunk_words=0)
        with pytest.raises(CacheConfigError, match="chunk_words"):
            compile_trace_chunked(g, sched, B, chunk_words=-3)

    def test_truncated_segment_recompiles_alone(self, workload, tmp_path):
        g, sched, mono = workload
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        ct = compile_trace_chunked(g, sched, B, chunk_words=150, cache=cache)
        assert ct.n_chunks >= 3
        victim = 1
        vpath = ct.segment_path(victim)
        raw = vpath.read_bytes()
        vpath.write_bytes(raw[: len(raw) // 2])  # truncate mid-file
        intact = {
            i: (ct.segment_path(i).read_bytes(), ct.segment_path(i).stat().st_mtime_ns)
            for i in range(ct.n_chunks)
            if i != victim
        }
        before_corrupt = cache.counters.corrupt
        blocks, phases = ct.chunk(victim)  # triggers the recompile
        lo, hi = ct.chunk_bounds()[victim]
        assert np.array_equal(blocks, mono.blocks[lo:hi])
        assert np.array_equal(phases, mono.phases[lo:hi])
        # exactly one corrupt entry was discarded, and only the victim was
        # rewritten: intact segments keep their bytes AND their mtimes
        assert cache.counters.corrupt == before_corrupt + 1
        for i, (data, stamp) in intact.items():
            assert ct.segment_path(i).stat().st_mtime_ns == stamp
            assert ct.segment_path(i).read_bytes() == data
        # a full replay over the healed trace matches the monolithic one
        geoms = [CacheGeometry(size=16 * B, block=B, ways=2)]
        assert simulate_trace(ct, geoms)[0] == simulate_trace(mono, geoms)[0]

    def test_unrecoverable_segment_raises(self, workload, tmp_path):
        g, sched, _mono = workload
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        ct = compile_trace_chunked(g, sched, B, chunk_words=150, cache=cache)

        def no_recompile(index: int):
            ct.segment_path(0).unlink(missing_ok=True)
            return 0, None

        ct._recompile = no_recompile
        ct.segment_path(0).unlink()
        with pytest.raises(CacheConfigError, match="segment 0"):
            ct.chunk(0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cache_capped_below_its_segments_still_replays(
        self, workload, tmp_path, policy
    ):
        """A cache capped below a trace's segments evicts some while the
        others are written, and a recompile that rewrites the absent ones
        evicts again; each read still gets its chunk, straight from the
        recompile, and the replay answers what the in-memory trace does."""
        g, sched, mono = workload
        full = compile_trace_chunked(
            g, sched, B, chunk_words=150,
            cache=TraceCache(tmp_path / "full", max_bytes=1 << 30),
        )
        size = sum(full.segment_path(i).stat().st_size for i in range(full.n_chunks))
        geoms = CAPPED_SWEEPS[policy]
        want = simulate_trace(mono, geoms, policy=policy)
        for frac in (0.9, 0.5, 0.2):
            cache = TraceCache(tmp_path / f"cap{frac}", max_bytes=int(frac * size))
            ct = compile_trace_chunked(g, sched, B, chunk_words=150, cache=cache)
            with obs.capture(enabled=True) as cap:
                got = simulate_trace(ct, geoms, policy=policy)
            assert got == want, frac
            assert cap.snapshot["counters"][obs_names.STREAM_RECOMPILED] > 0


# ----------------------------------------------------------------------
# replay front doors: simulate_trace / measure_compiled / configure, all
# bit-identical to the monolithic path
# ----------------------------------------------------------------------
class TestFrontDoors:
    @pytest.mark.parametrize("policy", ["lru", "direct", "opt", "two_level"])
    def test_simulate_trace_chunked_equals_monolithic(self, workload, policy):
        _g, _sched, trace = workload
        if policy == "two_level":
            geoms = [
                TwoLevelGeometry(
                    CacheGeometry(size=4 * B, block=B),
                    CacheGeometry(size=32 * B, block=B, ways=4),
                )
            ]
        elif policy == "direct":
            geoms = [CacheGeometry(size=16 * B, block=B, ways=1)]
        else:
            geoms = [CacheGeometry(size=16 * B, block=B, ways=2)]
        mono = simulate_trace(trace, geoms, policy=policy)
        for cw in (1, 37, trace.accesses):
            assert simulate_trace(trace, geoms, policy=policy, chunk_words=cw) == mono

    def test_chunked_trace_replays_through_simulate_trace(self, workload, tmp_path):
        g, sched, trace = workload
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        ct = compile_trace_chunked(g, sched, B, chunk_words=211, cache=cache)
        geoms = [CacheGeometry(size=c * B, block=B) for c in (2, 8, 32)]
        assert simulate_trace(ct, geoms, policy="lru") == simulate_trace(
            trace, geoms, policy="lru"
        )

    def test_measure_compiled_chunk_words_identical(self, workload):
        g, sched, _trace = workload
        geom = CacheGeometry(size=16 * B, block=B, ways=2)
        mono = measure_compiled(g, geom, sched, policy="lru")
        assert measure_compiled(g, geom, sched, policy="lru", chunk_words=64) == mono

    def test_configured_default_chunk_words_applies(self, workload):
        _g, _sched, trace = workload
        geoms = [CacheGeometry(size=8 * B, block=B)]
        mono = simulate_trace(trace, geoms, policy="lru")
        prev = configure(chunk_words=53)
        try:
            assert simulate_trace(trace, geoms, policy="lru") == mono
        finally:
            configure(*prev)

    def test_simulate_stream_rejects_unknown_policy(self, workload):
        _g, _sched, trace = workload
        with pytest.raises(CacheConfigError):
            simulate_trace(trace, [CacheGeometry(size=8 * B, block=B)],
                           policy="belady2")

    def test_array_chunk_source_validation(self):
        blocks = np.arange(10, dtype=np.int64)
        with pytest.raises(CacheConfigError, match="exactly one"):
            ArrayChunkSource(blocks)
        with pytest.raises(CacheConfigError, match="exactly one"):
            ArrayChunkSource(blocks, chunk_words=2, sizes=[5, 5])
        with pytest.raises(CacheConfigError, match="chunk_words"):
            ArrayChunkSource(blocks, chunk_words=0)
        with pytest.raises(CacheConfigError, match="sum to"):
            ArrayChunkSource(blocks, sizes=[5, 4])

