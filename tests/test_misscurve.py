"""Tests for Mattson stack distances and miss curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.misscurve import (
    _count_earlier_greater,
    experiment_e15_miss_curves,
    miss_curve,
    misses_at,
    opt_miss_curve,
    stack_distances,
    stack_distances_array,
)
from repro.cache.base import CacheGeometry
from repro.cache.lru import LRUCache
from repro.cache.opt import simulate_opt
from repro.testing.oracles import reference_stack_distances


def lru_misses(trace, blocks):
    c = LRUCache(CacheGeometry(size=blocks * 4, block=4))
    for b in trace:
        c.access_block(b)
    return c.stats.misses


class TestStackDistances:
    def test_cold_accesses_are_none(self):
        assert stack_distances([1, 2, 3]) == [None, None, None]

    def test_immediate_reuse_distance_one(self):
        assert stack_distances([5, 5]) == [None, 1]

    def test_textbook_example(self):
        # a b c a : the second 'a' has seen {b, c, a} distinct -> distance 3
        d = stack_distances([1, 2, 3, 1])
        assert d == [None, None, None, 3]

    def test_repeat_pattern(self):
        d = stack_distances([1, 2, 1, 2])
        assert d == [None, None, 2, 2]

    def test_empty(self):
        assert stack_distances([]) == []


def brute_earlier_greater(values):
    return [sum(1 for v in values[:i] if v > values[i]) for i in range(len(values))]


class TestCountEarlierGreater:
    """The wavelet count against the O(n^2) definition, at lengths around
    the powers of two where its bit count changes."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 255, 256, 257])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(-1, max(n, 1), size=n)
        values[rng.random(n) < 0.3] = -1  # repeated cold accesses
        got = _count_earlier_greater(values)
        assert got.dtype == np.int64
        assert got.tolist() == brute_earlier_greater(values.tolist())

    def test_all_cold(self):
        assert _count_earlier_greater(np.full(5, -1)).tolist() == [0] * 5


class TestVectorizedKernel:
    """The vectorized stack-distance kernel against the sequential Fenwick
    oracle."""

    def test_matches_reference_on_randoms(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(0, 300))
            k = int(rng.integers(1, 25))
            trace = rng.integers(0, k, size=n).tolist()
            assert stack_distances(trace) == reference_stack_distances(trace)

    def test_array_form_cold_sentinel(self):
        d = stack_distances_array([4, 9, 4, 4])
        assert d.tolist() == [0, 0, 2, 1]

    def test_large_trace_matches_reference(self):
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 64, size=20000).tolist()
        assert stack_distances(trace) == reference_stack_distances(trace)

    def test_long_reuse_gaps_past_16_bits(self):
        # 70,000 accesses over 30,000 blocks: previous occurrences reach
        # past 2**16, so the count walks 17 bits
        rng = np.random.default_rng(12)
        trace = rng.integers(0, 30000, size=70000).tolist()
        assert stack_distances(trace) == reference_stack_distances(trace)

    @given(trace=st.lists(st.integers(0, 12), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, trace):
        assert stack_distances(trace) == reference_stack_distances(trace)


class TestMissCurve:
    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 20, size=500).tolist()
        curve = miss_curve(trace)
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_floor_is_compulsory(self):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 15, size=400).tolist()
        curve = miss_curve(trace)
        assert curve[-1] == len(set(trace))

    def test_zero_cache_misses_everything(self):
        trace = [1, 1, 1]
        curve = miss_curve(trace)
        assert curve[0] == 3

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8, 13])
    def test_matches_lru_simulation(self, blocks):
        rng = np.random.default_rng(blocks)
        trace = rng.integers(0, 16, size=800).tolist()
        assert misses_at(trace, blocks) == lru_misses(trace, blocks)

    @given(trace=st.lists(st.integers(0, 10), max_size=200), blocks=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_matches_lru_property(self, trace, blocks):
        assert misses_at(trace, blocks) == lru_misses(trace, blocks)

    def test_max_blocks_truncation(self):
        trace = list(range(50)) * 2
        curve = miss_curve(trace, max_blocks=10)
        assert len(curve) == 11  # indices 0..max_blocks inclusive


class TestOptMissCurve:
    """`opt_miss_curve` mirrors `miss_curve` with Belady distances."""

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 20, size=500).tolist()
        curve = opt_miss_curve(trace)
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_floor_is_compulsory(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 15, size=400).tolist()
        curve = opt_miss_curve(trace)
        assert curve[-1] == len(set(trace))

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8, 13])
    def test_matches_opt_simulation(self, blocks):
        rng = np.random.default_rng(blocks + 100)
        trace = rng.integers(0, 16, size=800).tolist()
        curve = opt_miss_curve(trace, max_blocks=blocks)
        geom = CacheGeometry(size=blocks * 4, block=4)
        assert int(curve[blocks]) == simulate_opt(trace, geom).misses

    @given(trace=st.lists(st.integers(0, 10), min_size=1, max_size=200),
           blocks=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_matches_opt_property(self, trace, blocks):
        curve = opt_miss_curve(trace, max_blocks=blocks)
        geom = CacheGeometry(size=blocks * 4, block=4)
        assert int(curve[min(blocks, len(curve) - 1)]) == simulate_opt(trace, geom).misses

    def test_never_above_lru_curve(self):
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 24, size=600).tolist()
        lru = miss_curve(trace, max_blocks=24)
        opt = opt_miss_curve(trace, max_blocks=24)
        assert (opt <= lru).all()

    def test_empty_trace(self):
        assert opt_miss_curve([]).tolist() == [0]
        assert opt_miss_curve([], max_blocks=4).tolist() == [0, 0, 0, 0, 0]


class TestE15:
    def test_partitioned_collapses_before_naive(self):
        rows = experiment_e15_miss_curves(n_outputs=200)
        by = {r["cache_over_M"]: r for r in rows}
        # in the regime where one component fits but the whole graph doesn't,
        # partitioning wins by an order of magnitude
        mid = [r for r in rows if 1.5 <= r["cache_over_M"] <= 3.0]
        assert mid and all(r["naive_over_partitioned"] > 10 for r in mid)
        # once the whole graph is resident the naive schedule is optimal
        # (smaller footprint: no Theta(M) cross buffers)
        big = [r for r in rows if r["cache_over_M"] >= 4.0]
        assert big and all(r["naive_over_partitioned"] <= 1.0 for r in big)

    def test_opt_overlay_bounds_lru(self):
        rows = experiment_e15_miss_curves(n_outputs=200)
        for r in rows:
            assert r["partitioned_opt"] <= r["partitioned_misses"]
            assert r["naive_opt"] <= r["naive_misses"]
        # OPT cannot rescue the naive schedule in the mid regime: the
        # paper's win comes from scheduling, not replacement policy
        mid = [r for r in rows if 1.5 <= r["cache_over_M"] <= 3.0]
        assert mid and all(r["naive_opt"] > r["partitioned_misses"] for r in mid)
