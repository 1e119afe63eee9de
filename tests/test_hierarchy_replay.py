"""Differential and property tests for the two-level hierarchy replay.

The acceptance criterion of the hierarchy rewiring: the vectorized
``policy="two_level"`` kernel (:mod:`repro.runtime.replay`) must agree *per
access* with the stepwise :class:`~repro.cache.hierarchy.TwoLevelCache`
oracle on random traces and a grid of (L1, L2) organizations — exact
miss-position equality, not approximate agreement — plus the structural
properties an inclusive hierarchy must satisfy (infinite-L2 degeneration,
capacity ordering, level-mask consistency).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelCache, TwoLevelGeometry
from repro.cache.policy import stepwise_trace_misses
from repro.core.baselines import single_appearance_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.runtime.compiled import compile_trace, measure_compiled, simulate_trace
from repro.runtime.executor import Executor
from repro.runtime.replay import replay_miss_masks, replay_misses
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle

B = 8


def _level_masks(trace, tg):
    """Per-access ``(L1 miss, memory miss)`` masks of one hierarchy, read
    as experiment A8 reads them."""
    (l1_mask,) = replay_miss_masks(trace, [tg.l1], "lru")
    (mem_mask,) = replay_miss_masks(trace, [tg], "two_level")
    return l1_mask, mem_mask


def stepwise_mask(trace, geometry):
    return [bool(m) for m in stepwise_trace_misses(trace, geometry, "two_level")]


def _grid():
    """(L1, L2) organizations covering the interesting corners: direct and
    set-associative L1s, L2 == L1 (equal geometries), and L2 >> L1."""
    points = []
    for l1_frames, l1_ways in ((2, None), (4, None), (4, 1), (8, 2), (16, 1)):
        l1 = CacheGeometry(size=l1_frames * B, block=B, ways=l1_ways)
        for l2_frames, l2_ways in (
            (l1_frames, None),  # equal capacity
            (2 * l1_frames, None),
            (32, None),
            (32, 4),
            (64, 1),  # direct-mapped L2
        ):
            if l2_frames < l1_frames:
                continue
            points.append(
                TwoLevelGeometry(
                    l1, CacheGeometry(size=l2_frames * B, block=B, ways=l2_ways)
                )
            )
    return points


class TestTwoLevelGeometry:
    def test_block_property_and_describe(self):
        tg = TwoLevelGeometry(CacheGeometry(64, 8), CacheGeometry(256, 8, ways=4))
        assert tg.block == 8
        assert "L1=64w" in tg.describe() and "4-way" in tg.describe()

    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(CacheConfigError, match=r"L2 \(64\) must be at least"):
            TwoLevelGeometry(CacheGeometry(128, 8), CacheGeometry(64, 8))

    def test_mismatched_blocks_rejected(self):
        # the replay drives both levels from one block trace
        with pytest.raises(CacheConfigError, match="one block size"):
            TwoLevelGeometry(CacheGeometry(64, 4), CacheGeometry(256, 8))

    def test_non_geometry_levels_rejected(self):
        with pytest.raises(CacheConfigError):
            TwoLevelGeometry(64, CacheGeometry(256, 8))

    def test_plain_geometry_rejected_by_policy(self):
        with pytest.raises(CacheConfigError, match="TwoLevelGeometry"):
            stepwise_trace_misses([0, 1], CacheGeometry(64, 8), "two_level")
        with pytest.raises(CacheConfigError, match="TwoLevelGeometry"):
            replay_miss_masks(np.asarray([0, 1]), [CacheGeometry(64, 8)], "two_level")


class TestTwoLevelDifferential:
    @given(trace=st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_masks_match_stepwise(self, trace):
        differential_grid(
            replay_kernel("two_level"), stepwise_oracle("two_level"), _grid(), trace
        )

    def test_long_skewed_trace(self):
        rng = np.random.default_rng(17)
        trace = (rng.zipf(1.4, size=10_000) % 120).astype(np.int64)
        differential_grid(
            replay_kernel("two_level"), stepwise_oracle("two_level"), _grid(), trace
        )

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.int64)
        masks = replay_miss_masks(empty, _grid(), "two_level")
        assert all(m.shape == (0,) for m in masks)


class TestTwoLevelProperties:
    def setup_method(self):
        rng = np.random.default_rng(29)
        self.trace = rng.integers(0, 96, size=5_000)

    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=200),
        l1_frames=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_infinite_l2_degenerates_to_single_level(self, trace, l1_frames):
        """With an L2 no trace can outgrow, the hierarchy's L1 behaves as a
        single-level L1 and memory transfers hit the compulsory floor."""
        arr = np.asarray(trace, dtype=np.int64)
        l1 = CacheGeometry(size=l1_frames * B, block=B)
        inf_l2 = CacheGeometry(size=max(64, len(trace)) * B, block=B)
        l1_mask, mem_mask = _level_masks(arr, TwoLevelGeometry(l1, inf_l2))
        (single,) = replay_miss_masks(arr, [l1], "lru")
        assert l1_mask.tolist() == single.tolist()
        assert int(mem_mask.sum()) == len(set(trace))  # compulsory misses only

    def test_memory_misses_subset_of_l1_misses(self):
        for tg in _grid():
            l1_mask, mem_mask = _level_masks(self.trace, tg)
            assert bool((mem_mask <= l1_mask).all()), tg.describe()

    def test_larger_l2_never_hurts_behind_fixed_l1(self):
        # fixed L1 => fixed miss sub-trace; LRU inclusion applies to the L2
        l1 = CacheGeometry(size=4 * B, block=B)
        geoms = [
            TwoLevelGeometry(l1, CacheGeometry(size=c * B, block=B))
            for c in (4, 8, 16, 32, 64)
        ]
        misses = replay_misses(self.trace, geoms, "two_level")
        assert misses == sorted(misses, reverse=True)

    def test_equal_geometries_still_filter(self):
        # L2 == L1 capacity is legal; L2 orders by miss time, not access
        # time, so it may hit where L1 missed — but never transfers more
        # than an L1-sized single level misses
        l1 = CacheGeometry(size=4 * B, block=B)
        tg = TwoLevelGeometry(l1, l1)
        (mem,) = replay_misses(self.trace, [tg], "two_level")
        (single,) = replay_misses(self.trace, [l1], "lru")
        assert mem <= single
        assert mem == sum(stepwise_mask(self.trace.tolist(), tg))

    def test_l2_frames_below_l1_frames_rejected_everywhere(self):
        l1 = CacheGeometry(size=16 * B, block=B)
        l2 = CacheGeometry(size=8 * B, block=B)
        with pytest.raises(CacheConfigError):
            TwoLevelGeometry(l1, l2)
        with pytest.raises(CacheConfigError):
            TwoLevelCache(l1, l2)


class TestSimulateTraceTwoLevel:
    """End-to-end: compiled hierarchy sweeps vs the stepwise executor."""

    def _workload(self):
        g = fm_radio(taps=16, bands=3)
        return g, single_appearance_schedule(g, n_iterations=6)

    def test_matches_executor_with_phases(self):
        g, sched = self._workload()
        l1 = CacheGeometry(size=128, block=B)
        l2 = CacheGeometry(size=512, block=B)
        trace = compile_trace(g, sched, B)
        fast = simulate_trace(trace, [TwoLevelGeometry(l1, l2)], policy="two_level")[0]
        ref = Executor.measure(g, l2, sched, cache=TwoLevelCache(l1, l2))
        assert fast.misses == ref.misses
        assert fast.accesses == ref.accesses
        assert fast.phase_misses == ref.phase_misses
        assert fast.source_fires == ref.source_fires

    def test_measure_compiled_two_level(self):
        g, sched = self._workload()
        tg = TwoLevelGeometry(
            CacheGeometry(size=128, block=B), CacheGeometry(size=512, block=B)
        )
        res = measure_compiled(g, tg, sched, policy="two_level")
        lru = measure_compiled(g, tg.l2, sched)  # single level of L2's size
        assert res.misses <= measure_compiled(g, tg.l1, sched).misses
        assert res.misses >= 0 and res.accesses == lru.accesses

    def test_block_mismatch_rejected(self):
        g, sched = self._workload()
        trace = compile_trace(g, sched, B)
        tg = TwoLevelGeometry(CacheGeometry(64, 4), CacheGeometry(256, 4))
        with pytest.raises(CacheConfigError, match="block"):
            simulate_trace(trace, [tg], policy="two_level")

    def test_one_l1_pass_amortizes_grid(self):
        # one compiled trace answers a whole (L1, L2) grid in one call, and
        # rows grouped by L1 share their L1 column exactly
        g, sched = self._workload()
        trace = compile_trace(g, sched, B)
        l1s = [CacheGeometry(size=s, block=B) for s in (64, 128)]
        l2s = [CacheGeometry(size=s, block=B) for s in (256, 512, 1024)]
        grid = [TwoLevelGeometry(a, b) for a in l1s for b in l2s]
        results = simulate_trace(trace, grid, policy="two_level")
        assert len(results) == 6
        for tg, res in zip(grid, results):
            ref = sum(stepwise_mask(trace.blocks.tolist(), tg))
            assert res.misses == ref, tg.describe()
