"""Differential property tests for the policy-aware replay subsystem.

The vectorized kernels in :mod:`repro.runtime.replay` must agree *per
access* with the stepwise engines the policy registry binds
(:class:`~repro.cache.lru.LRUCache`,
:class:`~repro.cache.direct.DirectMappedCache`,
:func:`~repro.cache.opt.simulate_opt`) — on random traces, random
geometries, and the degenerate corners (1 set, 1 way, empty traces, traces
shorter than the cache).  These are the acceptance tests for the unified
replay engine: exact miss-count (and miss-position) equality, not
approximate agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.cache.direct import DirectMappedCache
from repro.cache.lru import LRUCache
from repro.cache.opt import simulate_opt, simulate_opt_misses
from repro.cache.policy import available_policies, get_policy, stepwise_trace_misses
from repro.core.baselines import interleaved_schedule, single_appearance_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.graphs.topologies import random_pipeline
from repro.runtime.compiled import compile_trace, measure_compiled, simulate_trace
from repro.runtime.executor import Executor
from repro.runtime.replay import (
    opt_stack_distances,
    per_set_stack_distances,
    replay_miss_masks,
    replay_misses,
)
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle

B = 8


def stepwise_mask(trace, geometry, policy):
    return [bool(m) for m in stepwise_trace_misses(trace, geometry, policy)]


# ----------------------------------------------------------------------
# geometry validation (the small-fix satellite)
# ----------------------------------------------------------------------
class TestGeometryValidation:
    def test_fully_associative_default(self):
        g = CacheGeometry(size=96, block=8)
        assert g.ways is None
        assert g.is_fully_associative
        assert g.sets == 1
        assert g.associativity == g.n_blocks == 12

    def test_explicit_ways(self):
        g = CacheGeometry(size=256, block=8, ways=4)  # 32 frames, 8 sets
        assert not g.is_fully_associative
        assert g.sets == 8 and g.associativity == 4
        assert g.set_of(0) == 0 and g.set_of(9) == 1 and g.set_of(8) == 0

    def test_direct_mapped_corner(self):
        g = CacheGeometry(size=128, block=8, ways=1)  # 16 sets of 1
        assert g.sets == 16 and g.associativity == 1

    def test_full_ways_is_fully_associative(self):
        g = CacheGeometry(size=128, block=8, ways=16)
        assert g.is_fully_associative and g.sets == 1

    @pytest.mark.parametrize("ways", [0, -1, -4])
    def test_zero_or_negative_ways_rejected(self, ways):
        with pytest.raises(CacheConfigError):
            CacheGeometry(size=128, block=8, ways=ways)

    def test_non_integer_ways_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheGeometry(size=128, block=8, ways=2.5)

    def test_ways_must_divide_frames(self):
        # the message must name the offending field and value, not just fail
        with pytest.raises(
            CacheConfigError,
            match=r"ways=5 does not divide the frame count n_blocks=16 "
                  r"\(size=128 / block=8\)",
        ):
            CacheGeometry(size=128, block=8, ways=5)  # 16 % 5 != 0

    def test_non_power_of_two_sets_rejected(self):
        # 96 words / 8 = 12 frames; ways=4 would make 3 sets
        with pytest.raises(
            CacheConfigError,
            match=r"sets=3 \(n_blocks=12 / ways=4\) is not a power of two",
        ):
            CacheGeometry(size=96, block=8, ways=4)

    def test_direct_model_rejects_wider_ways(self):
        with pytest.raises(CacheConfigError):
            DirectMappedCache(CacheGeometry(size=128, block=8, ways=4))

    def test_with_ways_snaps_up_to_valid_set_count(self):
        g = CacheGeometry(size=920, block=8)  # 115 frames
        snapped = g.with_ways(4)
        assert snapped.ways == 4 and snapped.sets == 32  # 128 frames
        assert snapped.size >= g.size
        assert g.with_ways(0) is g and g.with_ways(None) is g

    @pytest.mark.parametrize("ways", [-2, -1, 2.5])
    def test_with_ways_rejects_invalid(self, ways):
        with pytest.raises(CacheConfigError):
            CacheGeometry(size=128, block=8).with_ways(ways)

    def test_with_ways_zero_or_none_is_fully_associative(self):
        g = CacheGeometry(size=1024, block=8, ways=4)
        for ways in (0, None):
            assert g.with_ways(ways) == CacheGeometry(size=1024, block=8)
            assert g.with_ways(ways).is_fully_associative


# ----------------------------------------------------------------------
# random-trace differentials against the stepwise oracles, all through the
# shared harness (repro.testing.harness) — per-access mask equality with a
# pretty-printed first divergence on failure
# ----------------------------------------------------------------------
def _fa_geometries():
    return [CacheGeometry(size=c * B, block=B) for c in (1, 2, 3, 5, 8, 16, 40)]


def _sa_geometries():
    return [
        CacheGeometry(size=sets * ways * B, block=B, ways=ways)
        for ways in (1, 2, 4, 8)
        for sets in (1, 2, 8, 16)
    ]


class TestReplayDifferential:
    @given(trace=st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_lru_masks_match_stepwise(self, trace):
        geoms = _fa_geometries() + _sa_geometries()
        differential_grid(replay_kernel("lru"), stepwise_oracle("lru"), geoms, trace)

    @given(trace=st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_direct_masks_match_stepwise(self, trace):
        geoms = _fa_geometries() + [
            CacheGeometry(size=s * B, block=B, ways=1) for s in (1, 2, 4, 16)
        ]
        differential_grid(
            replay_kernel("direct"), stepwise_oracle("direct"), geoms, trace
        )

    @given(trace=st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_opt_masks_match_stepwise(self, trace):
        geoms = _fa_geometries() + _sa_geometries()
        differential_grid(replay_kernel("opt"), stepwise_oracle("opt"), geoms, trace)

    def test_long_skewed_trace_all_policies(self):
        from repro.cache.hierarchy import TwoLevelGeometry

        rng = np.random.default_rng(7)
        trace = (rng.zipf(1.4, size=12_000) % 160).astype(np.int64)
        geoms = _fa_geometries() + _sa_geometries()
        for policy in available_policies():
            if policy == "direct":
                swept = [g for g in geoms if g.ways in (None, 1)]
            elif policy == "two_level":
                # hierarchical sweep points: every single-level geometry
                # becomes the L2 behind a small fully-associative L1
                l1 = CacheGeometry(size=2 * B, block=B)
                swept = [TwoLevelGeometry(l1, g) for g in geoms if g.size >= l1.size]
            else:
                swept = geoms
            differential_grid(
                replay_kernel(policy), stepwise_oracle(policy), swept, trace
            )

    def test_harness_reports_first_divergence(self):
        # the harness's own contract: a lying kernel fails with a pinpointed
        # access, not a bare list comparison
        geom = CacheGeometry(size=2 * B, block=B)
        trace = [0, 1, 0, 1]

        def lying_kernel(blocks, grid):
            masks = replay_miss_masks(blocks, grid, "lru")
            masks[0] = masks[0].copy()
            masks[0][2] = ~masks[0][2]
            return masks

        with pytest.raises(AssertionError, match=r"first divergence at access 2"):
            differential_grid(lying_kernel, stepwise_oracle("lru"), [geom], trace)
        # and an honest run reports how many points it covered
        assert differential_grid(
            replay_kernel("lru"), stepwise_oracle("lru"), [geom], trace
        ) == 1

    def test_trace_shorter_than_cache(self):
        trace = [3, 1, 3]
        geom = CacheGeometry(size=1024, block=B)  # 128 frames >> trace
        for policy in ("lru", "direct", "opt"):
            differential_grid(
                replay_kernel(policy), stepwise_oracle(policy), [geom], trace
            )

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.int64)
        for policy in ("lru", "direct", "opt"):
            masks = replay_miss_masks(empty, _fa_geometries(), policy)
            assert all(m.shape == (0,) for m in masks)

    def test_single_way_single_set_degenerate(self):
        trace = [0, 1, 0, 1, 0]
        geom = CacheGeometry(size=B, block=B)  # one frame total
        for policy in ("lru", "direct", "opt"):
            differential_grid(
                replay_kernel(policy), stepwise_oracle(policy), [geom], trace
            )


# ----------------------------------------------------------------------
# cross-policy properties
# ----------------------------------------------------------------------
class TestReplayProperties:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.trace = rng.integers(0, 96, size=6_000)

    def test_opt_never_worse_than_lru(self):
        geoms = _fa_geometries()
        lru = replay_misses(self.trace, geoms, "lru")
        opt = replay_misses(self.trace, geoms, "opt")
        assert all(o <= l for o, l in zip(opt, lru))

    def test_lru_never_better_than_higher_associativity(self):
        # fixed set count, growing ways: capacity and flexibility both grow
        geoms = [CacheGeometry(size=8 * w * B, block=B, ways=w) for w in (1, 2, 4, 8)]
        misses = replay_misses(self.trace, geoms, "lru")
        assert misses == sorted(misses, reverse=True)

    def test_full_associativity_at_same_capacity_wins(self):
        sa = CacheGeometry(size=256, block=B, ways=2)
        fa = CacheGeometry(size=256, block=B)
        (m_sa,) = replay_misses(self.trace, [sa], "lru")
        (m_fa,) = replay_misses(self.trace, [fa], "lru")
        assert m_fa <= m_sa

    def test_opt_stack_distance_monotone_capacity(self):
        d = opt_stack_distances(self.trace, 64)
        misses = [int(np.count_nonzero((d == 0) | (d > c))) for c in (4, 8, 16, 32, 64)]
        assert misses == sorted(misses, reverse=True)

    def test_per_set_distances_one_set_is_mattson(self):
        from repro.analysis.misscurve import stack_distances_array

        assert (
            per_set_stack_distances(self.trace, 1)
            == stack_distances_array(self.trace)
        ).all()

    def test_unknown_policy_rejected(self):
        with pytest.raises(CacheConfigError):
            replay_miss_masks(self.trace, _fa_geometries(), "plru")
        with pytest.raises(CacheConfigError):
            get_policy("plru")

    def test_direct_kernel_rejects_wider_ways(self):
        with pytest.raises(CacheConfigError):
            replay_miss_masks(
                self.trace, [CacheGeometry(size=256, block=B, ways=4)], "direct"
            )


# ----------------------------------------------------------------------
# end-to-end: simulate_trace policy dispatch vs the stepwise executor
# ----------------------------------------------------------------------
class TestSimulateTracePolicies:
    def _workload(self):
        g = fm_radio(taps=16, bands=3)
        sched = single_appearance_schedule(g, n_iterations=6)
        return g, sched

    def test_direct_matches_executor_with_phases(self):
        g, sched = self._workload()
        geom = CacheGeometry(size=256, block=B)
        trace = compile_trace(g, sched, B)
        fast = simulate_trace(trace, [geom], policy="direct")[0]
        ref = Executor.measure(g, geom, sched, cache=DirectMappedCache(geom))
        assert fast.misses == ref.misses
        assert fast.accesses == ref.accesses
        assert fast.phase_misses == ref.phase_misses
        assert fast.source_fires == ref.source_fires

    def test_set_assoc_matches_executor_with_phases(self):
        g, sched = self._workload()
        geom = CacheGeometry(size=256, block=B, ways=4)
        trace = compile_trace(g, sched, B)
        fast = simulate_trace(trace, [geom], policy="lru")[0]
        ref = Executor.measure(g, geom, sched, cache=LRUCache(geom))
        assert fast.misses == ref.misses
        assert fast.phase_misses == ref.phase_misses

    def test_opt_matches_simulate_opt(self):
        g, sched = self._workload()
        geom = CacheGeometry(size=192, block=B)
        trace = compile_trace(g, sched, B)
        fast = simulate_trace(trace, [geom], policy="opt")[0]
        ref = simulate_opt(trace.blocks.tolist(), geom)
        assert fast.misses == ref.misses
        assert fast.accesses == ref.accesses

    def test_measure_compiled_policy_dispatch(self):
        g = random_pipeline(6, 20, seed=3, rate_choices=[(1, 1), (2, 1)])
        sched = interleaved_schedule(g, n_iterations=10)
        geom = CacheGeometry(size=128, block=B)
        dm = measure_compiled(g, geom, sched, policy="direct")
        ref = Executor.measure(g, geom, sched, cache=DirectMappedCache(geom))
        assert dm.misses == ref.misses
        opt = measure_compiled(g, geom, sched, policy="opt")
        lru = measure_compiled(g, geom, sched)
        assert opt.misses <= lru.misses

    def test_opt_set_associative_oracle_composition(self):
        # set-assoc OPT == OPT run independently per set subsequence
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 64, size=2_000).tolist()
        geom = CacheGeometry(size=256, block=B, ways=4)  # 8 sets
        (mask,) = replay_miss_masks(np.asarray(trace), [geom], "opt")
        assert mask.tolist() == simulate_opt_misses(trace, geom)
