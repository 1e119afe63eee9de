"""Property suites for the widened placement search space: set indexing,
padding, and the multi-geometry objective.

These are the acceptance properties, driven by the shared strategies in
:mod:`repro.testing.strategies` and the differential harness in
:mod:`repro.testing.harness`:

* replay kernels are bit-identical per access to the stepwise oracles on
  any valid geometry;
* padding with a zero budget degenerates to the pure permutation search;
* the multi-geometry objective never returns a layout worse than the seed
  at any individual target.

The ``slow``-marked twins re-run the heaviest properties for the nightly
CI job (``pytest --runslow`` with ``HYPOTHESIS_PROFILE=nightly`` raising
``max_examples`` to 500).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.mem.placement import (
    available_placements,
    build_instance,
    optimize_instance,
    placement_costs,
    remap_blocks,
)
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle
from repro.testing.strategies import geometry_strategy, placement_strategy

B = 8

_traces = st.lists(st.integers(0, 60), max_size=250)


_CACHED_INSTANCE = None


def _instance():
    """One shared, read-only PlacementInstance (remap never mutates it), so
    hypothesis examples do not pay a recompile each."""
    global _CACHED_INSTANCE
    if _CACHED_INSTANCE is None:
        g = pipeline([12, 20, 6, 28, 10])
        sched = single_appearance_schedule(g, n_iterations=8)
        _CACHED_INSTANCE = build_instance(g, sched, B)
    return _CACHED_INSTANCE


# ----------------------------------------------------------------------
# set indexing
# ----------------------------------------------------------------------
class TestIndexSchemeProperties:
    @given(trace=_traces, geom=geometry_strategy())
    @settings(max_examples=60, deadline=None)
    def test_any_geometry_kernel_matches_oracle(self, trace, geom):
        policy = "lru" if geom.ways not in (None, 1) else "direct"
        differential_grid(
            replay_kernel(policy), stepwise_oracle(policy), [geom], trace
        )

    @pytest.mark.slow
    def test_grid_long_trace_nightly(self):
        """Nightly-sized differential: a long, hot trace over a grid of
        lru/opt organizations."""
        rng = np.random.default_rng(1337)
        trace = (rng.zipf(1.25, size=40_000) % 512).astype(np.int64)
        grid = [
            CacheGeometry(size=s * w * B, block=B, ways=w)
            for w in (1, 2, 4, 8)
            for s in (1, 4, 16, 64)
        ]
        differential_grid(replay_kernel("lru"), stepwise_oracle("lru"), grid, trace)
        differential_grid(replay_kernel("opt"), stepwise_oracle("opt"), grid, trace)


# ----------------------------------------------------------------------
# padding & placement candidates
# ----------------------------------------------------------------------
class TestPlacementCandidateProperties:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_zero_budget_candidates_are_pure_permutations(self, data):
        inst = _instance()
        order, gaps = data.draw(
            placement_strategy(inst.objects, max_gap=3, gap_budget=0)
        )
        assert gaps == {}  # the budget truncates every gap away
        assert (remap_blocks(inst, order, gaps=gaps)
                == remap_blocks(inst, order)).all()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_candidates_respect_their_budget_and_stay_exact(self, data):
        inst = _instance()
        budget = data.draw(st.integers(0, 6))
        order, gaps = data.draw(
            placement_strategy(inst.objects, max_gap=3, gap_budget=budget)
        )
        assert sum(gaps.values()) <= budget
        # any candidate's remapped trace equals a fresh compile under it
        from repro.runtime.compiled import compile_trace

        fresh = compile_trace(
            inst.graph,
            single_appearance_schedule(inst.graph, n_iterations=8),
            B, placement=order, gaps=gaps,
        )
        assert (remap_blocks(inst, order, gaps=gaps) == fresh.blocks).all()

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_fully_assoc_misses_are_candidate_invariant(self, data):
        """Padding or not, the paper's model cannot see layout."""
        from repro.runtime.replay import replay_misses

        inst = _instance()
        geom = CacheGeometry(size=16 * B, block=B)
        (seed_m,) = replay_misses(inst.trace.blocks, [geom], "lru")
        order, gaps = data.draw(
            placement_strategy(inst.objects, max_gap=2, gap_budget=4)
        )
        (m,) = replay_misses(remap_blocks(inst, order, gaps=gaps), [geom], "lru")
        assert m == seed_m


# ----------------------------------------------------------------------
# multi-geometry objective
# ----------------------------------------------------------------------
class TestMultiTargetProperties:
    @given(
        w1=st.floats(0.1, 10.0), w2=st.floats(0.1, 10.0), w3=st.floats(0.1, 10.0),
        strategy=st.sampled_from(sorted(available_placements())),
    )
    @settings(max_examples=10, deadline=None)
    def test_never_worse_than_seed_at_every_target(self, w1, w2, w3, strategy):
        """Every *registered* strategy — the seed trio and the A12 facility
        searches alike — honors the never-worse contract at every target."""
        inst = _instance()
        targets = [
            (CacheGeometry(size=16 * B, block=B), "direct", w1),
            (CacheGeometry(size=16 * B, block=B, ways=2), "lru", w2),
            (CacheGeometry(size=32 * B, block=B, ways=4), "lru", w3),
        ]
        res = optimize_instance(
            inst, strategy=strategy, targets=targets, budget=40, gap_budget=2,
            restarts=2, noise=0.5, seed=0,
        )
        for c, s in zip(res.per_target, res.seed_per_target):
            assert c <= s
        assert res.per_target == placement_costs(
            inst, res.order, targets, gaps=res.gaps
        )

    @pytest.mark.slow
    @given(
        weights=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        strategy=st.sampled_from(sorted(available_placements())),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_worse_nightly(self, weights, strategy):
        """Nightly high-examples twin over the full registry at a larger
        budget (``HYPOTHESIS_PROFILE=nightly`` raises max_examples)."""
        inst = _instance()
        targets = [
            (CacheGeometry(size=16 * B, block=B), "direct", weights[0]),
            (CacheGeometry(size=16 * B, block=B, ways=2), "lru", weights[1]),
            (CacheGeometry(size=32 * B, block=B, ways=4), "lru", weights[2]),
        ]
        res = optimize_instance(
            inst, strategy=strategy, targets=targets, budget=120, gap_budget=4,
            restarts=2, noise=0.5, seed=0,
        )
        for c, s in zip(res.per_target, res.seed_per_target):
            assert c <= s
