"""Tests for the conflict-aware placement subsystem (`repro.mem.placement`).

Three layers, mirroring the subsystem's claims:

* **Exactness** — the block-remap cost model must equal a fresh compile
  under the candidate placement, block for block, and its scores must equal
  the *stepwise* simulators' miss counts (the differential suite the
  acceptance criteria name).
* **Invariance** — fully-associative LRU is provably layout-blind, so any
  permutation of the placement must leave its miss count bit-identical
  (property-based, stepwise-LRU oracle), including the set-associative edge
  cases ``sets > #distinct blocks`` and ``ways == frames``.
* **Optimization** — on the A7 workload the swap-refined placement strictly
  reduces direct-mapped misses vs the seed topological layout, and the
  optimizer never returns a placement worse than the seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache.base import CacheGeometry
from repro.cache.policy import stepwise_trace_misses
from repro.core.baselines import single_appearance_schedule
from repro.errors import LayoutError
from repro.graphs.minbuf import min_buffers
from repro.graphs.topologies import diamond, pipeline
from repro.mem.facility import multiswap_refine, smoothed_search
from repro.mem.layout import MemoryLayout, layout_objects
from repro.mem.placement import (
    STRATEGIES,
    RefineStats,
    build_instance,
    conflict_graph,
    greedy_color_order,
    normalize_targets,
    optimize_instance,
    placement_costs,
    remap_blocks,
    remap_trace,
    swap_refine,
)
from repro.runtime.compiled import compile_trace, simulate_trace
from repro.runtime.executor import Executor
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle

B = 8


def small_workload():
    g = pipeline([12, 20, 6, 28, 10])
    sched = single_appearance_schedule(g, n_iterations=12)
    return g, sched


def des_workload(inputs=256, M=256):
    from repro.analysis.sweeps import des_partitioned_workload

    g, sched, _part, run_geom = des_partitioned_workload(M=M, B=B, inputs=inputs)
    return g, sched, run_geom


def shuffled(objects, seed):
    rng = np.random.default_rng(seed)
    order = list(objects)
    rng.shuffle(order)
    return order


def misses(inst, order, geom, policy, gaps=None):
    """Misses of one target under a candidate placement."""
    return placement_costs(inst, order, [(geom, policy, 1.0)], gaps=gaps)[0]


# ----------------------------------------------------------------------
# MemoryLayout placement hook
# ----------------------------------------------------------------------
class TestPlacementHook:
    def test_placement_matches_default_objects(self):
        g = diamond(branch_len=2, ways=2, state=9)
        caps = min_buffers(g)
        a, b = MemoryLayout(block=B), MemoryLayout(block=B)
        a.place_graph(g, caps)
        b.place_graph(g, caps, placement=layout_objects(g))
        for m in g.module_names():
            assert a.state_region(m) == b.state_region(m)
        for ch in g.channels():
            assert a.buffer_region(ch.cid) == b.buffer_region(ch.cid)

    def test_interleaved_placement_is_aligned_and_disjoint(self):
        g = diamond(branch_len=2, ways=2, state=9)
        caps = min_buffers(g)
        plan = layout_objects(g)
        plan = plan[1::2] + plan[0::2]  # interleave buffers and states
        lay = MemoryLayout(block=B)
        lay.place_graph(g, caps, placement=plan)
        lay.check_disjoint()
        for m in g.module_names():
            assert lay.state_region(m).start % B == 0
        for ch in g.channels():
            assert lay.buffer_region(ch.cid).start % B == 0

    def test_order_and_placement_mutually_exclusive(self):
        g = pipeline([8, 8])
        lay = MemoryLayout(block=B)
        with pytest.raises(LayoutError, match="not both"):
            lay.place_graph(
                g, min_buffers(g), order=["m0", "m1"], placement=layout_objects(g)
            )

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda plan: plan[:-1],  # missing object
            lambda plan: plan + [plan[0]],  # duplicate
            lambda plan: plan[:-1] + [("buffer", 999)],  # unknown key
            lambda plan: plan[:-1] + [("heap", "m0")],  # unknown kind
        ],
    )
    def test_bad_placement_rejected(self, mangle):
        g = pipeline([8, 8])
        lay = MemoryLayout(block=B)
        with pytest.raises(LayoutError):
            lay.place_graph(g, min_buffers(g), placement=mangle(layout_objects(g)))


# ----------------------------------------------------------------------
# block-remap exactness: the heart of the cost model
# ----------------------------------------------------------------------
class TestRemapExactness:
    def test_seed_order_is_identity(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        assert (remap_blocks(inst, list(inst.objects)) == inst.trace.blocks).all()

    def test_generator_order_not_silently_exhausted(self):
        # order= is consumed by both the compiler and layout_objects; a
        # one-shot iterable must not leave the instance with missing objects
        g, sched = small_workload()
        names = list(reversed(g.topological_order()))
        inst = build_instance(g, sched, B, order=iter(names))
        ref = build_instance(g, sched, B, order=names)
        assert inst.objects == ref.objects
        assert (inst.trace.blocks == ref.trace.blocks).all()
        assert (remap_blocks(inst, list(inst.objects)) == inst.trace.blocks).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_remap_equals_fresh_compile(self, seed):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, seed)
        fresh = compile_trace(g, sched, B, placement=order)
        assert (remap_blocks(inst, order) == fresh.blocks).all()

    @pytest.mark.parametrize("policy", ["direct", "lru", "opt"])
    def test_cost_matches_stepwise_simulation(self, policy):
        """Acceptance: cost-model scores == stepwise-simulated miss counts,
        and the replay masks on remapped traces agree per access (through
        the differential harness)."""
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geoms = {
            "direct": CacheGeometry(size=16 * B, block=B),
            "lru": CacheGeometry(size=16 * B, block=B, ways=4),
            "opt": CacheGeometry(size=16 * B, block=B),
        }
        geom = geoms[policy]
        grid = [geom]
        for seed in range(4):
            order = shuffled(inst.objects, seed)
            blocks = remap_blocks(inst, order)
            differential_grid(
                replay_kernel(policy), stepwise_oracle(policy), grid, blocks
            )
            cost = misses(inst, order, geom, policy)
            fresh = compile_trace(g, sched, B, placement=order)
            ref = sum(map(bool, stepwise_trace_misses(fresh.blocks.tolist(), geom, policy)))
            assert cost == ref

    def test_cost_matches_stepwise_executor_end_to_end(self):
        """placement= threads through Executor too, and both paths agree."""
        from repro.cache.direct import DirectMappedCache

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, 7)
        geom = CacheGeometry(size=16 * B, block=B)
        ref = Executor.measure(g, geom, sched, placement=order, cache=DirectMappedCache(geom))
        assert misses(inst, order, geom, "direct") == ref.misses

    def test_remap_trace_keeps_attribution(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, 3)
        t = remap_trace(inst, order)
        geom = CacheGeometry(size=16 * B, block=B)
        fast = simulate_trace(t, [geom], policy="direct")[0]
        fresh = compile_trace(g, sched, B, placement=order)
        ref = simulate_trace(fresh, [geom], policy="direct")[0]
        assert fast.misses == ref.misses
        assert fast.phase_misses == ref.phase_misses
        assert fast.accesses == ref.accesses == inst.trace.accesses

    def test_bad_orders_rejected(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        objs = list(inst.objects)
        with pytest.raises(LayoutError, match="covers"):
            remap_blocks(inst, objs[:-1])
        with pytest.raises(LayoutError, match="repeats"):
            remap_blocks(inst, objs[:-1] + [objs[0]])
        with pytest.raises(LayoutError, match="unknown placement object"):
            remap_blocks(inst, objs[:-1] + [("state", "nope")])


# ----------------------------------------------------------------------
# placement invariance under the fully-associative model (property-based)
# ----------------------------------------------------------------------
class TestFullyAssociativeInvariance:
    """Under the paper's model only the *set* of blocks matters, so every
    placement must produce bit-identical fully-associative LRU miss counts.
    The oracle is the stepwise LRU, not the replay kernel."""

    @given(perm_seed=st.integers(0, 10_000), frames=st.sampled_from([2, 5, 11, 40]))
    @settings(max_examples=25, deadline=None)
    def test_any_permutation_preserves_lru_misses(self, perm_seed, frames):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=frames * B, block=B)
        seed_ref = sum(
            map(bool, stepwise_trace_misses(inst.trace.blocks.tolist(), geom, "lru"))
        )
        order = shuffled(inst.objects, perm_seed)
        permuted = sum(
            map(bool, stepwise_trace_misses(remap_blocks(inst, order).tolist(), geom, "lru"))
        )
        assert permuted == seed_ref

    @given(perm_seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_ways_equals_frames_is_layout_blind(self, perm_seed):
        # explicit ways == frames: one set, fully associative in disguise
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=8 * B, block=B, ways=8)
        assert geom.is_fully_associative
        order = shuffled(inst.objects, perm_seed)
        a = sum(map(bool, stepwise_trace_misses(inst.trace.blocks.tolist(), geom, "lru")))
        b = sum(map(bool, stepwise_trace_misses(remap_blocks(inst, order).tolist(), geom, "lru")))
        assert a == b

    def test_sets_exceed_distinct_blocks(self):
        # sets > #distinct blocks: every block alone in its set, zero
        # capacity misses; replay and stepwise agree and placement cannot
        # push the count below (or above) the compulsory floor
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        distinct = inst.trace.distinct_blocks()
        sets = 1 << int(np.ceil(np.log2(distinct + 1)))
        geom = CacheGeometry(size=sets * B, block=B, ways=1)
        assert geom.sets > distinct
        for seed in (0, 5):
            order = shuffled(inst.objects, seed)
            blocks = remap_blocks(inst, order)
            differential_grid(replay_kernel("lru"), stepwise_oracle("lru"), [geom], blocks)
            fast = misses(inst, order, geom, "lru")
            ref = sum(map(bool, stepwise_trace_misses(blocks.tolist(), geom, "lru")))
            assert fast == ref
            # direct-mapped at that many frames: same story via the direct kernel
            dgeom = CacheGeometry(size=sets * B, block=B)
            differential_grid(
                replay_kernel("direct"), stepwise_oracle("direct"), [dgeom], blocks
            )
            dfast = misses(inst, order, dgeom, "direct")
            dref = sum(map(bool, stepwise_trace_misses(blocks.tolist(), dgeom, "direct")))
            assert dfast == dref


# ----------------------------------------------------------------------
# conflict graph
# ----------------------------------------------------------------------
class TestConflictGraph:
    def test_edges_are_canonical_and_positive(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        cg = conflict_graph(inst)
        assert cg, "co-scheduled objects must produce edges"
        n = inst.n_objects
        for (a, b), w in cg.items():
            assert 0 <= a < b < n, "edges keyed (lo, hi), no self-edges"
            assert w > 0

    def test_adjacent_objects_weigh_most(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        cg = conflict_graph(inst)
        # a pipeline stage and its input buffer touch back to back every
        # firing; they must out-weigh a pair three stages apart
        i_m1 = inst.index_of(("state", "m1"))
        i_buf0 = inst.index_of(("buffer", 0))
        i_m4 = inst.index_of(("state", "m4"))
        near = cg[tuple(sorted((i_m1, i_buf0)))]
        far = cg.get(tuple(sorted((i_m1, i_m4))), 0.0)
        assert near > far


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_strategy_names(self):
        assert STRATEGIES == ("topo", "color", "swap", "multiswap", "smoothed", "minimax")
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        target = [(CacheGeometry(size=16 * B, block=B), "direct", 1.0)]
        with pytest.raises(LayoutError, match="unknown placement strategy"):
            optimize_instance(inst, target, strategy="anneal")

    def test_color_order_is_a_permutation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = greedy_color_order(inst, CacheGeometry(size=16 * B, block=B))
        assert sorted(order) == sorted(inst.objects)

    def test_fully_associative_target_keeps_seed(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        assert greedy_color_order(inst, geom, policy="lru") == list(inst.objects)
        # every search must short-circuit too: placement cannot change FA
        # misses, so the search budget is pure waste there
        for strategy in STRATEGIES:
            with obs.capture(enabled=True) as cap:
                res = optimize_instance(inst, [(geom, "lru", 1.0)], strategy=strategy)
            assert res.order == list(inst.objects) and res.gaps == {}
            assert "placement.evals" not in cap.snapshot["counters"], strategy

    def test_swap_refine_monotone_and_budgeted(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        start = list(inst.objects)
        start_cost = misses(inst, start, geom, "direct")
        order, gaps, cost, stats = swap_refine(
            inst, start, [(geom, "direct", 1.0)], budget=50
        )
        assert cost <= start_cost
        assert stats.evals <= 50 and int(stats) == stats.evals
        # trajectory is monotone non-increasing from the seed cost and
        # ends at the returned cost; rounds counts the improving steps
        assert stats.trajectory[0] == start_cost
        assert stats.trajectory[-1] == cost
        assert all(a >= b for a, b in zip(stats.trajectory, stats.trajectory[1:]))
        assert stats.rounds == len(stats.trajectory) - 1
        assert gaps == {}  # no gap budget: pure permutation search
        assert misses(inst, order, geom, "direct") == cost

    def test_swap_refine_gap_budget_respected_and_exact(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        start = list(inst.objects)
        order, gaps, cost, _ = swap_refine(
            inst, start, [(geom, "direct", 1.0)], budget=200, gap_budget=3
        )
        assert sum(gaps.values()) <= 3
        assert all(g > 0 for g in gaps.values())
        # reported cost is the true cost of (order, gaps)
        assert misses(inst, order, geom, "direct", gaps=gaps) == cost

    def test_swap_refine_rejects_bad_budgets(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        target = [(CacheGeometry(size=16 * B, block=B), "direct", 1.0)]
        with pytest.raises(LayoutError, match="gap_budget"):
            swap_refine(inst, list(inst.objects), target, gap_budget=-1)
        with pytest.raises(LayoutError, match="over gap_budget"):
            swap_refine(
                inst, list(inst.objects), target, gap_budget=1,
                gaps={inst.objects[0]: 2},
            )

    def test_optimizer_never_worse_than_seed(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        for strategy in STRATEGIES:
            for policy, geom in (
                ("direct", CacheGeometry(size=16 * B, block=B)),
                ("lru", CacheGeometry(size=16 * B, block=B, ways=2)),
            ):
                res = optimize_instance(
                    inst, [(geom, policy, 1.0)], strategy=strategy, budget=60
                )
                assert res.cost <= res.seed_cost
                assert 0.0 <= res.improvement <= 1.0
                assert misses(inst, res.order, geom, policy) == res.cost


# ----------------------------------------------------------------------
# padding: (order, gaps) candidates must be exact, not estimated
# ----------------------------------------------------------------------
class TestPadding:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_remap_with_gaps_equals_fresh_compile(self, seed):
        """The padding lever keeps the cost model exact: a gapped remap is
        bit-identical to recompiling under place_graph(gaps=)."""
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, seed)
        rng = np.random.default_rng(seed)
        gaps = {
            key: int(gap)
            for key, gap in zip(order, rng.integers(0, 4, size=len(order)))
            if gap
        }
        fresh = compile_trace(g, sched, B, placement=order, gaps=gaps)
        assert (remap_blocks(inst, order, gaps=gaps) == fresh.blocks).all()

    def test_zero_gaps_is_pure_permutation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, 11)
        zero = {key: 0 for key in order}
        assert (
            remap_blocks(inst, order, gaps=zero) == remap_blocks(inst, order)
        ).all()
        assert (
            remap_blocks(inst, order, gaps=None) == remap_blocks(inst, order, gaps={})
        ).all()

    def test_gap_shifts_downstream_objects_only(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = list(inst.objects)
        base = remap_blocks(inst, order)
        gapped = remap_blocks(inst, order, gaps={order[2]: 2})
        obj = inst.obj_of_access
        # objects placed before the gap keep their addresses ...
        upstream = np.isin(obj, [inst.index_of(order[0]), inst.index_of(order[1])])
        assert (gapped[upstream] == base[upstream]).all()
        # ... everything after (stream arenas included) shifts by 2 blocks
        assert (gapped[~upstream] == base[~upstream] + 2).all()

    def test_bad_gaps_rejected(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = list(inst.objects)
        with pytest.raises(LayoutError, match="unknown placement object"):
            remap_blocks(inst, order, gaps={("state", "nope"): 1})
        for bad in (-1, 1.5, True):
            with pytest.raises(LayoutError, match="non-negative block count"):
                remap_blocks(inst, order, gaps={order[0]: bad})

    def test_gapped_cost_matches_stepwise_executor(self):
        from repro.cache.direct import DirectMappedCache

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        order = shuffled(inst.objects, 7)
        gaps = {order[1]: 1, order[4]: 2}
        geom = CacheGeometry(size=16 * B, block=B)
        ref = Executor.measure(
            g, geom, sched, placement=order, gaps=gaps,
            cache=DirectMappedCache(geom),
        )
        assert misses(inst, order, geom, "direct", gaps=gaps) == ref.misses


# ----------------------------------------------------------------------
# multi-geometry objective: deployable layouts
# ----------------------------------------------------------------------
class TestMultiTarget:
    def _targets(self, inst):
        direct = CacheGeometry(size=16 * B, block=B)
        return [
            (direct, "direct", 2.0),
            (CacheGeometry(size=16 * B, block=B, ways=2), "lru", 1.0),
            (CacheGeometry(size=32 * B, block=B, ways=4), "lru", 1.0),
        ]

    def test_normalize_targets_validation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        with pytest.raises(LayoutError, match="at least one"):
            normalize_targets([])
        with pytest.raises(LayoutError, match="triple"):
            normalize_targets([geom])
        with pytest.raises(LayoutError, match="CacheGeometry"):
            normalize_targets([(42, "lru", 1.0)])
        for w in (0, -1, float("nan"), float("inf")):
            with pytest.raises(LayoutError, match="weight"):
                normalize_targets([(geom, "lru", w)])
        with pytest.raises(LayoutError, match="block"):
            normalize_targets([(CacheGeometry(size=16, block=4), "lru", 1.0)], block=B)

    def test_placement_costs_matches_single_target_costs(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        targets = self._targets(inst)
        order = shuffled(inst.objects, 3)
        per = placement_costs(inst, order, targets)
        for (geom, policy, _w), m in zip(targets, per):
            assert m == misses(inst, order, geom, policy)

    def test_optimizer_never_worse_at_every_target(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        targets = self._targets(inst)
        for strategy in STRATEGIES:
            res = optimize_instance(
                inst, targets, strategy=strategy, budget=80, gap_budget=2
            )
            assert len(res.per_target) == len(targets)
            for c, s in zip(res.per_target, res.seed_per_target):
                assert c <= s, (strategy, res.per_target, res.seed_per_target)
            assert res.cost <= res.seed_cost
            # reported per-target costs are the true costs of (order, gaps)
            assert res.per_target == placement_costs(
                inst, res.order, targets, gaps=res.gaps
            )

    def test_one_target_costs_are_its_misses(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        res = optimize_instance(inst, [(geom, "direct", 1)], strategy="swap", budget=60)
        assert res.targets == [(geom, "direct", 1.0)]
        assert res.per_target == [res.cost] and res.seed_per_target == [res.seed_cost]


def _regressing_order(instance, targets):
    """The first rotation of the seed order that misses more than the seed
    at some target."""
    seed = list(instance.objects)
    seed_per = placement_costs(instance, seed, targets)
    for k in range(1, len(seed)):
        order = seed[k:] + seed[:k]
        per = placement_costs(instance, order, targets)
        if any(c > s for c, s in zip(per, seed_per)):
            return order
    raise AssertionError("no rotation of the seed order regresses")


def _regressing_refine(instance, order, targets, **_knobs):
    """A stand-in for :func:`swap_refine` that returns a regressing layout."""
    return _regressing_order(instance, targets), {}, 0.0, RefineStats(0, 0, ())


class TestRejectedSearch:
    """A searched layout that regresses at any target is discarded for the
    seed, counted as ``placement.rejected`` and kept on the result."""

    def test_rejection_is_counted_and_named(self, monkeypatch):
        import repro.mem.placement as pl
        from repro.obs import names as obs_names

        monkeypatch.setattr(pl, "swap_refine", _regressing_refine)
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        targets = TestMultiTarget()._targets(inst)
        searched_order = _regressing_order(inst, targets)
        with obs.capture(enabled=True) as cap:
            res = optimize_instance(inst, targets, strategy="swap")
        assert cap.snapshot["counters"][obs_names.PLACEMENT_REJECTED] == 1
        # the returned layout is the seed's, as before
        assert res.order == list(inst.objects) and res.gaps == {}
        assert res.per_target == res.seed_per_target
        searched = placement_costs(inst, searched_order, targets)
        assert res.searched_per_target == searched
        assert res.regressed == [
            i for i, (c, s) in enumerate(zip(searched, res.seed_per_target)) if c > s
        ]
        assert res.regressed

    def test_accepted_search_counts_nothing(self):
        from repro.obs import names as obs_names

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        with obs.capture(enabled=True) as cap:
            res = optimize_instance(inst, [(geom, "direct", 1.0)], strategy="swap", budget=60)
        assert obs_names.PLACEMENT_REJECTED not in cap.snapshot["counters"]
        assert res.regressed == []
        assert res.searched_per_target == res.per_target

    def test_cli_names_each_regressed_target(self, monkeypatch, capsys):
        import repro.mem.placement as pl
        from repro.cli import main

        monkeypatch.setattr(pl, "swap_refine", _regressing_refine)
        assert main([
            "schedule", "fm_radio", "--cache", "256", "--inputs", "64",
            "--layout", "swap", "--layout-targets", "direct:1,lru:2",
        ]) == 0
        (line,) = [
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("rejected")
        ]
        assert "the swap layout missed more than the seed at" in line
        assert "direct:1 " in line or "lru:2 " in line


# ----------------------------------------------------------------------
# A7 acceptance: the workload the experiment ships
# ----------------------------------------------------------------------
class TestA7Acceptance:
    def test_swap_strictly_beats_seed_direct_and_fa_is_invariant(self):
        g, sched, run_geom = des_workload()
        inst = build_instance(g, sched, B)
        seed_order = list(inst.objects)
        res = optimize_instance(inst, [(run_geom, "direct", 1.0)], strategy="swap", budget=300)
        # strict reduction of direct-mapped conflict misses vs the seed layout
        assert res.cost < res.seed_cost
        assert res.cost < 0.5 * res.seed_cost, "A7 workload loses most conflict misses"
        # fully-associative misses are bit-identical across all placements
        fa_seed = misses(inst, seed_order, run_geom, "lru")
        for order in (
            res.order,
            greedy_color_order(inst, run_geom, policy="direct"),
            shuffled(inst.objects, 9),
        ):
            assert misses(inst, order, run_geom, "lru") == fa_seed

    def test_a7_driver_rows(self):
        from repro.analysis.sweeps import ablation_a7_placement

        rows = ablation_a7_placement(inputs=128, budget=200)
        assert [r["placement"] for r in rows] == ["seed (topo)", "color", "swap"]
        # column labels carry their cache size (with_ways may snap frames up)
        direct_col = next(k for k in rows[0] if k.startswith("direct_") and k.endswith("w"))
        assert any(k.startswith("2way_") for k in rows[0])
        by = {r["placement"]: r for r in rows}
        assert by["swap"][direct_col] < by["seed (topo)"][direct_col]
        assert by["color"][direct_col] <= by["seed (topo)"][direct_col]
        fa = {r["fully_assoc"] for r in rows}
        assert len(fa) == 1, "fully-associative column must be placement-blind"
        assert by["swap"]["direct_vs_seed"] < 1.0

    def test_cli_layout_flag(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "schedule", "des_rounds", "--cache", "256", "--ways", "1",
                "--policy", "direct", "--layout", "swap", "--inputs", "64",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "swap placement" in out
        assert "fewer than the seed layout" in out

    def test_cli_facility_layouts_run(self, capsys):
        from repro.cli import main

        for layout in ("multiswap", "smoothed", "minimax"):
            rc = main(
                [
                    "schedule", "des_rounds", "--cache", "256", "--ways", "1",
                    "--policy", "direct", "--layout", layout, "--inputs", "32",
                    "--layout-budget", "40", "--restarts", "2",
                    "--noise", "0.5", "--seed", "0",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert f"{layout} placement" in out

    def test_cli_seed_threads_end_to_end(self, capsys):
        # --seed reaches the smoothed search: two identical invocations
        # must report the bit-identical layout result (the CI determinism
        # pin the A12 issue asks for)
        from repro.cli import main

        argv = [
            "schedule", "des_rounds", "--cache", "256", "--ways", "1",
            "--policy", "direct", "--layout", "smoothed", "--inputs", "32",
            "--layout-budget", "40", "--restarts", "3", "--noise", "0.5",
            "--seed", "13",
        ]
        assert main(argv) == 0
        line1 = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if "smoothed placement" in ln
        )
        assert main(argv) == 0
        line2 = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if "smoothed placement" in ln
        )
        assert line1 == line2


# ----------------------------------------------------------------------
# A12: facility-location strategies (repro.mem.facility)
# ----------------------------------------------------------------------
class TestFacilityStrategies:
    def test_multiswap_monotone_budgeted_and_permutation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        start = list(inst.objects)
        start_cost = misses(inst, start, geom, "direct")
        order, gaps, cost, stats = multiswap_refine(
            inst, start, [(geom, "direct", 1.0)], budget=80
        )
        assert cost <= start_cost
        assert cost == misses(inst, order, geom, "direct", gaps=gaps)
        assert stats.evals <= 80
        assert sorted(order) == sorted(inst.objects)
        assert all(b <= a for a, b in zip(stats.trajectory, stats.trajectory[1:]))

    def test_multiswap_validation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        target = [(CacheGeometry(size=16 * B, block=B), "direct", 1.0)]
        with pytest.raises(LayoutError, match="gap_budget"):
            multiswap_refine(inst, list(inst.objects), target, gap_budget=-1)
        with pytest.raises(LayoutError, match="objective"):
            multiswap_refine(inst, list(inst.objects), target, objective="max")

    def test_smoothed_validation(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        target = [(CacheGeometry(size=16 * B, block=B), "direct", 1.0)]
        with pytest.raises(LayoutError, match="restarts"):
            smoothed_search(inst, target, restarts=0)
        with pytest.raises(LayoutError, match="noise"):
            smoothed_search(inst, target, noise=-0.1)

    def test_smoothed_same_seed_is_deterministic(self):
        # the CI determinism pin: identical seed => bit-identical layout
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        runs = [
            optimize_instance(
                inst, [(geom, "direct", 1.0)], strategy="smoothed",
                budget=40, restarts=3, noise=0.5, seed=11,
            )
            for _ in range(2)
        ]
        assert runs[0].order == runs[1].order
        assert runs[0].gaps == runs[1].gaps
        assert runs[0].cost == runs[1].cost

    def test_smoothed_evals_accumulate_across_restarts(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        _o, _g, cost, stats = smoothed_search(
            inst, [(geom, "direct", 1.0)], budget=60, restarts=3, noise=0.5, seed=0
        )
        assert stats.evals <= 60
        assert cost <= misses(inst, list(inst.objects), geom, "direct")

    def test_facility_counters_recorded(self):
        from repro.obs import names as obs_names

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        with obs.capture(enabled=True) as cap:
            _o, _g, _c, stats = multiswap_refine(
                inst, list(inst.objects), [(geom, "direct", 1.0)], budget=40
            )
        counters = cap.snapshot["counters"]
        assert counters[obs_names.PLACEMENT_EVALS] == stats.evals
        assert counters[obs_names.PLACEMENT_ROUNDS] == stats.rounds
        # the capacity prune counter is always emitted (possibly zero)
        assert counters.get(obs_names.PLACEMENT_PRUNED, 0) >= 0
        spans = cap.snapshot["spans"]
        assert any(obs_names.FACILITY_SEARCH in key for key in spans)

    def test_smoothed_restart_counter(self):
        from repro.obs import names as obs_names

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        with obs.capture(enabled=True) as cap:
            smoothed_search(
                inst, [(geom, "direct", 1.0)], budget=30, restarts=2, noise=0.5,
                seed=0,
            )
        assert cap.snapshot["counters"][obs_names.PLACEMENT_RESTARTS] == 2

    def test_every_registered_strategy_never_worse_at_every_target(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        targets = [
            (CacheGeometry(size=16 * B, block=B), "direct", 1.0),
            (CacheGeometry(size=16 * B, block=B, ways=2), "lru", 1.0),
        ]
        for strategy in STRATEGIES:
            res = optimize_instance(
                inst, targets, strategy=strategy, budget=30,
                gap_budget=2, restarts=2, noise=0.5, seed=3,
            )
            for got, seed_m in zip(res.per_target, res.seed_per_target):
                assert got <= seed_m, f"{strategy} regressed a target"

    def test_minimax_never_worse_and_scores_exact(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        targets = [
            (CacheGeometry(size=16 * B, block=B), "direct", 1.0),
            (CacheGeometry(size=16 * B, block=B, ways=2), "lru", 1.0),
        ]
        res = optimize_instance(inst, targets, strategy="minimax", budget=40)
        for got, seed_m in zip(res.per_target, res.seed_per_target):
            assert got <= seed_m
        assert res.per_target == placement_costs(
            inst, res.order, targets, gaps=res.gaps
        )


# ----------------------------------------------------------------------
# A12 satellite: eval accounting == actual cost-model invocations
# ----------------------------------------------------------------------
class TestEvalAccounting:
    """``RefineStats.evals`` must equal the number of cost-model
    invocations the search actually made (every candidate scored is
    exactly one ``_delta_misses`` call), so the A12 "equal eval
    budget" comparisons cannot silently miscount."""

    def _counting(self, monkeypatch):
        import repro.mem.placement as pl

        calls = {"n": 0}
        real = pl._delta_misses

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "_delta_misses", counted)
        return calls

    def test_swap_refine_counts_every_invocation(self, monkeypatch):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        calls = self._counting(monkeypatch)
        _o, _g, _c, stats = swap_refine(
            inst, list(inst.objects), [(geom, "direct", 1.0)], budget=50,
        )
        assert stats.evals == calls["n"]

    def test_multiswap_counts_every_invocation(self, monkeypatch):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        calls = self._counting(monkeypatch)
        _o, _g, _c, stats = multiswap_refine(
            inst, list(inst.objects), [(geom, "direct", 1.0)], budget=50,
        )
        assert stats.evals == calls["n"]

    def test_smoothed_counts_across_restarts(self, monkeypatch):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        calls = self._counting(monkeypatch)
        _o, _g, _c, stats = smoothed_search(
            inst, [(geom, "direct", 1.0)], budget=40, restarts=2, noise=0.5,
            seed=0,
        )
        assert stats.evals == calls["n"]

    @pytest.mark.parametrize("restarts", [1, 4])
    @pytest.mark.parametrize("budget", [1, 2, 3, 5])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_budget_is_a_hard_cap(self, monkeypatch, strategy, budget, restarts):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        calls = self._counting(monkeypatch)
        try:
            optimize_instance(
                inst, [(geom, "direct", 1.0)], strategy=strategy, budget=budget,
                restarts=restarts, noise=0.5,
            )
        except LayoutError as exc:
            assert "budget" in str(exc)
            return
        assert calls["n"] <= budget

    def test_zero_budget_is_rejected(self):
        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        target = [(geom, "direct", 1.0)]
        for search in (swap_refine, multiswap_refine):
            with pytest.raises(LayoutError, match="budget must be >= 1"):
                search(inst, list(inst.objects), target, budget=0)
        with pytest.raises(LayoutError, match="budget must be >= 2"):
            multiswap_refine(
                inst, list(inst.objects), target, budget=1, objective="minimax"
            )
        # fully associative: the search is skipped, the request still checked
        with pytest.raises(LayoutError, match="budget must be >= 1"):
            optimize_instance(inst, [(geom, "lru", 1.0)], strategy="swap", budget=0)

    def test_smoothed_counts_the_restarts_that_ran(self, monkeypatch):
        from repro.obs import names as obs_names

        g, sched = small_workload()
        inst = build_instance(g, sched, B)
        geom = CacheGeometry(size=16 * B, block=B)
        calls = self._counting(monkeypatch)
        with obs.capture(enabled=True) as cap:
            _o, _g, _c, stats = smoothed_search(
                inst, [(geom, "direct", 1.0)], budget=5, restarts=4, noise=0.5,
            )
        # slices of 2 evals: a third restart would overrun the budget of 5
        assert cap.snapshot["counters"][obs_names.PLACEMENT_RESTARTS] == 2
        assert stats.evals == calls["n"] <= 5
