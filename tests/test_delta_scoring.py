"""Delta scoring of placement candidates.

:class:`repro.mem.placement.CandidateScorer` scores each candidate
against the last one it scored and replays only the conflict classes
(sets, or frames for direct-mapped targets) the difference dirties.  These
tests hold it to the full replay:

* a hypothesis property walks random move sequences — equal- and
  unequal-span swaps, rotations, relocations, ±1 gap moves — from random
  placements and checks every step's per-target counts against the full
  replay that :func:`repro.mem.placement.placement_costs` runs, across
  lru (fully and set associative), direct, opt and two_level targets
  (with a ``slow`` nightly twin);
* every search strategy returns the same layout and the same
  :class:`~repro.mem.placement.RefineStats` as under a full-replay
  reference scorer defined here;
* each delta-scored candidate records its dirty-class fraction per target.
"""

import random
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mem.placement as placement_mod
from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.mem.facility import multiswap_refine, smoothed_search
from repro.mem.placement import (
    CandidateScorer,
    _placed_starts,
    _target_misses,
    build_instance,
    optimize_instance,
    placement_costs,
    remap_blocks,
    swap_refine,
)
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.testing.strategies import geometry_strategy, placement_strategy

B = 8

_INSTANCE = None


def _instance():
    """One shared read-only instance with equal- and unequal-span objects."""
    global _INSTANCE
    if _INSTANCE is None:
        g = pipeline([16, 12, 16, 28, 8, 8])
        sched = single_appearance_schedule(g, n_iterations=6)
        _INSTANCE = build_instance(g, sched, B)
    return _INSTANCE


def _full_replay(instance, ids, gap_vec, targets) -> List[int]:
    """The reference: a full replay of the candidate's remapped trace —
    ``placement_costs`` itself wherever it accepts the targets (it checks
    for plain cache geometries, so two-level targets replay through the
    same ``_target_misses`` it wraps)."""
    order = [instance.objects[oid] for oid in ids]
    gaps = {instance.objects[o]: int(g) for o, g in enumerate(gap_vec) if g}
    if all(policy != "two_level" for _g, policy, _w in targets):
        return placement_costs(instance, order, targets, gaps=gaps)
    return _target_misses(remap_blocks(instance, order, gaps=gaps), targets)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def _targets(draw: st.DrawFn) -> list:
    """One to three (geometry, policy, weight) targets over every policy."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        policy = draw(st.sampled_from(["lru", "direct", "opt", "two_level"]))
        if policy == "direct":
            frames = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
            geom = CacheGeometry(size=frames * B, block=B, ways=1)
        elif policy == "two_level":
            a = draw(geometry_strategy(block=B, max_sets=16))
            b = draw(geometry_strategy(block=B, max_sets=16))
            l1, l2 = (a, b) if a.size <= b.size else (b, a)
            geom = TwoLevelGeometry(l1, l2)
        else:
            geom = draw(geometry_strategy(block=B, max_sets=16))
        out.append((geom, policy, 1.0))
    return out


#: a move: (kind, a, b, c) — operands are reduced modulo the object count
_moves = st.tuples(
    st.sampled_from(["swap_equal", "swap", "rot", "move", "gap+", "gap-"]),
    st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000),
)


def _apply(instance, ids: List[int], gap_vec: np.ndarray, move) -> None:
    """Apply one move in place (a no-op when it does not apply)."""
    kind, a, b, c = move
    n = len(ids)
    i, j, k = a % n, b % n, c % n
    if kind == "swap_equal":
        # an equal-span pair keeps every other object where it was
        span = instance.nblocks[ids[i]]
        same = [p for p in range(n) if p != i and instance.nblocks[ids[p]] == span]
        if same:
            j = same[b % len(same)]
            ids[i], ids[j] = ids[j], ids[i]
    elif kind == "swap":
        ids[i], ids[j] = ids[j], ids[i]
    elif kind == "rot":
        if len({i, j, k}) == 3:
            ids[i], ids[j], ids[k] = ids[k], ids[i], ids[j]
    elif kind == "move":
        ids.insert(j, ids.pop(i))
    elif kind == "gap+":
        gap_vec[ids[i]] += 1
    elif gap_vec[ids[i]] > 0:
        gap_vec[ids[i]] -= 1


def _check_walk(start, targets, moves) -> None:
    instance = _instance()
    order, gaps = start
    ids = [instance.index_of(key) for key in order]
    gap_vec = np.zeros(instance.n_objects, dtype=np.int64)
    for key, g in gaps.items():
        gap_vec[instance.index_of(key)] = g
    scorer = CandidateScorer(instance, targets)
    for step in [None] + list(moves):
        if step is not None:
            _apply(instance, ids, gap_vec, step)
        got = scorer.score(_placed_starts(instance, ids, gap_vec))
        assert got == _full_replay(instance, ids, gap_vec, targets), step


class TestDeltaEqualsFullReplay:
    @given(
        start=placement_strategy(_instance().objects, max_gap=2),
        targets=_targets(),
        moves=st.lists(_moves, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_move_sequences(self, start, targets, moves):
        _check_walk(start, targets, moves)

    @pytest.mark.slow
    @given(
        start=placement_strategy(_instance().objects, max_gap=3),
        targets=_targets(),
        moves=st.lists(_moves, max_size=24),
    )
    @settings(deadline=None)
    def test_move_sequences_nightly(self, start, targets, moves):
        _check_walk(start, targets, moves)

    def test_fully_associative_target_replays_once(self, monkeypatch):
        """One class never goes dirty: only the first candidate replays."""
        import repro.runtime.replay as replay

        instance = _instance()
        calls = {"n": 0}
        real = replay.replay_miss_masks

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(replay, "replay_miss_masks", counted)
        targets = [(CacheGeometry(size=16 * B, block=B), "lru", 1.0)]
        ids = list(range(instance.n_objects))
        scorer = CandidateScorer(instance, targets)
        first = scorer.score(_placed_starts(instance, ids))
        rest = [
            scorer.score(_placed_starts(instance, ids[::-1])),
            scorer.score(_placed_starts(instance, ids[1:] + ids[:1])),
        ]
        assert calls["n"] == 1
        assert rest == [first] * 2


# ----------------------------------------------------------------------
# searches: identical to a full-replay reference scorer
# ----------------------------------------------------------------------
class FullReplayScorer(CandidateScorer):
    """Reference scorer: every candidate replays its whole remapped trace."""

    def score(self, starts: np.ndarray) -> List[int]:
        self.evals += 1
        inst = self.instance
        return _target_misses(
            starts[inst.obj_of_access] + inst.block_offset, self.targets
        )


@pytest.fixture(scope="module")
def des():
    """A small DES instance, partitioned and batch scheduled like A7's, the
    A9 target organizations {direct, 2-way, 4-way} at a size where its
    objects conflict, and a seeded shuffled start order."""
    from repro.core.dagpart import interval_dp_partition
    from repro.core.partition_sched import inhomogeneous_partition_schedule
    from repro.core.tuning import choose_batch
    from repro.graphs.apps import des_rounds

    g = des_rounds(rounds=4, sbox_state=16)
    geom = CacheGeometry(size=256, block=B)
    part = interval_dp_partition(g, 256, c=2.0)
    plan = choose_batch(g, 256, cross_cids=[c.cid for c in part.cross_channels()])
    sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=2, plan=plan)
    inst = build_instance(g, sched, B)
    run = CacheGeometry(size=16 * B, block=B)
    targets = [
        (run.with_ways(1), "direct", 1.0),
        (run.with_ways(2), "lru", 1.0),
        (run.with_ways(4), "lru", 1.0),
    ]
    start = list(inst.objects)
    random.Random(1).shuffle(start)
    return inst, targets, start


def _both(monkeypatch, fn):
    """``fn()`` under the delta scorer, then under the full-replay one."""
    delta = fn()
    with monkeypatch.context() as m:
        m.setattr(placement_mod, "CandidateScorer", FullReplayScorer)
        full = fn()
    return delta, full


class TestSearchesMatchFullReplay:
    def test_swap_refine(self, des, monkeypatch):
        inst, targets, start = des
        delta, full = _both(monkeypatch, lambda: swap_refine(
            inst, start, targets=targets, budget=80, gap_budget=2,
        ))
        assert delta == full

    def test_multiswap_refine(self, des, monkeypatch):
        inst, targets, start = des
        delta, full = _both(monkeypatch, lambda: multiswap_refine(
            inst, start, targets=targets, budget=80, gap_budget=2,
        ))
        assert delta == full

    def test_minimax_refine(self, des, monkeypatch):
        inst, targets, start = des
        delta, full = _both(monkeypatch, lambda: multiswap_refine(
            inst, start, targets=targets, budget=60,
            objective="minimax",
        ))
        assert delta == full

    def test_smoothed_search(self, des, monkeypatch):
        inst, targets, start = des
        delta, full = _both(monkeypatch, lambda: smoothed_search(
            inst, targets=targets, budget=80, restarts=2, noise=0.5, seed=3,
        ))
        assert delta == full

    @pytest.mark.parametrize("strategy", ["swap", "multiswap", "smoothed", "minimax"])
    def test_strategies(self, des, monkeypatch, strategy):
        inst, targets, _start = des
        delta, full = _both(monkeypatch, lambda: optimize_instance(
            inst, strategy=strategy, targets=targets, budget=60,
        ))
        assert delta == full


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def _walk_starts(instance, n: int) -> List[np.ndarray]:
    rng = np.random.default_rng(5)
    ids = list(range(instance.n_objects))
    out = []
    for _ in range(n):
        i, j = rng.choice(len(ids), size=2, replace=False)
        ids[i], ids[j] = ids[j], ids[i]
        out.append(_placed_starts(instance, ids))
    return out


def test_dirty_fraction_histogram():
    instance = _instance()
    targets = [
        (CacheGeometry(size=16 * B, block=B, ways=1), "direct", 1.0),
        (CacheGeometry(size=16 * B, block=B), "lru", 1.0),
    ]
    starts = _walk_starts(instance, 5)
    with obs.capture(enabled=True) as cap:
        scorer = CandidateScorer(instance, targets)
        for candidate in starts:
            scorer.score(candidate)
    hist = cap.snapshot["histograms"][obs_names.PLACEMENT_DIRTY_FRAC]
    # the first candidate has no base; each later one records every target
    assert hist["count"] == (len(starts) - 1) * len(targets)
    assert 0.0 <= hist["min"] <= hist["max"] <= 1.0
    # a fully-associative target has one class, which never goes dirty
    assert hist["min"] == 0.0
