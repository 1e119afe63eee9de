"""Literal answers of the placement local search, recorded before its loops
were merged into one.

Each case pins ``(order, gaps, cost, evals, trajectory)`` exactly, so any
change to the move order, the acceptance rule, the gap-move skip rule or
the eval accounting shows up here as a diff:

* ``swap_refine`` at batch 1 on the small pipeline with gap budget 3 (no
  move improves; the search spends 46 evals proving it);
* ``swap_refine`` at batch 1 on a shuffled start where a +1 gap move is
  accepted, so the opposite -1 move that would re-test the state just left
  is skipped (one eval more without the rule);
* ``multiswap_refine`` at gap budget 0, under the sum and the minimax
  objective.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.base import CacheGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.mem.facility import multiswap_refine
from repro.mem.placement import build_instance, swap_refine

B = 8
GEOM = CacheGeometry(size=16 * B, block=B)


def _instance(n_iterations):
    g = pipeline([12, 20, 6, 28, 10])
    return build_instance(g, single_appearance_schedule(g, n_iterations=n_iterations), B)


def _shuffled(objects, seed):
    order = list(objects)
    np.random.default_rng(seed).shuffle(order)
    return order


def _answer(result):
    order, gaps, cost, stats = result
    return order, gaps, cost, stats.evals, stats.trajectory


def _state(name):
    return ("state", name)


def _buffer(cid):
    return ("buffer", cid)


def _swap_gap3():
    inst = _instance(12)
    return swap_refine(
        inst, list(inst.objects), GEOM, policy="direct", budget=200, gap_budget=3
    )


def _swap_gap_accepted():
    inst = _instance(8)
    return swap_refine(
        inst, _shuffled(inst.objects, 2), CacheGeometry(size=8 * B, block=B),
        policy="direct", budget=200, gap_budget=2,
    )


def _multiswap(objective):
    inst = _instance(12)
    targets = [(GEOM, "direct", 1.0), (GEOM.with_ways(2), "lru", 1.0)]
    return multiswap_refine(
        inst, _shuffled(inst.objects, 0), targets=targets, budget=80,
        objective=objective,
    )


PINS = {
    "swap_gap_budget_3": (
        _swap_gap3,
        (
            [_state("m0"), _state("m1"), _state("m2"), _state("m3"), _state("m4"),
             _buffer(0), _buffer(1), _buffer(2), _buffer(3)],
            {}, 52.0, 46, (52.0,),
        ),
    ),
    "swap_accepts_a_gap_move": (
        _swap_gap_accepted,
        (
            [_state("m2"), _buffer(2), _buffer(1), _buffer(0), _buffer(3),
             _state("m3"), _state("m4"), _state("m0"), _state("m1")],
            {_buffer(2): 1}, 137.0, 92, (144.0, 137.0),
        ),
    ),
    "multiswap_sum": (
        lambda: _multiswap("sum"),
        (
            [_state("m4"), _buffer(1), _state("m2"), _buffer(2), _state("m3"),
             _buffer(3), _buffer(0), _state("m0"), _state("m1")],
            {}, 114.0, 80, (117.0, 114.0),
        ),
    ),
    "multiswap_minimax": (
        lambda: _multiswap("minimax"),
        (
            [_buffer(1), _state("m0"), _state("m2"), _buffer(2), _state("m3"),
             _buffer(3), _buffer(0), _state("m4"), _state("m1")],
            {}, 113.0, 80, (1.0576923076923077, 0.9807692307692307),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_search_answer_is_pinned(case):
    run, want = PINS[case]
    assert _answer(run()) == want
