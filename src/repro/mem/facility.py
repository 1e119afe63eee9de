"""Capacitated facility-location placement searches.

Assigning hot objects to capacity-limited cache sets *is* hard
capacitated facility location (each set is a facility with ``ways``
slots; each object "opens" in every set its block span covers), and the
pairwise-swap search of :func:`repro.mem.placement.swap_refine` is FLIP
local search — known to stall on plateaus that richer move sets escape.
This module upgrades the search on three axes, all scored against the
same exact block-remap cost model (never an estimator) by the same loop,
:func:`repro.mem.placement._local_search`:

* :func:`multiswap_refine` — local search over **k-object moves**
  (k <= 3): pairwise exchanges, 3-rotations along conflict-graph
  triangles, and single-object relocations, interleaved with the same
  ±1 gap moves.  Per-set **capacity is a hard constraint**: a candidate
  whose worst per-set hot-object load exceeds both the primary target's
  ``ways`` and the current state's load is pruned *before* scoring (it
  never consumes an eval; the ``placement.pruned`` counter records how
  many moves the constraint rejected).
* :func:`smoothed_search` — **smoothed-analysis style multi-restart**:
  each restart perturbs the conflict-graph edge weights with seeded
  multiplicative noise (changing the greedy start and the move ranking,
  *never* the objective), runs :func:`multiswap_refine` on a slice of
  the eval budget, and the **unperturbed exact objective picks the
  winner**.  Restart 0 always runs unperturbed, so ``smoothed`` can
  only match or beat single-start ``multiswap`` at the same total
  budget, modulo budget slicing.  Deterministic: one ``seed`` fixes the
  whole noise stream (``numpy.random.default_rng``), so the same
  ``(seed, restarts, noise, budget)`` always returns the same layout —
  CI pins exactly that.
* ``objective="minimax"`` — the fault-tolerant variant: instead of the
  weighted miss sum, minimize the **worst-case per-target ratio versus
  the seed layout** (lexicographically tie-broken by the weighted sum),
  which directly attacks A9's near-1x per-target stragglers.

:func:`repro.mem.placement.optimize_instance` runs all three as the
``multiswap``, ``smoothed`` and ``minimax`` strategies, under its
never-worse-than-seed-at-every-target contract.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.mem.layout import ObjectKey
from repro.mem.placement import (
    PlacementInstance,
    PlacementTarget,
    RefineStats,
    _gap_moves,
    _hot_objects,
    _local_search,
    _Move,
    _primary_target,
    _swap_moves,
    conflict_graph,
    greedy_color_order,
    normalize_targets,
)
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.backend import normalize_backend

__all__ = [
    "multiswap_refine",
    "smoothed_search",
]

#: caps keeping one round's move list bounded on dense conflict graphs
_MAX_TRIANGLES = 32
_RELOC_OBJECTS = 6
_RELOC_POSITIONS = 6


def _conflict_triangles(
    weights: Dict[Tuple[int, int], float],
) -> List[Tuple[int, int, int]]:
    """Top conflict-graph triangles by total edge weight — the 3-rotation
    move sites.  Bounded to the heaviest edges so dense graphs stay cheap."""
    nbr: Dict[int, Dict[int, float]] = {}
    for (a, b), w in weights.items():
        nbr.setdefault(a, {})[b] = w
        nbr.setdefault(b, {})[a] = w
    tris: Dict[Tuple[int, int, int], float] = {}
    heavy = sorted(weights, key=lambda e: (-weights[e], e))[: 2 * _MAX_TRIANGLES]
    for a, b in heavy:
        common = set(nbr[a]) & set(nbr[b])
        for c in common:
            x, y, z = sorted((a, b, c))
            if (x, y, z) not in tris:
                tris[(x, y, z)] = (
                    nbr[x].get(y, 0.0) + nbr[x].get(z, 0.0) + nbr[y].get(z, 0.0)
                )
    return sorted(tris, key=lambda t: (-tris[t], t))[:_MAX_TRIANGLES]


def _facility_moves(
    instance: PlacementInstance,
    weights: Dict[Tuple[int, int], float],
    hot: Sequence[int],
) -> List[_Move]:
    """The moves multiswap adds between swap's pairwise and gap moves:
    3-rotations over conflict triangles (both directions), then
    relocations of the hottest objects to evenly spaced positions."""
    moves: List[_Move] = []
    for x, y, z in _conflict_triangles(weights):
        moves.append(("rot", x, y, z, 1))
        moves.append(("rot", x, y, z, -1))
    n_obj = instance.n_objects
    step = max(1, n_obj // _RELOC_POSITIONS)
    for oid in hot[:_RELOC_OBJECTS]:
        if instance.nblocks[oid] == 0:
            continue
        for pos in range(0, n_obj, step):
            moves.append(("move", oid, pos))
    return moves


def multiswap_refine(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    budget: int = 400,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
    gap_budget: int = 0,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    objective: str = "sum",
    backend: Optional[str] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """k-object local search (k <= 3) with per-set capacity as a hard
    constraint, on the exact block-remap cost model.

    Same calling convention, return shape and loop
    (:func:`repro.mem.placement._local_search`) as
    :func:`repro.mem.placement.swap_refine`; the differences are the move
    list (3-rotations over conflict triangles and hot-object relocations
    between the ranked pairwise swaps and the gap moves), the capacity
    prune (a candidate whose worst per-set hot-object load exceeds both the
    primary target's ``ways`` and the current state's own load is rejected
    without spending an eval — counted by ``placement.pruned``), and the
    ``objective``: ``"sum"`` is the weighted miss total, ``"minimax"``
    minimizes ``(worst per-target miss ratio vs the seed layout, weighted
    sum)`` lexicographically and needs ``budget >= 2``.
    ``RefineStats.evals`` always equals the number of cost-model
    invocations — the honest currency of "equal eval budget" comparisons.
    The trajectory tracks the objective actually optimized (weighted sum,
    or the worst-case ratio under ``"minimax"``).  The search runs in the
    calling process; ``backend`` accepts only ``"serial"`` or ``None``
    (:func:`repro.runtime.backend.normalize_backend`).
    """
    normalize_backend(backend)
    targets = normalize_targets(targets, block=instance.block)
    if weights is None:
        weights = conflict_graph(instance)
    hot, hot_ids = _hot_objects(weights, instance.n_objects)
    moves = (
        _swap_moves(instance, weights)
        + _facility_moves(instance, weights, hot)
        + _gap_moves(hot, gap_budget)
    )
    with obs.span(obs_names.FACILITY_SEARCH):
        return _local_search(
            instance, order, targets, moves, budget, gap_budget=gap_budget,
            gaps=gaps, objective=objective, prune=hot_ids,
        )


def smoothed_search(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    budget: int = 400,
    gap_budget: int = 0,
    restarts: int = 4,
    noise: float = 0.25,
    seed: int = 0,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """Multi-restart :func:`multiswap_refine` with seeded noise on the
    conflict-graph edge weights (smoothed-analysis style).

    Restart ``r`` scales every edge weight by an independent uniform draw
    from ``[1 - noise, 1 + noise]`` (restart 0 stays unperturbed), rebuilds
    the greedy start order and the move ranking from the perturbed graph,
    and runs :func:`multiswap_refine` on a slice of ``budget // restarts``
    evals, at least 2 and at most ``budget``.  Restart 0 always runs; a
    later one only while its slice fits in what is left of the budget, so
    the total never exceeds it (``placement.restarts`` counts those run).
    The perturbation never touches the objective: every candidate is still
    scored by the exact remap cost model, so the winner across restarts —
    picked by that unperturbed objective — is a real improvement or the
    unperturbed restart itself.  ``seed`` fixes the whole noise stream
    (``numpy.random.default_rng``), making the result bit-reproducible.
    Returns the winner's ``(order, gaps, cost, stats)`` where
    ``stats.evals`` is the *total* across restarts (the honest budget) and
    the trajectory is the winning restart's.
    """
    if restarts < 1:
        raise LayoutError(f"restarts must be >= 1, got {restarts}")
    if noise < 0:
        raise LayoutError(f"noise must be >= 0, got {noise}")
    targets = normalize_targets(targets, block=instance.block)
    base_weights = conflict_graph(instance)
    pg, pp, _w = _primary_target(targets)
    rng = np.random.default_rng(seed)
    per_budget = min(budget, max(2, budget // restarts))
    best: Optional[Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]] = None
    total_evals = 0
    ran = 0
    for r in range(restarts):
        if r and total_evals + per_budget > budget:
            break
        if r == 0 or noise == 0:
            w_r = base_weights
        else:
            # multiplicative noise keeps weights positive and preserves the
            # graph's sparsity pattern; only the start order and the move
            # ranking see it — scoring stays exact
            w_r = {
                e: w * float(1.0 + noise * (2.0 * rng.random() - 1.0))
                for e, w in base_weights.items()
            }
        start = greedy_color_order(instance, pg, policy=pp, weights=w_r)
        order, gaps, cost, stats = multiswap_refine(
            instance, start, targets, budget=per_budget, weights=w_r,
            gap_budget=gap_budget,
        )
        total_evals += stats.evals
        ran += 1
        if best is None or cost < best[2]:
            best = (order, gaps, cost, stats)
    assert best is not None  # restart 0 always runs
    obs.add(obs_names.PLACEMENT_RESTARTS, ran)
    return best[0], best[1], best[2], replace(best[3], evals=total_evals)

