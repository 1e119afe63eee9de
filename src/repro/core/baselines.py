"""Baseline schedulers the partitioned approach is compared against.

The paper's related-work section (Section 6) situates its contribution
against practice; we implement runnable versions of each point of
comparison:

* :func:`single_appearance_schedule` — the classic SDF compiler output
  (Lee–Messerschmitt [18]): per iteration, fire each module ``r(v)`` times
  consecutively, modules in topological order.  Loads each module's state
  once per iteration but buffers a full iteration of data on every channel.

* :func:`interleaved_schedule` — the minimal-buffer demand-driven schedule:
  push each input through the whole graph before admitting the next.
  Minimal data footprint, maximal state thrash — the natural "naive"
  execution of a streaming interpreter.

* :func:`sermulins_scaled_schedule` — Sermulins et al. [25]: take the
  single-appearance steady-state schedule and replace each invocation by
  ``s`` back-to-back invocations, with the largest ``s`` whose scaled
  buffers still fit in cache ("computes the largest s that avoids
  catastrophic spills").

* :func:`kohli_greedy_schedule` — Kohli [15]: a pipeline heuristic that
  makes local run-length decisions per module: keep firing the current
  module while its input lasts and its output fits a cache-derived batch
  bound, then move to its successor (and wrap around).

All return :class:`repro.runtime.schedule.Schedule` objects with concrete
buffer capacities, directly executable by the simulator.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional

from repro.cache.base import CacheGeometry
from repro.errors import GraphError, ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import iteration_tokens, repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.runtime.deadlock import TokenTable, demand_driven_schedule
from repro.runtime.schedule import Schedule, schedule_span

__all__ = [
    "single_appearance_schedule",
    "interleaved_schedule",
    "sermulins_scaled_schedule",
    "kohli_greedy_schedule",
    "phased_schedule",
]


@schedule_span("single_appearance")
def single_appearance_schedule(graph: StreamGraph, n_iterations: int = 1) -> Schedule:
    """Classic single-appearance schedule: topological order, each module
    fired ``r(v)`` times back to back, repeated ``n_iterations`` times.

    Channel buffers must hold a full iteration's traffic
    (``r(u) * out(u, v)`` tokens) because every producer completes all its
    firings before its consumers start."""
    if n_iterations < 1:
        raise ScheduleError(f"n_iterations must be >= 1, got {n_iterations}")
    reps = repetition_vector(graph)
    iter_tok = iteration_tokens(graph, reps)
    order = graph.topological_order()
    one_iter: List[str] = []
    for name in order:
        one_iter.extend([name] * reps[name])
    caps = {
        cid: max(t, 1) + graph.channel(cid).delay for cid, t in iter_tok.items()
    }
    return Schedule(one_iter * n_iterations, capacities=caps, label="single-appearance")


@schedule_span("interleaved")
def interleaved_schedule(graph: StreamGraph, n_iterations: int = 1) -> Schedule:
    """Minimal-buffer demand-driven execution: fire the most downstream
    fireable module at every step (so each input is pushed as deep as
    possible before the next is admitted).  Uses ``minBuf`` capacities.

    For a homogeneous pipeline this is exactly "send one item through the
    whole pipeline at a time" — every module's state is re-touched once per
    item, the worst case the paper's partitioning is designed to avoid."""
    if n_iterations < 1:
        raise ScheduleError(f"n_iterations must be >= 1, got {n_iterations}")
    reps = repetition_vector(graph)
    targets = {name: n_iterations * r for name, r in reps.items()}
    caps = min_buffers(graph)
    firings = demand_driven_schedule(graph, targets, capacities=caps)
    return Schedule(firings, capacities=caps, label="interleaved")


@schedule_span("sermulins_scaled")
def sermulins_scaled_schedule(
    graph: StreamGraph,
    geometry: CacheGeometry,
    n_macro_iterations: int = 1,
    data_fraction: float = 0.5,
) -> Schedule:
    """Sermulins-style execution scaling.

    Scale the steady-state schedule by ``s``: per macro-iteration fire each
    module ``s * r(v)`` times consecutively (topological order).  ``s`` is
    the largest value keeping the scaled channel buffers within
    ``data_fraction * M`` words — the "largest s that avoids catastrophic
    spills".  ``s`` is at least 1 even when one iteration's buffers already
    exceed the budget (the method degrades to single-appearance, as the
    original does)."""
    if n_macro_iterations < 1:
        raise ScheduleError(f"n_macro_iterations must be >= 1, got {n_macro_iterations}")
    reps = repetition_vector(graph)
    iter_tok = iteration_tokens(graph, reps)
    total_iter_tokens = sum(iter_tok.values())
    budget = data_fraction * geometry.size
    s = max(1, int(budget // total_iter_tokens)) if total_iter_tokens else 1

    order = graph.topological_order()
    one_macro: List[str] = []
    for name in order:
        one_macro.extend([name] * (s * reps[name]))
    caps = {
        cid: max(s * t, 1) + graph.channel(cid).delay for cid, t in iter_tok.items()
    }
    return Schedule(
        one_macro * n_macro_iterations,
        capacities=caps,
        label=f"sermulins[s={s}]",
    )


@schedule_span("kohli")
def kohli_greedy_schedule(
    graph: StreamGraph,
    geometry: CacheGeometry,
    target_outputs: int,
    batch_fraction: float = 0.25,
) -> Schedule:
    """Kohli-style greedy pipeline heuristic.

    Walk the chain cyclically; at each module, keep firing while (a) input
    tokens remain and (b) the output buffer has room, but at most
    ``max(1, int(batch_fraction * M) // out_rate)`` consecutive firings — the local
    estimate of how long staying at one module remains profitable before
    its output traffic exceeds the cache.  Buffers are sized to one batch
    plus the channel's delay, which every channel starts at.

    Only local decisions are made, so — as the paper observes — the
    heuristic cannot be asymptotically optimal; experiment E3/E7 exhibit
    the gap."""
    if not graph.is_pipeline():
        raise GraphError("kohli_greedy_schedule requires a pipeline graph")
    if target_outputs < 1:
        raise ScheduleError(f"target_outputs must be >= 1, got {target_outputs}")
    order = graph.pipeline_order()

    batch_tokens = max(1, int(batch_fraction * geometry.size))
    caps: Dict[int, int] = {
        ch.cid: max(batch_tokens, ch.out_rate + ch.in_rate) + ch.delay
        for ch in graph.channels()
    }
    table = TokenTable(graph, order, caps)
    can_fire, fire = table.can_fire, table.fire
    max_runs = [
        max(1, batch_tokens // max((rate for _s, rate, _room in outs), default=1))
        for outs in table.outs
    ]
    sink = len(order) - 1
    firings: List[str] = []
    sink_fires = 0

    idx = 0
    stalls = 0
    while sink_fires < target_outputs:
        runs = 0
        while runs < max_runs[idx] and can_fire(idx):
            fire(idx)
            firings.append(order[idx])
            runs += 1
            if idx == sink:
                sink_fires += 1
                if sink_fires >= target_outputs:
                    break
        stalls = stalls + 1 if runs == 0 else 0
        if stalls > len(order):
            raise ScheduleError("kohli heuristic made no progress over a full cycle")
        idx = (idx + 1) % len(order)

    return Schedule(firings, capacities=caps, label=f"kohli[b={batch_tokens}]")


@schedule_span("phased")
def phased_schedule(graph: StreamGraph, n_iterations: int = 1) -> Schedule:
    """Phased schedule in the style of Karczmarek et al. [13].

    Modules are grouped into *phases* by topological level (longest path
    from the source); one iteration fires every module of phase 0 its
    ``r(v)`` times, then phase 1, and so on.  Compared to the
    single-appearance schedule this interleaves parallel branches level by
    level, which keeps per-edge occupancy at one iteration's traffic but
    touches every module's state once per iteration — the same asymptotic
    cache behaviour, included as the third published point of comparison.
    """
    if n_iterations < 1:
        raise ScheduleError(f"n_iterations must be >= 1, got {n_iterations}")
    reps = repetition_vector(graph)
    iter_tok = iteration_tokens(graph, reps)
    level: Dict[str, int] = {}
    for name in graph.topological_order():
        preds = graph.predecessors(name)
        level[name] = 1 + max((level[p] for p in preds), default=-1)
    by_level: Dict[int, List[str]] = {}
    for name, lv in level.items():
        by_level.setdefault(lv, []).append(name)

    one_iter: List[str] = []
    for lv in sorted(by_level):
        for name in by_level[lv]:
            one_iter.extend([name] * reps[name])
    caps = {
        cid: max(t, 1) + graph.channel(cid).delay for cid, t in iter_tok.items()
    }
    return Schedule(one_iter * n_iterations, capacities=caps, label="phased")
