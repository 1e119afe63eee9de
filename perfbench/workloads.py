"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed)`` builds the inputs a job needs (graph, partition,
  schedule, and for ``place`` the seed compile).  The seed only picks a
  random permutation, so every seed does the same amount of work;
* ``job(ctx)`` is the unit the benchmark times.  It returns a
  :class:`Job` whose ``answer`` is a list of miss counts;
* ``oracle(ctx, first)`` recomputes the expected answer with the stepwise
  engines (:class:`~repro.runtime.executor.Executor` and the per-policy
  stepwise models of :mod:`repro.cache.policy`).  It is what
  ``goldens.json`` was made from, and it checks seeds that file lacks.

Layers are called through their modules (``compiled.compile_trace``, not
a bare imported name), so the traced run sees every call.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.analysis.experiments as experiments
import repro.core.baselines as baselines
import repro.core.dagpart as dagpart
import repro.core.partition_sched as partition_sched
import repro.core.tuning as tuning
import repro.graphs.apps as apps
import repro.graphs.topologies as topologies
import repro.mem.facility as facility
import repro.mem.placement as placement
import repro.runtime.compiled as compiled
import repro.runtime.streaming as streaming
from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.lru import LRUCache
from repro.cache.policy import get_policy, stepwise_trace_misses
from repro.mem.layout import layout_objects
from repro.mem.trace import TraceRecorder, TracingCache
from repro.runtime.executor import Executor
from repro.runtime.looped import Loop, LoopedSchedule
from repro.runtime.trace_cache import TraceCache

#: block size (words) and nominal cache size (words) of every workload
B = 8
M = 256

#: (policy, geometries) groups; one ``simulate_trace`` call per group
Pairs = List[Tuple[str, List[Any]]]


@dataclass
class Job:
    """Outcome of one job.

    ``answer`` is compared with the golden element for element.
    ``accesses`` is the logical accesses answered (trace length times the
    (trace, geometry) pairs answered); ``None`` means the golden record
    holds it, counted at the stepwise executor when the golden was made.  ``counts`` feed the traced run's per-layer
    metrics; ``layout`` is what the ``place`` oracle re-checks.
    """

    answer: List[int]
    accesses: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)
    layout: Any = None


def _perm(seed: int, items: Sequence[Any]) -> List[Any]:
    rng = np.random.default_rng(seed)
    return [items[i] for i in rng.permutation(len(items))]


def _partitioned(graph: Any, inputs: int) -> Tuple[Any, Any, CacheGeometry]:
    """Interval-DP partition and batch schedule for an M-word cache (the
    E12/A7 recipe); returns ``(partition, schedule, run_geometry)``."""
    geom = CacheGeometry(size=M, block=B)
    part = dagpart.interval_dp_partition(graph, M, c=2.0)
    plan = tuning.choose_batch(
        graph, M, cross_cids=[c.cid for c in part.cross_channels()]
    )
    n_batches = max(2, -(-inputs // max(plan.source_fires, 1)))
    sched = partition_sched.inhomogeneous_partition_schedule(
        graph, part, geom, n_batches=n_batches, plan=plan
    )
    return part, sched, tuning.required_geometry(part, geom)


def _replay(trace: Any, pairs: Pairs) -> List[int]:
    out: List[int] = []
    for policy, geoms in pairs:
        results = compiled.simulate_trace(trace, geoms, policy=policy, backend="serial")
        out.extend(r.misses for r in results)
    return out


def _n_pairs(pairs: Pairs) -> int:
    return sum(len(geoms) for _policy, geoms in pairs)


def _recorded_blocks(graph: Any, sched: Any, **layout: Any) -> List[int]:
    """The block trace of the stepwise executor (not the compiler)."""
    big = CacheGeometry(size=1 << 20, block=B)
    rec = TraceRecorder()
    Executor.measure(graph, big, sched, cache=TracingCache(LRUCache(big), rec), **layout)
    return rec.blocks


def _stepwise(blocks: List[int], pairs: Pairs) -> List[int]:
    return [
        int(sum(stepwise_trace_misses(blocks, geom, policy)))
        for policy, geoms in pairs
        for geom in geoms
    ]


# ----------------------------------------------------------------------
@dataclass
class SweepCtx:
    graph: Any
    sched: Any
    order: List[Any]
    pairs: Pairs


class Sweep:
    """fm_radio batch schedule under a seeded object layout; each job
    compiles it and replays it under every cache organization."""

    name = "sweep"

    def params(self, smoke: bool) -> Dict[str, int]:
        if smoke:
            return {"taps": 8, "bands": 2, "inputs": 16}
        return {"taps": 48, "bands": 6, "inputs": 512}

    def setup(self, seed: int, smoke: bool) -> SweepCtx:
        p = self.params(smoke)
        g = apps.fm_radio(taps=p["taps"], bands=p["bands"])
        part, sched, run_geom = _partitioned(g, p["inputs"])
        objects = layout_objects(g, order=partition_sched.component_layout_order(part))
        pairs: Pairs = [
            ("lru", [CacheGeometry(size=s, block=B) for s in (M, 2 * M, run_geom.size, 8 * M)]),
            ("lru", [CacheGeometry(size=4 * M, block=B, ways=4)]),
            ("direct", [CacheGeometry(size=4 * M, block=B, ways=1)]),
            ("opt", [CacheGeometry(size=s, block=B) for s in (2 * M, 4 * M)]),
            ("two_level", [
                TwoLevelGeometry(CacheGeometry(size=l1, block=B), CacheGeometry(size=l2, block=B))
                for l1, l2 in itertools.product((M, 2 * M), (4 * M, 8 * M))
            ]),
        ]
        return SweepCtx(g, sched, _perm(seed, objects), pairs)

    def job(self, ctx: SweepCtx) -> Job:
        trace = compiled.compile_trace(ctx.graph, ctx.sched, B, placement=ctx.order)
        answer = _replay(trace, ctx.pairs)
        return Job(answer, accesses=trace.accesses * _n_pairs(ctx.pairs))

    def oracle(self, ctx: SweepCtx, first: Job) -> List[int]:
        blocks = _recorded_blocks(ctx.graph, ctx.sched, placement=ctx.order)
        return _stepwise(blocks, ctx.pairs)


# ----------------------------------------------------------------------
@dataclass
class PlaceCtx:
    graph: Any
    sched: Any
    instance: Any
    start: List[Any]
    targets: List[Tuple[CacheGeometry, str, float]]
    budget: int


class Place:
    """The A7/A12 DES instance; each job is one multiswap search from a
    seeded start layout at a fixed eval budget over the A9 targets."""

    name = "place"

    def params(self, smoke: bool) -> Dict[str, int]:
        if smoke:
            return {"rounds": 2, "sbox_state": 8, "inputs": 16, "budget": 2}
        return {"rounds": 8, "sbox_state": 48, "inputs": 64, "budget": 8}

    def setup(self, seed: int, smoke: bool) -> PlaceCtx:
        p = self.params(smoke)
        g = apps.des_rounds(rounds=p["rounds"], sbox_state=p["sbox_state"])
        _part, sched, run_geom = _partitioned(g, p["inputs"])
        instance = placement.build_instance(g, sched, B)
        targets = [
            (run_geom.with_ways(1), "direct", 1.0),
            (run_geom.with_ways(2), "lru", 1.0),
            (run_geom.with_ways(4), "lru", 1.0),
        ]
        return PlaceCtx(g, sched, instance, _perm(seed, instance.objects), targets, p["budget"])

    def job(self, ctx: PlaceCtx) -> Job:
        order, gaps, cost, stats = facility.multiswap_refine(
            ctx.instance, ctx.start, targets=ctx.targets, budget=ctx.budget,
            backend="serial",
        )
        return Job(
            [int(cost)],
            accesses=ctx.instance.trace.accesses * stats.evals * len(ctx.targets),
            counts={"evals": stats.evals, "rounds": stats.rounds},
            layout=(order, gaps),
        )

    def oracle(self, ctx: PlaceCtx, first: Job) -> List[int]:
        """Stepwise misses of the layout the first job found, weighted
        like the search objective."""
        order, gaps = first.layout
        blocks = _recorded_blocks(ctx.graph, ctx.sched, placement=order, gaps=gaps)
        pairs: Pairs = [(policy, [geom]) for geom, policy, _w in ctx.targets]
        misses = _stepwise(blocks, pairs)
        return [int(sum(w * m for (_g, _p, w), m in zip(ctx.targets, misses)))]


# ----------------------------------------------------------------------
#: paper drivers: (short name, function name, full-size kwargs, smoke kwargs)
DRIVERS: List[Tuple[str, str, Dict[str, int], Optional[Dict[str, int]]]] = [
    ("e1", "experiment_e1_pipeline_optimality", {"n_outputs": 300}, None),
    ("e3", "experiment_e3_lower_bound", {"n_outputs": 600}, {"n_outputs": 60}),
    ("e5", "experiment_e5_dag_optimality", {}, {}),
]


def _row_misses(rows: List[Dict[str, Any]]) -> int:
    return int(sum(r.get("measured_misses", r.get("measured", 0)) for r in rows))


@dataclass
class PaperCtx:
    drivers: List[Tuple[str, str, Dict[str, int]]]
    order: List[int]


class Paper:
    """Fixed paper drivers (partitioners, schedulers, lower bounds and the
    stepwise executor); the seed only orders them within a job."""

    name = "paper"

    def params(self, smoke: bool) -> Dict[str, Any]:
        return {
            name: kw if not smoke else sm
            for name, _fn, kw, sm in DRIVERS
            if not smoke or sm is not None
        }

    def setup(self, seed: int, smoke: bool) -> PaperCtx:
        p = self.params(smoke)
        drivers = [(name, fn, p[name]) for name, fn, _kw, _sm in DRIVERS if name in p]
        return PaperCtx(drivers, _perm(seed, list(range(len(drivers)))))

    def job(self, ctx: PaperCtx) -> Job:
        answer = [0] * len(ctx.drivers)
        for i in ctx.order:
            _name, fn, kwargs = ctx.drivers[i]
            answer[i] = _row_misses(getattr(experiments, fn)(**kwargs))
        return Job(answer)

    def oracle(self, ctx: PaperCtx, first: Job) -> List[int]:
        """The drivers measure with the stepwise executor already, so the
        oracle is one in-order pass of them."""
        return [_row_misses(getattr(experiments, fn)(**kw)) for _n, fn, kw in ctx.drivers]


# ----------------------------------------------------------------------
@dataclass
class StreamCtx:
    graph: Any
    sched: Any
    pairs: Pairs
    chunk_words: int


class Stream:
    """A looped pipeline schedule compiled out of core twice per job, cold
    into a fresh trace cache and then warm, each replayed chunk by chunk."""

    name = "stream"
    #: pipeline state sizes; the seed permutes them over the modules
    STATES = (24, 16, 32, 8, 40, 16)

    def __init__(self, spill_root: Path) -> None:
        self.spill_root = spill_root

    def params(self, smoke: bool) -> Dict[str, int]:
        if smoke:
            return {"accesses": 20_000, "chunk_words": 4096}
        return {"accesses": 400_000, "chunk_words": 1 << 15}

    def setup(self, seed: int, smoke: bool) -> StreamCtx:
        p = self.params(smoke)
        g = topologies.pipeline(_perm(seed, list(self.STATES)), name="stream6")
        one = baselines.interleaved_schedule(g, n_iterations=1)
        per_iter = compiled.compile_trace(g, one, B).accesses
        sched = LoopedSchedule(
            loops=(Loop(count=-(-p["accesses"] // per_iter), body=tuple(one.firings)),),
            capacities=one.capacities,
            label="stream6-looped",
        )
        pairs: Pairs = [
            ("lru", [CacheGeometry(size=s, block=B) for s in (M // 2, 2 * M)]),
            ("direct", [CacheGeometry(size=M, block=B, ways=1)]),
        ]
        return StreamCtx(g, sched, pairs, p["chunk_words"])

    def job(self, ctx: StreamCtx) -> Job:
        spill = self.spill_root / "spill"
        shutil.rmtree(spill, ignore_errors=True)
        cache = TraceCache(spill, max_bytes=1 << 40)
        try:
            cold = streaming.compile_trace_chunked(
                ctx.graph, ctx.sched, B, ctx.chunk_words, cache=cache
            )
            answer = _replay(cold, ctx.pairs)
            spilled = cache.total_bytes()
            before = cache.counters
            warm = streaming.compile_trace_chunked(
                ctx.graph, ctx.sched, B, ctx.chunk_words, cache=cache
            )
            answer += _replay(warm, ctx.pairs)
            after = cache.counters
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        return Job(
            answer,
            accesses=2 * cold.accesses * _n_pairs(ctx.pairs),
            counts={
                "spilled_bytes": spilled,
                "warm_hit_ratio": hits / lookups if lookups else 0.0,
            },
        )

    def oracle(self, ctx: StreamCtx, first: Job) -> List[int]:
        flat = ctx.sched.to_flat()
        once = [
            Executor.measure(
                ctx.graph, geom, flat, cache=get_policy(policy).make_model(geom)
            ).misses
            for policy, geoms in ctx.pairs
            for geom in geoms
        ]
        return once + once


def registry(spill_root: Path) -> Dict[str, Any]:
    """Workload name -> workload object, in benchmark order."""
    return {w.name: w for w in (Sweep(), Place(), Paper(), Stream(spill_root))}
