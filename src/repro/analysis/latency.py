"""Latency analysis: what cache efficiency costs in responsiveness.

The paper's introduction contrasts the classic streaming objectives —
throughput and *latency* ("the period between the time an input data item
enters the computation and the time it affects an output data item") — with
its own cache-miss objective.  The partitioned schedulers buy cache
efficiency by batching Θ(M) items per component activation, which is
exactly a latency cost.  This module quantifies the trade.

We measure latency in *firing steps* (position in the schedule, the natural
time unit of the uniprocessor model): for output ``j`` of the sink, its
latency is the number of firings between the source firing that admitted
the input it derives from and the sink firing that emitted it.

For pipelines the derivation map is FIFO per stage, so output ``j`` (0-based)
derives from input ``ceil((j+1) / gain(t)) - 1``, where ``gain(t)`` is the
sink's gain — the fractional-progeny accounting of Definition 1 made
concrete.  (For gain 1 this is the identity.)

Experiment E14 sweeps the dynamic scheduler's cross-buffer capacity and
plots (misses/input, mean latency) pairs: the Pareto frontier of the
cache-vs-latency trade the paper's model implies but never measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Any, Dict, List

from repro.errors import GraphError
from repro.graphs.repetition import compute_gains
from repro.graphs.sdf import StreamGraph
from repro.runtime.schedule import Schedule

__all__ = ["LatencyStats", "pipeline_latency", "experiment_e14_latency_tradeoff"]


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution of one schedule, in firing steps."""

    n_outputs: int
    mean: float
    p50: float
    p95: float
    max: int

    def summary(self) -> str:
        return (
            f"latency over {self.n_outputs} outputs: mean={self.mean:.1f}, "
            f"p50={self.p50:.0f}, p95={self.p95:.0f}, max={self.max}"
        )


def pipeline_latency(graph: StreamGraph, schedule: Schedule) -> LatencyStats:
    """Per-output latency of a pipeline schedule.

    Walks the firing list once, recording the positions of source and sink
    firings; output ``j`` is matched to its originating input through the
    sink-gain derivation map.  Outputs whose originating input lies outside
    the schedule (possible only for malformed schedules) are skipped.
    """
    if not graph.is_pipeline():
        raise GraphError("pipeline_latency requires a pipeline graph")
    order = graph.pipeline_order()
    source, sink = order[0], order[-1]
    gains = compute_gains(graph)
    g_t = gains.gain(sink)  # outputs per source firing

    src_pos: List[int] = []
    snk_pos: List[int] = []
    for pos, name in enumerate(schedule.firings):
        if name == source:
            src_pos.append(pos)
        if name == sink:
            snk_pos.append(pos)
    if source == sink:
        # single-module pipeline: zero latency by definition
        return LatencyStats(n_outputs=len(snk_pos), mean=0.0, p50=0.0, p95=0.0, max=0)

    latencies: List[int] = []
    for j, out_pos in enumerate(snk_pos):
        # output j derives from input ceil((j+1)/g_t) - 1
        i = ceil(Fraction(j + 1) / g_t) - 1
        if 0 <= i < len(src_pos) and out_pos >= src_pos[i]:
            latencies.append(out_pos - src_pos[i])
    if not latencies:
        return LatencyStats(n_outputs=0, mean=0.0, p50=0.0, p95=0.0, max=0)

    latencies.sort()
    n = len(latencies)
    mean = sum(latencies) / n
    return LatencyStats(
        n_outputs=n,
        mean=mean,
        p50=float(latencies[n // 2]),
        p95=float(latencies[min(n - 1, (95 * n) // 100)]),
        max=latencies[-1],
    )


def experiment_e14_latency_tradeoff(
    seed: int = 47, n_outputs: int = 800
) -> List[Dict[str, Any]]:
    """The cache-efficiency / latency Pareto frontier.

    Sweep the dynamic pipeline scheduler's cross-buffer capacity from minimal
    to far beyond Θ(M); for each point measure misses/input (simulator) and
    mean latency (firing steps).  Shape: misses fall and latency rises with
    capacity — the knee sits near Θ(M), which is why the paper's choice of
    buffer size is the right default.  The interleaved baseline anchors the
    minimum-latency end.
    """
    from repro.cache.base import CacheGeometry
    from repro.core.baselines import interleaved_schedule
    from repro.core.partition_sched import (
        component_layout_order,
        pipeline_dynamic_schedule,
    )
    from repro.core.pipeline import optimal_pipeline_partition
    from repro.core.tuning import required_geometry
    from repro.graphs.topologies import random_pipeline
    from repro.runtime.compiled import measure_compiled

    g = random_pipeline(14, 40, seed=seed, rate_choices=[(1, 1)])
    M = 128
    geom = CacheGeometry(size=M, block=8)
    part = optimal_pipeline_partition(g, M, c=1.0)
    run_geom = required_geometry(part, geom)
    order = component_layout_order(part)

    rows: List[Dict[str, Any]] = []
    base = interleaved_schedule(g, n_iterations=n_outputs)
    res = measure_compiled(g, run_geom, base, layout_order=order)
    lat = pipeline_latency(g, base)
    rows.append(
        {
            "schedule": "interleaved (min latency)",
            "cross_capacity": 0,
            "misses_per_input": round(res.misses_per_source_fire, 3),
            "mean_latency": round(lat.mean, 1),
            "p95_latency": lat.p95,
        }
    )
    for cap in (8, 32, 128, 256, 512, 1024):
        sched = pipeline_dynamic_schedule(
            g, part, geom, target_outputs=n_outputs, cross_capacity=cap
        )
        res = measure_compiled(g, run_geom, sched, layout_order=order)
        lat = pipeline_latency(g, sched)
        rows.append(
            {
                "schedule": f"partitioned[cap={cap}]",
                "cross_capacity": cap,
                "misses_per_input": round(res.misses_per_source_fire, 3),
                "mean_latency": round(lat.mean, 1),
                "p95_latency": lat.p95,
            }
        )
    return rows
