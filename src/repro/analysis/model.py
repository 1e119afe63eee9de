"""Closed-form cache-miss predictions for partition schedules.

Lemma 4 (pipelines) and Lemma 8 (dags) bound a partition schedule's cost per
batch by

    sum_i O(M/B)                    -- loading each component V_i's state
  + O((1/B) * T * bandwidth(P))     -- reading/writing cross-edge buffers
  + O(T/B)                          -- external input/output streams

This module computes the *exact constant-free* version of that accounting
for our executor: per batch, each component's state is
``ceil(state(V_i) / B)`` blocks (loaded once — LRU keeps it resident while
the component runs, provided the component plus its working buffers fit);
each cross-edge token is written once and read once in circular buffers, so
a cross edge carrying ``W`` tokens per batch costs about ``2 * W / B``
(cold) block transfers; streams cost ``T/B + T_out/B``.

Experiment E2 compares these predictions to simulation and finds them tight
to small constant factors — the empirical confirmation that the executor
realizes the schedule the lemmas analyze.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, Optional

from repro.cache.base import CacheGeometry
from repro.core.partition import Partition
from repro.graphs.repetition import compute_gains

__all__ = ["PredictedCost", "predict_partition_cost"]


@dataclass(frozen=True)
class PredictedCost:
    """Predicted block transfers for a partition schedule run."""

    state_misses: float
    cross_misses: float
    stream_misses: float

    @property
    def total(self) -> float:
        return self.state_misses + self.cross_misses + self.stream_misses

    def summary(self) -> str:
        return (
            f"predicted misses ~ {self.total:.1f} "
            f"(state={self.state_misses:.1f}, cross={self.cross_misses:.1f}, "
            f"stream={self.stream_misses:.1f})"
        )


def predict_partition_cost(
    partition: Partition,
    geometry: CacheGeometry,
    source_fires: int,
    batch_source_fires: int,
) -> PredictedCost:
    """Predict the cost of running a partition schedule.

    Parameters
    ----------
    partition:
        The partition being scheduled.
    geometry:
        Cache geometry (M, B).
    source_fires:
        Total source firings of the run (``T_total``).
    batch_source_fires:
        Source firings per batch (``T``) — each component's state is loaded
        once per batch.

    The external stream term is always included, as the executor always
    charges the streams.
    """
    B = geometry.block
    n_batches = max(1, ceil(source_fires / batch_source_fires))

    state = 0.0
    for i in range(partition.k):
        state += ceil(max(partition.component_state(i), 1) / B)
    state *= n_batches

    gains = partition.gains()
    cross_tokens_per_fire = Fraction(0)
    for ch in partition.cross_channels():
        cross_tokens_per_fire += gains.edge_gain(ch.cid)
    # each token written once + read once
    cross = 2.0 * float(cross_tokens_per_fire) * source_fires / B

    sink = partition.graph.sinks()[0]
    out_per_fire = float(gains.gain(sink))
    stream = source_fires / B + source_fires * out_per_fire / B

    return PredictedCost(state_misses=state, cross_misses=cross, stream_misses=stream)
