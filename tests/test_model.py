"""Tests for the analytic miss model (Lemma 4 / Lemma 8 algebra)."""

import pytest

from repro.analysis.model import predict_partition_cost
from repro.cache.base import CacheGeometry
from repro.core.dagpart import interval_dp_partition
from repro.core.partition import whole_graph_partition
from repro.core.partition_sched import (
    component_layout_order,
    inhomogeneous_partition_schedule,
)
from repro.core.tuning import choose_batch, required_geometry
from repro.graphs.topologies import pipeline, random_pipeline
from repro.runtime.executor import Executor


class TestPredictedCost:
    def test_zero_cross_edges_no_cross_cost(self, homog_pipeline, geom):
        part = whole_graph_partition(homog_pipeline)
        pred = predict_partition_cost(part, geom, source_fires=100, batch_source_fires=100)
        assert pred.cross_misses == 0
        assert pred.state_misses > 0

    def test_state_cost_scales_with_batches(self, homog_pipeline, geom):
        part = interval_dp_partition(homog_pipeline, geom.size, c=1.0)
        one = predict_partition_cost(part, geom, source_fires=128, batch_source_fires=128)
        four = predict_partition_cost(part, geom, source_fires=512, batch_source_fires=128)
        assert four.state_misses == pytest.approx(4 * one.state_misses)

    def test_cross_cost_scales_with_inputs(self, homog_pipeline, geom):
        part = interval_dp_partition(homog_pipeline, geom.size, c=1.0)
        a = predict_partition_cost(part, geom, source_fires=100, batch_source_fires=100)
        b = predict_partition_cost(part, geom, source_fires=200, batch_source_fires=100)
        assert b.cross_misses == pytest.approx(2 * a.cross_misses)

    def test_summary_totals(self, homog_pipeline, geom):
        part = whole_graph_partition(homog_pipeline)
        pred = predict_partition_cost(part, geom, source_fires=100, batch_source_fires=100)
        assert pred.total == pred.state_misses + pred.cross_misses + pred.stream_misses
        assert "predicted" in pred.summary()


class TestModelTracksSimulation:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_within_factor_two(self, seed):
        g = random_pipeline(16, 40, seed=seed, rate_choices=[(1, 1), (2, 1), (1, 2)])
        M = 128
        geom = CacheGeometry(size=M, block=8)
        part = interval_dp_partition(g, M, c=1.0)
        plan = choose_batch(g, M, cross_cids=[c.cid for c in part.cross_channels()])
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=4, plan=plan)
        res = Executor.measure(
            g, required_geometry(part, geom), sched,
            layout_order=component_layout_order(part),
        )
        pred = predict_partition_cost(
            part, geom, source_fires=res.source_fires, batch_source_fires=plan.source_fires
        )
        ratio = res.misses / pred.total
        assert 0.5 <= ratio <= 2.0, f"model off by {ratio}"
