"""Tests for latency analysis and the E14 tradeoff driver."""

import pytest

from repro.analysis.latency import (
    LatencyStats,
    experiment_e14_latency_tradeoff,
    pipeline_latency,
)
from repro.errors import GraphError
from repro.graphs.topologies import diamond, pipeline
from repro.runtime.schedule import Schedule


class TestPipelineLatency:
    def test_interleaved_chain_latency_is_depth(self):
        g = pipeline([1] * 4)
        sched = Schedule(["m0", "m1", "m2", "m3"] * 5)
        lat = pipeline_latency(g, sched)
        assert lat.n_outputs == 5
        assert lat.mean == 3.0  # source at t, sink at t+3
        assert lat.max == 3

    def test_batched_schedule_higher_latency(self):
        g = pipeline([1] * 3)
        B = 4
        batched = Schedule(["m0"] * B + ["m1"] * B + ["m2"] * B)
        lat = pipeline_latency(g, batched)
        # first input waits for the whole m0/m1 batch: latency 2B, last 2+B-1
        assert lat.max == 2 * B
        assert lat.mean > 2.0

    def test_latency_monotone_in_batch_size(self):
        g = pipeline([1] * 3)
        means = []
        for B in (1, 2, 8):
            s = Schedule((["m0"] * B + ["m1"] * B + ["m2"] * B) * 3)
            means.append(pipeline_latency(g, s).mean)
        assert means[0] < means[1] < means[2]

    def test_gain_mapping_downsampler(self):
        # m1 consumes 2 per firing: outputs 0 derives from input 1
        g = pipeline([1, 1], rates=[(1, 2)])
        sched = Schedule(["m0", "m0", "m1"] * 2)
        lat = pipeline_latency(g, sched)
        assert lat.n_outputs == 2
        # output 0 at pos 2 derives from input index ceil(1/(1/2))-1 = 1 (pos 1)
        assert lat.max >= 1

    def test_single_module_zero_latency(self):
        g = pipeline([4])
        lat = pipeline_latency(g, Schedule(["m0"] * 5))
        assert lat.mean == 0.0 and lat.n_outputs == 5

    def test_rejects_non_pipeline(self, simple_diamond):
        with pytest.raises(GraphError):
            pipeline_latency(simple_diamond, Schedule([]))

    def test_empty_schedule(self):
        g = pipeline([1, 1])
        lat = pipeline_latency(g, Schedule([]))
        assert lat.n_outputs == 0

    def test_summary(self):
        g = pipeline([1] * 2)
        lat = pipeline_latency(g, Schedule(["m0", "m1"]))
        assert "mean" in lat.summary()


class TestE14:
    def test_pareto_shape(self):
        rows = experiment_e14_latency_tradeoff(n_outputs=300)
        part_rows = [r for r in rows if r["cross_capacity"] > 0]
        # misses fall monotonically with capacity...
        for a, b in zip(part_rows, part_rows[1:]):
            assert b["misses_per_input"] <= a["misses_per_input"] + 1e-9
        # ...while latency rises
        for a, b in zip(part_rows, part_rows[1:]):
            assert b["mean_latency"] >= a["mean_latency"]
        assert part_rows[-1]["misses_per_input"] < part_rows[0]["misses_per_input"]
        assert part_rows[-1]["mean_latency"] > part_rows[0]["mean_latency"]
        # interleaved anchors minimum latency but maximum misses
        inter = rows[0]
        assert inter["mean_latency"] < part_rows[0]["mean_latency"]
        assert inter["misses_per_input"] > part_rows[-1]["misses_per_input"]
