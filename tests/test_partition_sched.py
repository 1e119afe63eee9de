"""Tests for the three partition schedulers (Section 3)."""

import pytest

from repro.cache.base import CacheGeometry
from repro.core.dagpart import greedy_topological_partition, interval_dp_partition
from repro.core.partition import Partition, whole_graph_partition
from repro.core.partition_sched import (
    component_layout_order,
    homogeneous_partition_schedule,
    inhomogeneous_partition_schedule,
    pipeline_dynamic_schedule,
)
from repro.core.pipeline import optimal_pipeline_partition
from repro.core.tuning import choose_batch, required_geometry
from repro.errors import GraphError, PartitionError, ScheduleError
from repro.graphs.repetition import repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import diamond, pipeline, random_pipeline
from repro.graphs.apps import filter_bank
from repro.runtime.executor import Executor
from repro.runtime.schedule import validate_schedule


class TestHomogeneousScheduler:
    def test_schedule_is_feasible(self, simple_diamond, geom):
        part = interval_dp_partition(simple_diamond, 32, c=1.0)
        sched = homogeneous_partition_schedule(simple_diamond, part, geom, n_batches=3)
        validate_schedule(simple_diamond, sched, require_drained=True)

    def test_each_module_fires_T_per_batch(self, simple_diamond, geom):
        part = interval_dp_partition(simple_diamond, 32, c=1.0)
        sched = homogeneous_partition_schedule(simple_diamond, part, geom, n_batches=2)
        counts = sched.fire_counts()
        assert all(c == 2 * geom.size for c in counts.values())

    def test_cross_buffers_sized_T(self, simple_diamond, geom):
        part = Partition(
            simple_diamond, [["src"], ["b0_0", "b0_1", "b1_0", "b1_1", "snk"]]
        )
        sched = homogeneous_partition_schedule(simple_diamond, part, geom)
        for ch in part.cross_channels():
            assert sched.capacities[ch.cid] == geom.size

    def test_rejects_inhomogeneous_graph(self, mixed_pipeline, geom):
        part = whole_graph_partition(mixed_pipeline)
        with pytest.raises(GraphError):
            homogeneous_partition_schedule(mixed_pipeline, part, geom)

    def test_rejects_non_well_ordered(self, simple_diamond, geom):
        bad = Partition(
            simple_diamond, [["src", "b0_0", "b1_1"], ["b1_0", "b0_1", "snk"]]
        )
        with pytest.raises(Exception):
            homogeneous_partition_schedule(simple_diamond, bad, geom)

    def test_rejects_bad_batches(self, simple_diamond, geom):
        part = whole_graph_partition(simple_diamond)
        with pytest.raises(ScheduleError):
            homogeneous_partition_schedule(simple_diamond, part, geom, n_batches=0)

    def test_executes_through_simulator(self, simple_diamond, geom):
        part = interval_dp_partition(simple_diamond, 32, c=1.0)
        sched = homogeneous_partition_schedule(simple_diamond, part, geom, n_batches=2)
        res = Executor.measure(
            simple_diamond,
            required_geometry(part, geom),
            sched,
            layout_order=component_layout_order(part),
        )
        assert res.source_fires == 2 * geom.size


class TestInhomogeneousScheduler:
    def test_feasible_and_drained(self, mixed_pipeline, geom):
        part = interval_dp_partition(mixed_pipeline, 64, c=1.0)
        sched = inhomogeneous_partition_schedule(mixed_pipeline, part, geom, n_batches=2)
        validate_schedule(mixed_pipeline, sched, require_drained=True)

    def test_fires_match_batch_plan(self, mixed_pipeline, geom):
        part = interval_dp_partition(mixed_pipeline, 64, c=1.0)
        plan = choose_batch(
            mixed_pipeline, geom.size, cross_cids=[c.cid for c in part.cross_channels()]
        )
        sched = inhomogeneous_partition_schedule(
            mixed_pipeline, part, geom, n_batches=3, plan=plan
        )
        counts = sched.fire_counts()
        for name, per_batch in plan.fires.items():
            assert counts[name] == 3 * per_batch

    def test_cross_capacity_is_batch_traffic(self, mixed_pipeline, geom):
        part = interval_dp_partition(mixed_pipeline, 64, c=1.0)
        plan = choose_batch(
            mixed_pipeline, geom.size, cross_cids=[c.cid for c in part.cross_channels()]
        )
        sched = inhomogeneous_partition_schedule(
            mixed_pipeline, part, geom, plan=plan
        )
        for ch in part.cross_channels():
            assert sched.capacities[ch.cid] == plan.channel_tokens[ch.cid]

    def test_strict_paper_batching(self, mixed_pipeline, geom):
        part = interval_dp_partition(mixed_pipeline, 64, c=1.0)
        sched = inhomogeneous_partition_schedule(
            mixed_pipeline, part, geom, strict_paper_batching=True
        )
        validate_schedule(mixed_pipeline, sched, require_drained=True)
        # the strict plan requires >= M batch traffic on EVERY channel (the
        # paper's literal condition), so the chosen k covers even the
        # slowest channel; cross buffers are sized to that traffic.
        plan = choose_batch(mixed_pipeline, geom.size, cross_cids=None)
        assert all(t >= geom.size for t in plan.channel_tokens.values())
        for ch in part.cross_channels():
            assert sched.capacities[ch.cid] >= geom.size

    def test_filter_bank_end_to_end(self, geom):
        g = filter_bank(branches=4, taps=16)
        part = interval_dp_partition(g, 128, c=2.0)
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=2)
        validate_schedule(g, sched, require_drained=True)
        res = Executor.measure(
            g, required_geometry(part, geom), sched,
            layout_order=component_layout_order(part),
        )
        assert res.misses > 0

    def test_rejects_bad_batches(self, mixed_pipeline, geom):
        part = whole_graph_partition(mixed_pipeline)
        with pytest.raises(ScheduleError):
            inhomogeneous_partition_schedule(mixed_pipeline, part, geom, n_batches=0)

    def test_works_on_homogeneous_graphs_too(self, simple_diamond, geom):
        part = interval_dp_partition(simple_diamond, 32, c=1.0)
        sched = inhomogeneous_partition_schedule(simple_diamond, part, geom, n_batches=2)
        validate_schedule(simple_diamond, sched, require_drained=True)


class TestPipelineDynamicScheduler:
    def test_produces_target_outputs(self, homog_pipeline, geom):
        part = optimal_pipeline_partition(homog_pipeline, geom.size, c=1.0)
        sched = pipeline_dynamic_schedule(homog_pipeline, part, geom, target_outputs=100)
        validate_schedule(homog_pipeline, sched)
        assert sched.count("m9") == 100

    def test_feasible_with_recorded_capacities(self, mixed_pipeline, geom):
        part = optimal_pipeline_partition(mixed_pipeline, geom.size, c=1.0)
        sched = pipeline_dynamic_schedule(mixed_pipeline, part, geom, target_outputs=64)
        validate_schedule(mixed_pipeline, sched)

    def test_cross_buffers_theta_M(self, homog_pipeline, geom):
        part = optimal_pipeline_partition(homog_pipeline, geom.size, c=1.0)
        sched = pipeline_dynamic_schedule(homog_pipeline, part, geom, target_outputs=10)
        for ch in part.cross_channels():
            assert sched.capacities[ch.cid] == 2 * geom.size

    def test_cross_capacity_override(self, homog_pipeline, geom):
        part = optimal_pipeline_partition(homog_pipeline, geom.size, c=1.0)
        sched = pipeline_dynamic_schedule(
            homog_pipeline, part, geom, target_outputs=10, cross_capacity=40
        )
        for ch in part.cross_channels():
            assert sched.capacities[ch.cid] == 40

    def test_single_component_degenerates_gracefully(self, geom):
        g = pipeline([4] * 4)
        part = whole_graph_partition(g)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=20)
        assert sched.count("m3") == 20

    def test_rejects_non_pipeline(self, simple_diamond, geom):
        part = whole_graph_partition(simple_diamond)
        with pytest.raises(GraphError):
            pipeline_dynamic_schedule(simple_diamond, part, geom, target_outputs=5)

    def test_rejects_non_contiguous_partition(self, homog_pipeline, geom):
        scattered = Partition(
            homog_pipeline,
            [["m0", "m2", "m4", "m6", "m8"], ["m1", "m3", "m5", "m7", "m9"]],
        )
        with pytest.raises(PartitionError):
            pipeline_dynamic_schedule(homog_pipeline, scattered, geom, target_outputs=5)

    def test_rejects_bad_target(self, homog_pipeline, geom):
        part = whole_graph_partition(homog_pipeline)
        with pytest.raises(ScheduleError):
            pipeline_dynamic_schedule(homog_pipeline, part, geom, target_outputs=0)

    def test_segment_runs_are_batched(self, homog_pipeline, geom):
        """Once loaded, a segment should fire many times in a row — the
        whole point of the dynamic schedule (state reuse)."""
        part = optimal_pipeline_partition(homog_pipeline, geom.size, c=1.0)
        assert part.k >= 2
        sched = pipeline_dynamic_schedule(homog_pipeline, part, geom, target_outputs=500)
        seg_of = {}
        for i, comp in enumerate(part.components):
            for n in comp:
                seg_of[n] = i
        runs, prev = [], None
        length = 0
        for f in sched.firings:
            s = seg_of[f]
            if s == prev:
                length += 1
            else:
                if prev is not None:
                    runs.append(length)
                prev, length = s, 1
        runs.append(length)
        # average contiguous segment-run length should be >> 1
        assert sum(runs) / len(runs) > 10


class TestComponentLayoutOrder:
    def test_groups_components_contiguously(self, homog_pipeline, geom):
        part = optimal_pipeline_partition(homog_pipeline, geom.size, c=1.0)
        order = component_layout_order(part)
        assert sorted(order) == sorted(homog_pipeline.module_names())
        # modules of one component are adjacent in the order
        idx = {n: i for i, n in enumerate(order)}
        for comp in part.components:
            positions = sorted(idx[n] for n in comp)
            assert positions == list(range(positions[0], positions[0] + len(comp)))


def _delayed_chain(rates, delays):
    """Six modules of state 40 in a chain; ``rates``/``delays`` by edge."""
    g = StreamGraph("delayed")
    for i in range(6):
        g.add_module(f"m{i}", state=40)
    for i in range(5):
        out_rate, in_rate = rates.get(i, (1, 1))
        g.add_channel(
            f"m{i}", f"m{i + 1}", out_rate=out_rate, in_rate=in_rate,
            delay=delays.get(i, 0),
        )
    return g


class TestDelays:
    """Every channel starts at its delay, so a cross edge holds its delay
    plus one batch's traffic."""

    def test_unit_rate_pipeline_validates(self):
        g = _delayed_chain({}, {1: 3})
        geom = CacheGeometry(size=32, block=8)
        part = optimal_pipeline_partition(g, 32, c=3.0)
        assert 1 in {ch.cid for ch in part.cross_channels()}
        for scheduler in (homogeneous_partition_schedule, inhomogeneous_partition_schedule):
            sched = scheduler(g, part, geom, n_batches=2)
            assert sched.capacities[1] == 32 + 3
            validate_schedule(g, sched)

    def test_rate_changing_pipeline_validates(self):
        g = _delayed_chain({2: (2, 1), 3: (1, 2)}, {0: 3, 1: 3})
        geom = CacheGeometry(size=32, block=8)
        part = optimal_pipeline_partition(g, 32, c=3.0)
        validate_schedule(g, inhomogeneous_partition_schedule(g, part, geom, n_batches=3))

