"""Tests for looped schedules (the loop-nest representation)."""

import pytest

from repro.cache.base import CacheGeometry
from repro.core.dagpart import interval_dp_partition
from repro.core.partition_sched import (
    component_layout_order,
    homogeneous_partition_schedule,
)
from repro.core.tuning import required_geometry
from repro.errors import ScheduleError
from repro.graphs.topologies import pipeline
from repro.runtime.executor import Executor
from repro.runtime.looped import Loop, LoopedSchedule


class TestLoop:
    def test_expansion(self):
        l = Loop(count=3, body=("a", "b"))
        assert list(l.firings_iter()) == ["a", "b"] * 3
        assert len(l) == 6

    def test_nested(self):
        inner = Loop(count=2, body=("x",))
        outer = Loop(count=3, body=("a", inner))
        assert list(outer.firings_iter()) == ["a", "x", "x"] * 3
        assert len(outer) == 9

    def test_render(self):
        l = Loop(count=2, body=("a", Loop(count=3, body=("b",))))
        assert l.render() == "(2 a (3 b))"

    def test_invalid_rejected(self):
        with pytest.raises(ScheduleError):
            Loop(count=0, body=("a",))
        with pytest.raises(ScheduleError):
            Loop(count=1, body=())


class TestExecutorRunsLooped:
    def test_same_misses_as_flat(self):
        g = pipeline([24] * 6)
        geom = CacheGeometry(size=64, block=8)
        part = interval_dp_partition(g, 64, c=2.0)
        sched = homogeneous_partition_schedule(g, part, geom, n_batches=3)
        order = component_layout_order(part)
        rg = required_geometry(part, geom)

        flat_res = Executor(
            g, rg, capacities=sched.capacities, layout_order=order
        ).run(sched)
        ls = LoopedSchedule(
            (Loop(3, (Loop(64, ("m0", "m1", "m2", "m3", "m4")), Loop(64, ("m5",)))),),
            capacities=sched.capacities,
        )
        assert list(ls.firings_iter()) == sched.firings
        looped_res = Executor(
            g, rg, capacities=ls.capacities, layout_order=order
        ).run(ls)
        assert looped_res.misses == flat_res.misses
        assert looped_res.fire_counts == flat_res.fire_counts
