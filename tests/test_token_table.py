"""The schedulers that run on one :class:`~repro.runtime.deadlock.TokenTable`
against the per-check scans in :mod:`repro.testing.oracles`, the SDF-delay
fix of the pipeline schedulers, and the integer-gain exact partition search.

A table scheduler must return the firing list, capacities and label of its
reference, or raise the same error with the same message.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import MIXED_RATES
from repro.cache.base import CacheGeometry
from repro.core.baselines import interleaved_schedule, kohli_greedy_schedule
from repro.core.dagpart import exact_min_bandwidth_partition, interval_dp_partition
from repro.core.dynamic_dag import dynamic_dag_schedule
from repro.core.partition import Partition
from repro.core.partition_sched import pipeline_dynamic_schedule
from repro.core.pipeline import optimal_pipeline_partition
from repro.errors import DeadlockError, ReproError
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import compute_gains, repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import (
    butterfly,
    diamond,
    pipeline,
    random_pipeline,
    rate_matched_random_dag,
    split_join_tree,
)
from repro.runtime.deadlock import TokenTable, demand_driven_schedule
from repro.runtime.schedule import validate_schedule
from repro.testing.oracles import (
    bruteforce_pipeline_partition,
    reference_demand_driven_schedule,
    reference_kohli_greedy_schedule,
    reference_pipeline_dynamic_schedule,
)
from repro.testing.strategies import rate_matched_pipelines, small_dags

B = 8
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _outcome(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """A schedule's firings, capacities and label, or the error it raised."""
    try:
        out = fn(*args, **kwargs)
    except ReproError as exc:
        return (type(exc), str(exc))
    if isinstance(out, list):
        return out
    return (out.firings, out.capacities, out.label)


def _segments(draw: st.DrawFn, g: StreamGraph) -> Partition:
    order = g.pipeline_order()
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1))))
    bounds = [0, *cuts, len(order)]
    return Partition(g, [order[a:b] for a, b in zip(bounds, bounds[1:])], label="drawn")


def _delayed(g: StreamGraph, delays: Dict[int, int]) -> StreamGraph:
    out = StreamGraph(g.name)
    for m in g.modules():
        out.add_module(m.name, state=m.state, work=m.work)
    for ch in g.channels():
        out.add_channel(
            ch.src, ch.dst, out_rate=ch.out_rate, in_rate=ch.in_rate,
            delay=delays.get(ch.cid, 0),
        )
    return out


any_pipeline = st.one_of(
    rate_matched_pipelines(max_n=8, max_state=30),
    rate_matched_pipelines(max_n=8, max_state=30, with_delays=True),
)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------
class TestTokenTable:
    def test_slots_start_at_delays_and_fire_by_index(self):
        g = _delayed(pipeline([1, 1, 1], rates=[(2, 3), (1, 1)]), {1: 4})
        table = TokenTable(g, ["m2", "m1", "m0"], {0: 5, 1: 5})
        assert table.occupancies() == {0: 0, 1: 4}
        assert table.ins[2] == () and table.outs[2] == ((0, 2, 3),)
        assert not table.can_fire(1)  # m1 needs 3 tokens
        table.fire(2)
        table.fire(2)
        assert table.can_fire(1)
        table.fire(1)
        assert table.occupancies() == {0: 1, 1: 5}
        assert not table.can_fire(1)  # channel 1 is full
        assert table.can_fire(0)

    def test_unbounded_channels_and_initial_tokens(self):
        g = pipeline([1, 1], rates=[(4, 4)])
        table = TokenTable(g, ["m0", "m1"], initial_tokens={0: 100})
        assert table.can_fire(0) and table.can_fire(1)


# ---------------------------------------------------------------------------
# differential: table schedulers against the reference scans
# ---------------------------------------------------------------------------
class TestAgainstReferences:
    @given(data=st.data(), g=any_pipeline)
    @SETTINGS
    def test_pipeline_dynamic_matches_reference(self, data, g):
        part = _segments(data.draw, g)
        geom = CacheGeometry(size=B * data.draw(st.integers(1, 16)), block=B)
        kwargs = dict(
            target_outputs=data.draw(st.integers(1, 80)),
            buffer_factor=data.draw(st.integers(1, 4)),
            cross_capacity=data.draw(st.one_of(st.none(), st.integers(1, 200))),
        )
        assert _outcome(pipeline_dynamic_schedule, g, part, geom, **kwargs) == _outcome(
            reference_pipeline_dynamic_schedule, g, part, geom, **kwargs
        )

    @given(
        g=any_pipeline,
        size=st.integers(1, 32),
        outs=st.integers(1, 80),
        frac=st.sampled_from([0.05, 0.25, 0.5, 1.0]),
    )
    @SETTINGS
    def test_kohli_matches_reference(self, g, size, outs, frac):
        geom = CacheGeometry(size=B * size, block=B)
        assert _outcome(kohli_greedy_schedule, g, geom, outs, frac) == _outcome(
            reference_kohli_greedy_schedule, g, geom, outs, frac
        )

    @given(
        data=st.data(),
        g=st.one_of(any_pipeline, small_dags()),
        prefer_downstream=st.booleans(),
    )
    @SETTINGS
    def test_demand_driven_matches_reference(self, data, g, prefer_downstream):
        reps = repetition_vector(g)
        k = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            targets = {n: k * r for n, r in reps.items()}
        else:  # arbitrary targets reach the deadlock report too
            targets = {n: data.draw(st.integers(0, k * r)) for n, r in reps.items()}
        scale = data.draw(st.sampled_from([None, 1, 2]))
        caps = None if scale is None else {
            cid: cap * scale for cid, cap in min_buffers(g).items()
        }
        assert _outcome(
            demand_driven_schedule, g, targets, caps, prefer_downstream=prefer_downstream
        ) == _outcome(
            reference_demand_driven_schedule, g, targets, caps,
            prefer_downstream=prefer_downstream,
        )


def _e1_inputs():
    seed = 7
    return [
        (pipeline([16] * 12), 64, 300),
        (pipeline([24] * 24), 96, 300),
        (random_pipeline(16, 40, seed=seed, rate_choices=MIXED_RATES), 128, 300),
        (random_pipeline(32, 40, seed=seed + 1, rate_choices=MIXED_RATES), 128, 300),
        (
            random_pipeline(20, 100, seed=seed + 2, rate_choices=((1, 1), (2, 1), (1, 2))),
            160,
            200,
        ),
    ]


class TestPaperInputsPinned:
    """The experiments' own scheduler inputs, outside hypothesis' reach."""

    @pytest.mark.parametrize("index", range(5))
    def test_e1_configs(self, index):
        g, M, outs = _e1_inputs()[index]
        part = optimal_pipeline_partition(g, M, c=3.0)
        geom = CacheGeometry(size=M, block=B)
        args = (g, part, geom, outs)
        assert _outcome(pipeline_dynamic_schedule, *args) == _outcome(
            reference_pipeline_dynamic_schedule, *args
        )

    def test_e3_schedulers(self):
        g = random_pipeline(20, 64, seed=3, rate_choices=((1, 1), (1, 1), (2, 1), (1, 2)))
        geom = CacheGeometry(size=128, block=B)
        part = optimal_pipeline_partition(g, 128, c=1.0)
        args = (g, part, geom, 600)
        assert _outcome(pipeline_dynamic_schedule, *args) == _outcome(
            reference_pipeline_dynamic_schedule, *args
        )
        assert _outcome(kohli_greedy_schedule, g, geom, 600) == _outcome(
            reference_kohli_greedy_schedule, g, geom, 600
        )
        reps = repetition_vector(g)
        iters = 600 // reps[g.pipeline_order()[-1]]
        targets = {n: iters * r for n, r in reps.items()}
        assert interleaved_schedule(g, n_iterations=iters).firings == (
            reference_demand_driven_schedule(g, targets, min_buffers(g))
        )

    @pytest.mark.parametrize("cap", [4, 16, 64, 128, 256, 512, 1024])
    def test_a2_cross_capacities(self, cap):
        g = random_pipeline(16, 48, seed=37, rate_choices=((1, 1),))
        geom = CacheGeometry(size=128, block=B)
        part = optimal_pipeline_partition(g, 128, c=1.0)
        args = (g, part, geom, 1000)
        assert _outcome(pipeline_dynamic_schedule, *args, cross_capacity=cap) == _outcome(
            reference_pipeline_dynamic_schedule, *args, cross_capacity=cap
        )


# ---------------------------------------------------------------------------
# SDF delays: every channel starts at its delay
# ---------------------------------------------------------------------------
class TestDelays:
    def test_delayed_pipeline_schedules_validate(self):
        g = StreamGraph("delayed")
        for i in range(6):
            g.add_module(f"m{i}", state=40)
        for i in range(5):
            g.add_channel(f"m{i}", f"m{i + 1}", delay=70 if i == 1 else 0)
        geom = CacheGeometry(size=32, block=B)
        part = optimal_pipeline_partition(g, 32, c=3.0)
        validate_schedule(g, pipeline_dynamic_schedule(g, part, geom, target_outputs=100))
        kohli = kohli_greedy_schedule(g, geom, target_outputs=100)
        assert kohli.capacities[1] == max(8, 2) + 70
        validate_schedule(g, kohli)

    @given(data=st.data(), g=rate_matched_pipelines(max_n=8, with_delays=True))
    @SETTINGS
    def test_pipeline_schedules_validate_or_deadlock(self, data, g):
        geom = CacheGeometry(size=B * data.draw(st.integers(1, 16)), block=B)
        outs = data.draw(st.integers(1, 80))
        schedules: List[Callable[[], Any]] = [
            lambda: pipeline_dynamic_schedule(
                g, _segments(data.draw, g), geom, target_outputs=outs,
                cross_capacity=data.draw(st.one_of(st.none(), st.integers(1, 200))),
            ),
            lambda: kohli_greedy_schedule(g, geom, target_outputs=outs),
        ]
        for build in schedules:
            try:
                sched = build()
            except DeadlockError:
                continue
            validate_schedule(g, sched)

    def test_dynamic_dag_starts_at_delays(self):
        d = diamond(branch_len=4, ways=2, state=16)
        g = _delayed(d, {2: 5})  # a cross edge of the partition below
        geom = CacheGeometry(size=32, block=B)
        part = interval_dp_partition(g, 32, c=2.0)
        assert 2 in {ch.cid for ch in part.cross_channels()}
        for policy in ("fifo", "topo"):
            validate_schedule(
                g, dynamic_dag_schedule(g, part, geom, target_outputs=200, policy=policy)
            )


class TestDeadlockReport:
    def test_message_lists_nonempty_occupancies(self):
        with pytest.raises(DeadlockError) as err:
            demand_driven_schedule(pipeline([1, 1], rates=[(4, 4)]), {"m0": 1, "m1": 1}, {0: 3})
        assert str(err.value) == "no fireable module among ['m0', 'm1']; occupancies={}"
        with pytest.raises(DeadlockError) as err:
            demand_driven_schedule(pipeline([1, 1], rates=[(2, 3)]), {"m0": 1, "m1": 1}, {0: 5})
        assert str(err.value) == "no fireable module among ['m1']; occupancies={0: 2}"


# ---------------------------------------------------------------------------
# the exact minBW search on integer gains
# ---------------------------------------------------------------------------
class TestExactSearch:
    @given(
        g=rate_matched_pipelines(max_n=9, max_state=25, with_delays=False),
        m=st.integers(5, 50),
    )
    @SETTINGS
    def test_pipelines_match_bruteforce(self, g, m):
        best = bruteforce_pipeline_partition(g, m, 3.0)
        if best is None:
            return
        assert exact_min_bandwidth_partition(g, m, c=3.0).bandwidth() == best

    def test_fractional_gains_reach_the_search(self):
        g = pipeline([20, 20, 20, 20], rates=[(1, 3), (1, 2), (5, 1)])
        assert any(compute_gains(g).edge_gain(ch.cid).denominator > 1 for ch in g.channels())
        assert exact_min_bandwidth_partition(g, 20, c=1.0).bandwidth() == (
            bruteforce_pipeline_partition(g, 20, 1.0)
        )

    #: bandwidth and components of the exact search when it branched on
    #: ``Fraction`` sums (E5's dags and one rate-matched dag)
    PINNED = [
        (lambda: diamond(branch_len=4, ways=2, state=24), 48, Fraction(2), [
            ["src", "b0_0", "b1_0", "b0_1", "b1_1", "b0_2"],
            ["b1_2", "b0_3", "b1_3", "snk"],
        ]),
        (lambda: diamond(branch_len=3, ways=3, state=24), 48, Fraction(3), [
            ["src", "b0_0", "b1_0", "b2_0", "b0_1", "b1_1"],
            ["b2_1", "b0_2", "b1_2", "b2_2", "snk"],
        ]),
        (lambda: split_join_tree(1, state=30), 40, Fraction(2), [
            ["sr", "s0", "s1", "j0"], ["j1", "jr"],
        ]),
        (lambda: butterfly(2, state=20), 40, Fraction(8), [
            ["src", "n0_0", "n0_1", "n0_2", "n0_3", "n1_0", "n1_1"],
            ["n1_2", "n1_3", "n2_0", "n2_2", "n2_1", "n2_3", "snk"],
        ]),
        (lambda: rate_matched_random_dag(3, 3, 40, seed=9, rate_choices=(1, 2, 3)), 32,
         Fraction(94, 9), [
            ["src", "n0_0", "n1_1"], ["n0_1", "n1_2", "n2_2"],
            ["n0_2", "n1_0", "n2_1"], ["n2_0", "snk"],
        ]),
    ]

    @pytest.mark.parametrize("build, M, bandwidth, components", PINNED)
    def test_pinned_partitions(self, build, M, bandwidth, components):
        p = exact_min_bandwidth_partition(build(), M, c=3.0, max_modules=16)
        assert p.bandwidth() == bandwidth
        assert [list(c) for c in p.components] == components
