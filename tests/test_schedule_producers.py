"""Delays are part of the model: every schedule producer
(:data:`repro.testing.producers.SCHEDULE_PRODUCERS`) returns a schedule
that validates, or raises :class:`~repro.errors.DeadlockError`, on delayed
pipelines and delayed layered dags.  On one schedule per drawn graph the
compiled trace is also checked access for access against the stepwise
executor (:func:`~repro.testing.oracles.assert_trace_equivalent`)."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheGeometry
from repro.core.dagpart import interval_dp_partition
from repro.core.pipeline import optimal_pipeline_partition
from repro.errors import DeadlockError
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import pipeline
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.schedule import validate_schedule
from repro.testing.oracles import assert_trace_equivalent
from repro.testing.producers import SCHEDULE_PRODUCERS
from repro.testing.strategies import rate_matched_pipelines, small_dags

B = 8


def _partition(g, M, c):
    if g.is_pipeline():
        return optimal_pipeline_partition(g, M, c=c)
    return interval_dp_partition(g, M, c=c)


def _built(g, geom, part, rounds):
    """``(producer name, schedule)`` of every producer that accepts ``g``
    and does not deadlock; each schedule is validated."""
    out = []
    for producer in SCHEDULE_PRODUCERS:
        if not producer.applies_to(g):
            continue
        try:
            sched = producer.build(g, geom, part, rounds)
        except DeadlockError:
            continue
        validate_schedule(g, sched)
        out.append((producer.name, sched))
    return out


@given(
    data=st.data(),
    g=st.one_of(
        rate_matched_pipelines(max_n=8, max_state=30, with_delays=True),
        small_dags(with_delays=True),
    ),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_producer_validates_or_deadlocks(data, g):
    M = data.draw(st.sampled_from([32, 64]))
    geom = CacheGeometry(size=M, block=B)
    part = _partition(g, M, data.draw(st.sampled_from([2.0, 3.0])))
    built = _built(g, geom, part, data.draw(st.integers(1, 3)))
    if built:
        _name, sched = data.draw(st.sampled_from(built))
        assert_trace_equivalent(g, sched, B, [M // 2, M])


def test_every_producer_runs_on_a_delayed_unit_rate_pipeline():
    """Every producer accepts a unit-rate pipeline, so each one is built
    at least once whatever the property draws."""
    chain = pipeline([12, 20, 6, 16])
    g = StreamGraph("delayed-chain")
    for m in chain.modules():
        g.add_module(m.name, state=m.state, work=m.work)
    for ch, d in zip(chain.channels(), (2, 0, 3)):
        g.add_channel(ch.src, ch.dst, delay=d)
    geom = CacheGeometry(size=32, block=B)
    built = _built(g, geom, _partition(g, 32, 2.0), 2)
    assert [name for name, _s in built] == [p.name for p in SCHEDULE_PRODUCERS]


#: ``scheduler=`` of each producer whose span is not named after it
SPAN_OF = {
    "kohli_greedy": "kohli",
    "dynamic_dag[fifo]": "dynamic_dag",
    "dynamic_dag[topo]": "dynamic_dag",
}


def test_every_producer_opens_its_schedule_span():
    """Each producer runs under its own ``schedule[scheduler=...]`` span and
    counts what it returns in ``schedule.firings`` once (one that calls
    ``demand_driven`` inside nests its span but not its count)."""
    g = pipeline([12, 20, 6, 16])
    geom = CacheGeometry(size=32, block=B)
    part = _partition(g, 32, 2.0)
    for producer in SCHEDULE_PRODUCERS:
        with obs.capture(enabled=True) as cap:
            sched = producer.build(g, geom, part, 2)
        key = f"{obs_names.SCHEDULE}[scheduler={SPAN_OF.get(producer.name, producer.name)}]"
        snap = cap.snapshot
        assert snap["spans"][key]["count"] == 1, producer.name
        assert snap["counters"][obs_names.SCHEDULE_FIRINGS] == len(sched), producer.name
