"""Schedule representation and cache-free feasibility validation.

Following Section 5 of the paper, a *schedule* is simply a list of module
executions ``pi = u1, u2, ..., um`` (the same module may appear many times).
Buffer capacities are a separate input: the same firing sequence may be
feasible with large cross-edge buffers and infeasible with minimal ones,
which is exactly the lever the partitioned schedulers pull.

:func:`validate_schedule` replays the token counting (no cache involved) and
reports the first violation: a firing without sufficient input tokens, or a
push overflowing a bounded buffer.  No scheduler runs it on its own output:
it is the oracle the tests check every schedule producer against (and
experiment E6 checks its schedules with).
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sized, TypeVar

from repro.errors import BufferOverflowError, ScheduleError
from repro.graphs.sdf import StreamGraph
from repro.obs import core as obs
from repro.obs import names as obs_names

__all__ = ["Schedule", "validate_schedule", "schedule_span"]

_Producer = TypeVar("_Producer", bound=Callable[..., Sized])

#: whether a decorated producer is running, so a nested one counts nothing
_PRODUCING: ContextVar[bool] = ContextVar("schedule_producing", default=False)


@dataclass
class Schedule:
    """An ordered firing sequence plus the buffer capacities it assumes.

    Attributes
    ----------
    firings:
        Module names in execution order.
    capacities:
        Channel id -> buffer capacity in tokens.  ``None`` entries (or a
        missing dict) mean "unbounded" — allowed for analysis but the
        executor requires concrete capacities.
    label:
        Human-readable provenance ("partitioned[c=3]", "naive-topological",
        ...), surfaced in experiment tables.
    """

    firings: List[str]
    capacities: Optional[Dict[int, int]] = None
    label: str = "schedule"

    def __len__(self) -> int:
        return len(self.firings)

    def __iter__(self) -> Iterator[str]:
        return iter(self.firings)

    def fire_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.firings:
            counts[f] = counts.get(f, 0) + 1
        return counts

    def count(self, name: str) -> int:
        return sum(1 for f in self.firings if f == name)

    def extended(self, more: Iterable[str]) -> "Schedule":
        return Schedule(self.firings + list(more), capacities=self.capacities, label=self.label)

    def summary(self) -> str:
        counts = self.fire_counts()
        top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
        tops = ", ".join(f"{n}x{c}" for n, c in top)
        return f"Schedule({self.label!r}, firings={len(self.firings)}, top=[{tops}])"


def schedule_span(scheduler: str) -> Callable[[_Producer], _Producer]:
    """Decorate a schedule producer: each call runs under a
    ``schedule[scheduler=...]`` span, and the outermost one counts the
    firings it returns (a :class:`Schedule` or a firing list) as
    ``schedule.firings``.  A producer that builds its firings with another
    (``interleaved_schedule`` with ``demand_driven_schedule``) nests that
    one's span in its own, and the firings count once."""

    def wrap(produce: _Producer) -> _Producer:
        @functools.wraps(produce)
        def traced(*args: object, **kwargs: object) -> Sized:
            outermost = not _PRODUCING.get()
            token = _PRODUCING.set(True)
            try:
                with obs.span(obs_names.SCHEDULE, scheduler=scheduler):
                    schedule = produce(*args, **kwargs)
            finally:
                _PRODUCING.reset(token)
            if outermost:
                obs.add(obs_names.SCHEDULE_FIRINGS, len(schedule))
            return schedule

        return traced  # type: ignore[return-value]

    return wrap


def validate_schedule(
    graph: StreamGraph,
    schedule: Schedule,
    initial_tokens: Optional[Dict[int, int]] = None,
    require_drained: bool = False,
) -> Dict[int, int]:
    """Replay token counts; raise on the first infeasible firing.

    Parameters
    ----------
    graph:
        The stream graph.  The source is assumed to draw from an infinite
        external stream (never input-blocked); the sink's outputs leave the
        system (never output-blocked) — Section 2's source/sink convention.
    schedule:
        Firing sequence and capacities under test.
    initial_tokens:
        Channel occupancies before the first firing; defaults to each
        channel's ``delay`` (its SDF initial tokens).
    require_drained:
        When True, additionally require every channel to end at its initial
        occupancy — the "complete iterations only" property that makes a
        schedule infinitely repeatable.

    Returns
    -------
    Final channel occupancies (channel id -> tokens).
    """
    tokens: Dict[int, int] = {ch.cid: ch.delay for ch in graph.channels()}
    if initial_tokens:
        for cid, t in initial_tokens.items():
            graph.channel(cid)
            if t < 0:
                raise ScheduleError(f"channel {cid}: negative initial tokens {t}")
            tokens[cid] = t
    caps = schedule.capacities or {}

    for pos, name in enumerate(schedule.firings):
        mod = graph.module(name)
        for ch in graph.in_channels(name):
            if tokens[ch.cid] < ch.in_rate:
                raise ScheduleError(
                    f"firing #{pos} of {name!r}: channel {ch.src}->{ch.dst} has "
                    f"{tokens[ch.cid]} tokens, needs {ch.in_rate}"
                )
        for ch in graph.out_channels(name):
            cap = caps.get(ch.cid)
            if cap is not None and tokens[ch.cid] + ch.out_rate > cap:
                raise BufferOverflowError(
                    f"firing #{pos} of {name!r}: channel {ch.src}->{ch.dst} at "
                    f"{tokens[ch.cid]}/{cap} cannot take {ch.out_rate} more tokens"
                )
        for ch in graph.in_channels(name):
            tokens[ch.cid] -= ch.in_rate
        for ch in graph.out_channels(name):
            tokens[ch.cid] += ch.out_rate

    if require_drained:
        init = initial_tokens or {}
        for cid, t in tokens.items():
            start = init.get(cid, graph.channel(cid).delay)
            if t != start:
                ch = graph.channel(cid)
                raise ScheduleError(
                    f"schedule does not drain channel {ch.src}->{ch.dst}: "
                    f"ends with {t}, started with {start}"
                )
    return tokens
