"""Deadlock analysis and demand-driven schedule construction.

Section 3 of the paper leans on two facts about rate-matched dags:

1. With ``minBuf`` capacities on internal edges, a component "can always be
   scheduled at the lower level without overflowing these buffers" [17].
   :func:`demand_driven_schedule` constructs such a low-level schedule:
   repeatedly fire any module that both has enough inputs and whose outputs
   fit, preferring modules *later* in topological order (draining before
   filling keeps occupancies minimal).
2. Buffer capacities on cross edges must keep *some* component schedulable
   at all times.  :func:`fireable_modules` lists the modules that can fire
   under a token map; the schedulers do not call it.

:class:`TokenTable` is the token state every scheduler that decides
firing by firing runs on (this module's and the pipeline schedulers in
:mod:`repro.core`): built once per call, it resolves each module's
channels to slots of one flat token list, and the schedulers test and
fire modules on it.

These functions operate on token counts only (no cache); the executor
applies the resulting firing sequences to the memory simulation.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlockError
from repro.graphs.sdf import StreamGraph
from repro.runtime.schedule import schedule_span

__all__ = ["can_fire", "fireable_modules", "TokenTable", "demand_driven_schedule"]


def can_fire(
    graph: StreamGraph,
    name: str,
    tokens: Dict[int, int],
    capacities: Optional[Dict[int, int]] = None,
    allow_source: bool = True,
) -> bool:
    """True when ``name`` has sufficient inputs and sufficient output space.

    Sources are input-free; ``allow_source=False`` excludes them, which
    low-level component schedulers use when source firings are rationed by
    the high-level batching.
    """
    ins = graph.in_channels(name)
    if not ins and not allow_source:
        return False
    for ch in ins:
        if tokens.get(ch.cid, 0) < ch.in_rate:
            return False
    caps = capacities or {}
    for ch in graph.out_channels(name):
        cap = caps.get(ch.cid)
        if cap is not None and tokens.get(ch.cid, 0) + ch.out_rate > cap:
            return False
    return True


def fireable_modules(
    graph: StreamGraph,
    tokens: Dict[int, int],
    capacities: Optional[Dict[int, int]] = None,
    among: Optional[Sequence[str]] = None,
    allow_source: bool = True,
) -> List[str]:
    """All modules (optionally restricted to ``among``) that can fire now."""
    names = among if among is not None else graph.module_names()
    return [n for n in names if can_fire(graph, n, tokens, capacities, allow_source)]


#: ``room`` of an output channel with no capacity bound
_UNBOUNDED = sys.maxsize


class TokenTable:
    """Token counts of one graph's channels, with every module's channels
    resolved once, so a scheduler checks and fires modules by index.

    Module ``i`` is ``order[i]``.  ``ins[i]`` holds one ``(slot, rate)``
    tuple per input channel and ``outs[i]`` one ``(slot, rate, room)``
    tuple per output channel, ``room`` being the capacity minus the rate:
    a firing fits while its output slot holds at most ``room`` tokens.
    ``tokens`` holds one count per channel, at ``slot[cid]``; each channel
    starts at its delay unless ``initial_tokens`` names it.  Channels
    absent from ``capacities`` are unbounded.
    """

    __slots__ = ("slot", "tokens", "ins", "outs")

    def __init__(
        self,
        graph: StreamGraph,
        order: Sequence[str],
        capacities: Optional[Dict[int, int]] = None,
        initial_tokens: Optional[Dict[int, int]] = None,
    ) -> None:
        chans = list(graph.channels())
        slot = {ch.cid: k for k, ch in enumerate(chans)}
        caps = capacities or {}
        self.slot = slot
        self.tokens = [ch.delay for ch in chans]
        for cid, t in (initial_tokens or {}).items():
            if cid in slot:
                self.tokens[slot[cid]] = t
        self.ins: List[Tuple[Tuple[int, int], ...]] = [
            tuple((slot[ch.cid], ch.in_rate) for ch in graph.in_channels(n))
            for n in order
        ]
        self.outs: List[Tuple[Tuple[int, int, int], ...]] = [
            tuple(
                (
                    slot[ch.cid],
                    ch.out_rate,
                    _UNBOUNDED if caps.get(ch.cid) is None else caps[ch.cid] - ch.out_rate,
                )
                for ch in graph.out_channels(n)
            )
            for n in order
        ]

    def can_fire(self, i: int) -> bool:
        """True when module ``i`` has its inputs and room for its outputs."""
        tokens = self.tokens
        for s, rate in self.ins[i]:
            if tokens[s] < rate:
                return False
        for s, _rate, room in self.outs[i]:
            if tokens[s] > room:
                return False
        return True

    def fire(self, i: int) -> None:
        """Pop module ``i``'s inputs and push its outputs (unchecked)."""
        tokens = self.tokens
        for s, rate in self.ins[i]:
            tokens[s] -= rate
        for s, rate, _room in self.outs[i]:
            tokens[s] += rate

    def occupancies(self) -> Dict[int, int]:
        """Channel id -> tokens now, in channel-id order."""
        return {cid: self.tokens[k] for cid, k in self.slot.items()}


@schedule_span("demand_driven")
def demand_driven_schedule(
    graph: StreamGraph,
    target_fires: Dict[str, int],
    capacities: Optional[Dict[int, int]] = None,
    initial_tokens: Optional[Dict[int, int]] = None,
    prefer_downstream: bool = True,
) -> List[str]:
    """Fire each module exactly ``target_fires[name]`` times, never breaking
    feasibility, and return the firing order.

    Strategy: at each step fire the *latest* (in topological order) module
    that still owes firings and can fire — "repeatedly choosing any module
    that can be fired without exceeding output buffer size" (Section 3), with
    the downstream preference keeping buffer occupancy minimal so the
    ``minBuf`` capacities suffice.  Set ``prefer_downstream=False`` to prefer
    upstream modules instead (useful in tests to exhibit higher occupancy).

    Each step's scan starts at the earliest candidate that the previous
    firing could have made fireable: the fired module or one of its
    neighbours.  A firing changes only the fired module's channels, so
    every candidate the previous scan rejected before it and not adjacent
    to it is still unfireable, and the firing order is that of a scan
    from the first candidate.

    Raises
    ------
    DeadlockError
        If no owing module can fire before all targets are met.  For
        rate-matched targets (multiples of the repetition vector) with
        capacities >= minBuf this cannot happen [17]; reaching it signals
        either inconsistent targets or undersized buffers.
    """
    rank = {n: i for i, n in enumerate(graph.topological_order())}
    targets = {n: int(c) for n, c in target_fires.items() if c > 0}
    for n in targets:
        graph.module(n)
    candidates = sorted(targets, key=rank.__getitem__, reverse=prefer_downstream)
    index = {n: i for i, n in enumerate(candidates)}
    resume = [
        min([i] + [index[m] for m in graph.successors(n) + graph.predecessors(n) if m in index])
        for i, n in enumerate(candidates)
    ]
    table = TokenTable(graph, candidates, capacities, initial_tokens)
    can_fire_at, fire = table.can_fire, table.fire
    owed = [targets[n] for n in candidates]
    firings: List[str] = []
    total = sum(owed)
    start = 0
    while total > 0:
        for i in range(start, len(candidates)):
            if owed[i] and can_fire_at(i):
                break
        else:
            owing = [n for n, c in zip(candidates, owed) if c]
            occupied = {cid: t for cid, t in table.occupancies().items() if t}
            raise DeadlockError(
                f"no fireable module among {sorted(owing)}; occupancies={occupied}"
            )
        fire(i)
        owed[i] -= 1
        total -= 1
        firings.append(candidates[i])
        start = resume[i]
    return firings
