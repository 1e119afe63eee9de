"""The replacement policies: four fixed names, one table.

The library simulates exactly the policies of :data:`POLICIES`: ``"lru"``
(fully or set associative), ``"direct"``, ``"opt"`` and ``"two_level"``.
One literal table binds each name to the type of sweep point it takes and
to its *stepwise* engine — an online :class:`CacheModel` factory, or, for
OPT, a batch runner over a whole trace — which stays the differential-test
oracle.  The *vectorized* engines live in :mod:`repro.runtime.replay`,
whose ``replay_chunks`` has one branch per name, so a caller picks a
policy string once and gets either the reference simulation or the
single-pass replay, and the tests diff the two.  ``docs/REPLAY.md``
documents every policy's algorithm on both engines.

A sweep point is a single-level :class:`CacheGeometry` for every policy
but ``"two_level"``, which takes a
:class:`~repro.cache.hierarchy.TwoLevelGeometry` (L1, L2) pair; both
engines reject a point of the wrong type with a :class:`CacheConfigError`
naming the policy and the type it takes (:meth:`ReplacementPolicy.check`).
The trace a policy replays may come from any memory layout, including the
``placement=``-optimized object orders of :mod:`repro.mem.placement`: both
engines see only block ids, never layout objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Type

from repro.cache.base import CacheGeometry, CacheModel
from repro.cache.direct import DirectMappedCache
from repro.cache.hierarchy import TwoLevelCache, TwoLevelGeometry
from repro.cache.lru import LRUCache
from repro.cache.opt import simulate_opt_misses
from repro.errors import CacheConfigError

__all__ = [
    "POLICIES",
    "ReplacementPolicy",
    "get_policy",
    "stepwise_trace_misses",
]

#: Every replacement policy the library simulates.
POLICIES = ("lru", "direct", "opt", "two_level")


@dataclass(frozen=True)
class ReplacementPolicy:
    """One policy of :data:`POLICIES`.

    ``point`` is the type of sweep point it takes.  ``model`` builds its
    stepwise engine for one point; OPT, whose decisions need the future of
    the trace, has none and supplies ``batch_misses`` instead: the
    per-access miss sequence of a complete block trace.
    """

    name: str
    point: Type[object]
    model: Optional[Callable[[Any], CacheModel]] = None
    batch_misses: Optional[
        Callable[[Sequence[int], CacheGeometry], Sequence[bool]]
    ] = None

    def check(self, geometry: object) -> None:
        """Reject a sweep point that is not a :attr:`point`."""
        if not isinstance(geometry, self.point):
            raise CacheConfigError(
                f"policy {self.name!r} sweeps {self.point.__name__} points, "
                f"got {geometry!r}"
            )

    def make_model(self, geometry: Any) -> CacheModel:
        """The stepwise engine of one checked sweep point."""
        self.check(geometry)
        if self.model is None:  # OPT: see stepwise_trace_misses
            raise CacheConfigError(f"policy {self.name!r} has no online model")
        return self.model(geometry)


_TABLE: Dict[str, ReplacementPolicy] = {
    "lru": ReplacementPolicy("lru", CacheGeometry, model=LRUCache),
    "direct": ReplacementPolicy("direct", CacheGeometry, model=DirectMappedCache),
    "opt": ReplacementPolicy("opt", CacheGeometry, batch_misses=simulate_opt_misses),
    "two_level": ReplacementPolicy(
        "two_level", TwoLevelGeometry, model=lambda g: TwoLevelCache(g.l1, g.l2)
    ),
}


def get_policy(name: str) -> ReplacementPolicy:
    try:
        return _TABLE[name]
    except KeyError:
        raise CacheConfigError(
            f"unknown replacement policy {name!r}; choose from {', '.join(POLICIES)}"
        ) from None


def stepwise_trace_misses(
    trace: Sequence[int], geometry: Any, policy: str = "lru"
) -> Sequence[bool]:
    """Per-access miss sequence of the stepwise engine on a raw block trace.

    The differential-test entry point: whatever the vectorized replay
    answers, this is the reference it must match bit for bit.
    """
    pol = get_policy(policy)
    if pol.batch_misses is None:
        model = pol.make_model(geometry)
        return [model.access_block(int(b)) for b in trace]
    pol.check(geometry)
    return pol.batch_misses(trace, geometry)
