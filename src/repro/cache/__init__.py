"""External-memory (I/O model / DAM) cache simulators and the policy table.

The paper analyzes schedules in the two-level I/O model of Aggarwal &
Vitter: a fast cache of ``M`` words organized in blocks of ``B`` words over
an arbitrarily large memory; the cost of an execution is the number of block
transfers (cache misses).  This package implements that model executably,
with :class:`~repro.cache.base.CacheGeometry` carrying an optional ``ways``
field that narrows the paper's fully-associative ideal down to real
set-associative and direct-mapped organizations, whose sets are indexed
by ``block % sets`` in the stepwise oracles here and the vectorized replay
kernels alike.

The four replacement policies are fixed: :data:`~repro.cache.policy.POLICIES`
names them (``"lru"``, ``"direct"``, ``"opt"``, ``"two_level"``), and one
table in :mod:`repro.cache.policy` binds each name to its *stepwise*
engine; the *vectorized* engines answering whole geometry sweeps from one
compiled trace live in :mod:`repro.runtime.replay`, one branch per name
(algorithms and complexity: ``docs/REPLAY.md``).  The stepwise engines here
are deliberately simple and stay the differential-test oracles for the
vectorized path:

* :class:`~repro.cache.lru.LRUCache` — LRU, fully associative by default
  (the standard realization of the ideal-cache model; O(1)-competitive with
  OPT under constant-factor augmentation, so the paper's bounds carry) or
  set-associative when the geometry carries an explicit ``ways``;
* :class:`~repro.cache.direct.DirectMappedCache` — the ``ways=1`` corner,
  where conflict misses appear (robustness experiments E12/A6);
* :class:`~repro.cache.opt.OPTCache` / :func:`~repro.cache.opt.simulate_opt`
  — Belady's offline-optimal replacement replayed over a recorded trace
  (ablation A3), per set under explicit associativity;
* :class:`~repro.cache.hierarchy.TwoLevelCache` — an inclusive two-level
  hierarchy (robustness experiment E12, inclusion ablation A8), swept as
  :class:`~repro.cache.hierarchy.TwoLevelGeometry` (L1, L2) pairs under
  ``policy="two_level"``: the replay kernel feeds L1's miss sub-trace to a
  second L2 pass, so one compiled trace answers whole (L1, L2) grids.
"""

from repro.cache.base import CacheGeometry, CacheModel
from repro.cache.stats import CacheStats
from repro.cache.lru import LRUCache
from repro.cache.direct import DirectMappedCache
from repro.cache.opt import OPTCache, next_occurrences, simulate_opt, simulate_opt_misses
from repro.cache.hierarchy import TwoLevelCache, TwoLevelGeometry
from repro.cache.policy import (
    POLICIES,
    ReplacementPolicy,
    get_policy,
    stepwise_trace_misses,
)

__all__ = [
    "CacheModel",
    "CacheGeometry",
    "CacheStats",
    "POLICIES",
    "ReplacementPolicy",
    "get_policy",
    "stepwise_trace_misses",
    "LRUCache",
    "DirectMappedCache",
    "OPTCache",
    "simulate_opt",
    "simulate_opt_misses",
    "next_occurrences",
    "TwoLevelCache",
    "TwoLevelGeometry",
]
