"""Central registry of every span and metric name (lint rule R6).

Instrumentation drifts into uselessness when each call site invents its
own string: ``"cache_hits"`` here, ``"trace_cache.hit"`` there, and the
dashboards join on neither.  Every name used with :func:`repro.obs.span`,
:func:`repro.obs.add`, :func:`repro.obs.gauge`, :func:`repro.obs.observe`
or :func:`repro.obs.series` inside ``src/repro/`` must be one of the
module-level constants below — rule **R6** in :mod:`repro.lint.rules`
rejects free strings and dynamic names at analysis time, so the full
vocabulary of the system is always this one page.

Naming convention: ``<subsystem>.<quantity>`` for metrics, a bare phase
word (optionally dotted) for spans.  Span attributes (``policy=...``) are
folded into the aggregation key at runtime as ``name[policy=lru]`` — the
attribute *values* are data, only the base name is vocabulary.

This module must stay importable with zero heavy dependencies (no numpy,
no ``repro.runtime``) — R6 checks that too, for the whole ``repro.obs``
package.

>>> from repro.obs import names
>>> names.CACHE_HITS
'trace_cache.hits'
>>> "REPLAY" in names.registered_names()
True
"""

from __future__ import annotations

from typing import Dict

# ---------------------------------------------------------------- spans
#: whole-run span wrapped around a CLI invocation by ``capture_run``
RUN = "run"
#: one trace compilation (graph + schedule -> block trace)
COMPILE = "compile"
#: persistent-cache lookup (`TraceCache.get`)
CACHE_GET = "trace_cache.get"
#: persistent-cache store (`TraceCache.put`)
CACHE_PUT = "trace_cache.put"
#: one vectorized replay call (attr ``policy=`` names the kernel)
REPLAY = "replay"
#: one `swap_refine` local search
PLACEMENT_SEARCH = "placement.search"
#: one `multiswap_refine` facility-location local search
FACILITY_SEARCH = "placement.facility"
#: one chunked out-of-core compilation (`compile_trace_chunked`)
STREAM_COMPILE = "stream.compile"
#: one call of a firing-by-firing scheduler (attr ``scheduler=``)
SCHEDULE = "schedule"
#: one partition search (attr ``kind=``)
PARTITION = "partition"

# ------------------------------------------------------------- counters
#: traces compiled from scratch (cache misses + uncached calls)
COMPILE_CALLS = "compile.calls"
#: total accesses across all compiled traces
COMPILE_ACCESSES = "compile.accesses"
#: whole loop periods a compilation wrote with numpy instead of firing by
#: firing (a looped schedule's period repeated; 0 for flat schedules)
COMPILE_PERIOD_REPEATS = "compile.period_repeats"
#: persistent-cache hits (mirrors ``TraceCache.counters.hits``)
CACHE_HITS = "trace_cache.hits"
#: persistent-cache misses (mirrors ``TraceCache.counters.misses``)
CACHE_MISSES = "trace_cache.misses"
#: entries evicted by the size cap (mirrors ``.counters.evictions``)
CACHE_EVICTIONS = "trace_cache.evictions"
#: corrupt entries dropped and recompiled (mirrors ``.counters.corrupt``)
CACHE_CORRUPT = "trace_cache.corrupt"
#: geometries answered by replay kernels (once per call)
REPLAY_GEOMETRIES = "replay.geometries"
#: total misses reported by `simulate_trace` (summed over geometries)
REPLAY_MISSES = "replay.misses"
#: geometries `simulate_trace` answered from two slices of a periodic trace
REPLAY_PERIOD_GEOMETRIES = "replay.period_geometries"
#: candidate layouts scored by a placement local search (every strategy's)
PLACEMENT_EVALS = "placement.evals"
#: improving sweeps taken by a placement local search
PLACEMENT_ROUNDS = "placement.rounds"
#: smoothed-search restarts actually run (`smoothed` strategy)
PLACEMENT_RESTARTS = "placement.restarts"
#: candidate moves rejected by the per-set capacity constraint before
#: scoring (`multiswap_refine` — pruned moves never consume evals)
PLACEMENT_PRUNED = "placement.pruned"
#: searched layouts `optimize_instance` discarded for the seed because they
#: missed more than the seed at some target
PLACEMENT_REJECTED = "placement.rejected"
#: trace chunks produced by chunked compilation / consumed by replay
STREAM_CHUNKS = "stream.chunks"
#: bytes spilled to on-disk trace segments by chunked compilation
STREAM_SPILLED_BYTES = "stream.spilled_bytes"
#: segments recompiled after a corrupt/missing entry (segment granularity)
STREAM_RECOMPILED = "stream.segments_recompiled"
#: firings the schedulers under a ``schedule`` span returned
SCHEDULE_FIRINGS = "schedule.firings"

# ----------------------------------------------------------- histograms
#: fraction of a target's conflict classes one delta-scored placement
#: candidate dirtied (one observation per target per candidate)
PLACEMENT_DIRTY_FRAC = "placement.dirty_frac"

# --------------------------------------------------------------- series
#: a local search's objective after each improving sweep (index 0 = the
#: start's)
PLACEMENT_COST = "placement.cost"


def registered_names() -> Dict[str, str]:
    """All registered names: ``{CONSTANT: value}`` for every module-level
    string constant above.  Lint rule R6 and the docs derive the canonical
    vocabulary from this exact mapping."""
    return {
        key: value
        for key, value in globals().items()
        if key.isupper() and isinstance(value, str)
    }
