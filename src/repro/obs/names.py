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
#: one ordered map over an execution backend (attr ``backend=``)
BACKEND_MAP = "backend.map"
#: one `run_batch` front-door invocation
BATCH = "run_batch"
#: one `swap_refine` local search (attr ``batch=``)
PLACEMENT_SEARCH = "placement.search"
#: one `multiswap_refine` facility-location local search (attr ``k=``)
FACILITY_SEARCH = "placement.facility"
#: one chunked out-of-core compilation (`compile_trace_chunked`)
STREAM_COMPILE = "stream.compile"
#: one streaming replay over a chunk source (attr ``policy=``)
STREAM_REPLAY = "stream.replay"

# ------------------------------------------------------------- counters
#: traces compiled from scratch (cache misses + uncached calls)
COMPILE_CALLS = "compile.calls"
#: total accesses across all compiled traces
COMPILE_ACCESSES = "compile.accesses"
#: persistent-cache hits (mirrors ``TraceCache.counters.hits``)
CACHE_HITS = "trace_cache.hits"
#: persistent-cache misses (mirrors ``TraceCache.counters.misses``)
CACHE_MISSES = "trace_cache.misses"
#: entries evicted by the size cap (mirrors ``.counters.evictions``)
CACHE_EVICTIONS = "trace_cache.evictions"
#: corrupt entries dropped and recompiled (mirrors ``.counters.corrupt``)
CACHE_CORRUPT = "trace_cache.corrupt"
#: geometries answered by replay kernels (chunk-sum invariant)
REPLAY_GEOMETRIES = "replay.geometries"
#: total misses reported by `simulate_trace` (summed over geometries)
REPLAY_MISSES = "replay.misses"
#: queries entering `run_batch`
BATCH_QUERIES = "run_batch.queries"
#: queries whose trace an earlier query in the batch already compiled
BATCH_DEDUPED = "run_batch.deduped"
#: distinct (trace, policy) replay groups per batch
BATCH_GROUPS = "run_batch.groups"
#: items mapped across a backend by `fan_out` / `process_sweep`
BACKEND_TASKS = "backend.tasks"
#: candidate layouts scored by `swap_refine`
PLACEMENT_EVALS = "placement.evals"
#: improvement rounds taken by `swap_refine`
PLACEMENT_ROUNDS = "placement.rounds"
#: smoothed-search restarts actually run (`smoothed` strategy)
PLACEMENT_RESTARTS = "placement.restarts"
#: candidate moves rejected by the per-set capacity constraint before
#: scoring (`multiswap_refine` — pruned moves never consume evals)
PLACEMENT_PRUNED = "placement.pruned"
#: trace chunks produced by chunked compilation / consumed by replay
STREAM_CHUNKS = "stream.chunks"
#: bytes spilled to on-disk trace segments by chunked compilation
STREAM_SPILLED_BYTES = "stream.spilled_bytes"
#: segments recompiled after a corrupt/missing entry (segment granularity)
STREAM_RECOMPILED = "stream.segments_recompiled"
#: chunked process sweeps that lost a worker and were recomputed serially
REPLAY_PROCESS_FALLBACK = "replay.process_fallback"

# --------------------------------------------------------------- gauges
#: pool width chosen by the last backend sizing decision
BACKEND_WIDTH = "backend.width"

# ----------------------------------------------------------- histograms
#: fraction of a target's conflict classes one delta-scored placement
#: candidate dirtied (one observation per target per candidate)
PLACEMENT_DIRTY_FRAC = "placement.dirty_frac"

# --------------------------------------------------------------- series
#: best cost after each `swap_refine` round (index 0 = seed cost)
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
