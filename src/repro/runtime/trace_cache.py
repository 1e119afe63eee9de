"""Persistent content-addressed cache of compiled traces.

Trace compilation (:mod:`repro.runtime.compiled`) is the expensive,
*deterministic* half of every query this library answers: the block trace a
schedule compiles to depends only on (graph structure, firing sequence,
buffer capacities, block size, layout order / placement / gaps) — never on
the cache geometry, which is exactly why one trace serves whole geometry
sweeps.  Repeated sweeps, experiments, and CI runs therefore recompile
byte-identical traces over and over.  This module makes that work
content-addressed and persistent:

* :func:`trace_digest` maps the complete compilation input to a stable
  SHA-256 hex key.  The digest is computed over a canonical JSON encoding
  (sorted keys, no floats) of the graph's serialized structure
  (:func:`repro.graphs.io.graph_to_dict`), the firing sequence, the
  effective capacities, the block size, and the layout/placement/gap
  inputs — so it is identical across processes, interpreter sessions, and
  machines, and *any* semantic change (one firing, one gap block, a
  different placement order) changes the key.  Geometry fields (``ways``,
  set counts) are deliberately absent: traces are geometry-independent,
  and a digest that varied with them would shatter the cache across sweep
  points that share one trace.
* :func:`query_digest` extends a trace key with (geometry, policy) for
  callers that memoize *answers* rather than traces — there the
  organization does matter, so a ways change yields a different key.
* :class:`TraceCache` stores one ``<digest>.npz`` per entry under a cache
  directory: versioned format, atomic writes (temp file + ``os.replace``),
  size-capped LRU eviction (least-recently-*used*, via file mtimes that
  every hit refreshes), and hit/miss/eviction/corruption counters.  A
  corrupted or truncated entry is treated as a miss and deleted — callers
  recompile, they never crash.
* :func:`cached_compile_trace` is the front door:
  digest → ``get`` → on miss compile and ``put``.

``configure()`` installs a process-wide default cache (what the CLI's
``--cache-dir`` does); :func:`repro.runtime.compiled.compile_trace`
consults it when no explicit ``cache=`` is passed, so a configured process
caches transparently.  By default no cache is configured and nothing
touches disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # runtime.compiled imports this module lazily (and vice versa)
    from repro.cache.base import CacheGeometry
    from repro.graphs.sdf import StreamGraph
    from repro.mem.layout import ObjectKey
    from repro.runtime.compiled import CompiledTrace
    from repro.runtime.schedule import Schedule

__all__ = [
    "FORMAT_VERSION",
    "trace_digest",
    "query_digest",
    "segment_digest",
    "CacheCounters",
    "TraceCache",
    "cached_compile_trace",
    "configure",
    "default_cache",
]

#: On-disk entry format version.  Bump on any layout change: entries written
#: by another version deserialize as *corrupt* (= recompile), never as data.
FORMAT_VERSION = 1

#: Default size cap: generous for trace files (a 100k-access trace is
#: ~900 KB), small enough that a forgotten cache directory stays polite.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


# ----------------------------------------------------------------------
# content digests
# ----------------------------------------------------------------------
def _canon(obj: object) -> bytes:
    """Canonical JSON bytes: sorted keys, tightest separators, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _object_keys(keys: Optional[Iterable["ObjectKey"]]) -> Optional[List[List[object]]]:
    if keys is None:
        return None
    return [[str(kind), key] for kind, key in keys]


def trace_digest(
    graph: "StreamGraph",
    schedule: "Schedule",
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence["ObjectKey"]] = None,
    gaps: Optional[Dict["ObjectKey", int]] = None,
) -> str:
    """Stable SHA-256 key of one compilation's complete input.

    Mirrors the signature of :func:`repro.runtime.compiled.compile_trace`
    exactly — including its convention that ``capacities=None`` means "the
    schedule's own" — so the digest covers precisely what the compiled
    trace depends on.  The firing sequence is folded incrementally, and
    everything else goes through one canonical JSON header, so the key is
    reproducible across processes and interpreter sessions.

    A :class:`~repro.runtime.looped.LoopedSchedule` is hashed by its loop
    nest (counts and bodies) under a ``"loops"`` header key that no flat
    schedule's header carries, in time proportional to the nest, not to
    the firings it expands to.  A looped schedule and its flat expansion
    therefore file under different keys.
    """
    from repro.graphs.io import graph_to_dict
    from repro.runtime.looped import LoopedSchedule

    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    header = {
        "v": FORMAT_VERSION,
        "graph": graph_to_dict(graph),
        "block": int(block),
        "capacities": None
        if capacities is None
        else sorted((int(k), None if v is None else int(v)) for k, v in capacities.items()),
        "layout_order": None if layout_order is None else list(layout_order),
        "count_external": bool(count_external),
        "placement": _object_keys(placement),
        "gaps": None
        if gaps is None
        else sorted([str(kind), key, int(g)] for (kind, key), g in gaps.items()),
        "label": getattr(schedule, "label", "schedule"),
    }
    if isinstance(schedule, LoopedSchedule):
        header["loops"] = [_nest(e) for e in schedule.loops]
        return hashlib.sha256(_canon(header)).hexdigest()
    h = hashlib.sha256()
    h.update(_canon(header))
    chunk: List[str] = []
    for name in schedule.firings:
        chunk.append(name)
        if len(chunk) >= 4096:
            h.update("\x00".join(chunk).encode("utf-8") + b"\x00")
            chunk = []
    if chunk:
        h.update("\x00".join(chunk).encode("utf-8") + b"\x00")
    return h.hexdigest()


def _nest(element: object) -> object:
    """JSON form of one loop-nest element: a module name, or ``[count,
    [body...]]`` for a :class:`~repro.runtime.looped.Loop`."""
    from repro.runtime.looped import Loop

    if isinstance(element, Loop):
        return [element.count, [_nest(e) for e in element.body]]
    return str(element)


def segment_digest(trace_key: str, index: int, chunk_words: int) -> str:
    """Key of one fixed-size chunk of a chunked compilation.

    Streaming compilation (:mod:`repro.runtime.streaming`) spills each
    ``chunk_words``-access segment of a trace as its own cache entry, so a
    corrupted segment recompiles alone instead of invalidating the whole
    trace.  The key binds the parent :func:`trace_digest`, the segment
    index, and the chunk size — the same trace chunked differently stores
    under disjoint keys, and segment ``i`` of one chunking can never alias
    segment ``i`` of another.
    """
    payload = {
        "kind": "trace_segment",
        "format": FORMAT_VERSION,
        "trace": trace_key,
        "index": int(index),
        "chunk_words": int(chunk_words),
    }
    return hashlib.sha256(_canon(payload)).hexdigest()


def _geometry_facts(geom: object) -> object:
    """JSON-stable description of a sweep point (single- or two-level)."""
    l1 = getattr(geom, "l1", None)
    if l1 is not None:  # TwoLevelGeometry
        return ["two_level", _geometry_facts(l1), _geometry_facts(getattr(geom, "l2"))]
    return [
        int(getattr(geom, "size")),
        int(getattr(geom, "block")),
        getattr(geom, "ways", None),
    ]


def query_digest(
    trace_key: str,
    geometries: Sequence[object],
    policy: str,
) -> str:
    """Key of one *answer*: a trace key plus the sweep's organizations.

    Unlike :func:`trace_digest`, the organization matters here — changing
    ``ways`` or the set count changes which misses the replay reports, so
    it changes this key.
    """
    payload = {
        "trace": trace_key,
        "policy": str(policy),
        "geometries": [_geometry_facts(g) for g in geometries],
    }
    return hashlib.sha256(_canon(payload)).hexdigest()


def _period(value: object, accesses: int) -> Tuple[int, int, int]:
    """A stored ``(start, length, repeats)`` period, validated like every
    other metadata field (a malformed one makes the entry corrupt)."""
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"malformed period {value!r}")
    start, length, repeats = (int(v) for v in value)
    if start < 0 or length < 1 or repeats < 2 or start + length * repeats > accesses:
        raise ValueError(f"malformed period {value!r}")
    return start, length, repeats


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------
@dataclass
class CacheCounters:
    """Observable cache behaviour: every lookup lands in exactly one of
    ``hits``/``misses``; ``corrupt`` counts entries that existed but failed
    to deserialize (each also counts as a miss); ``evictions`` counts
    entries removed to respect the size cap.

    Since the obs migration this is a *snapshot view*: the live tallies
    are counters in the cache's per-instance
    :class:`~repro.obs.registry.MetricsRegistry` (``cache.metrics``),
    mirrored into the global :mod:`repro.obs` registry while
    instrumentation is enabled.  ``cache.counters`` builds a fresh
    ``CacheCounters`` per access, so reads keep working unchanged;
    mutating the returned object changes nothing."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


class TraceCache:
    """A directory of content-addressed compiled traces.

    One entry per key: ``<sha256>.npz`` holding the block/phase arrays plus
    a JSON metadata record (format version, key echo, trace metadata).
    Writes are atomic (temp file in the same directory, then
    ``os.replace``), so a crashed or concurrent writer can never publish a
    half-written entry; readers treat any undeserializable file as a miss,
    delete it, and count it in :attr:`counters`.

    Eviction is size-capped LRU: every hit refreshes the entry's mtime, and
    :meth:`put` evicts least-recently-used entries until the directory fits
    ``max_bytes`` again.  The cap is a soft bound checked after each write
    — a single entry larger than the cap is stored (and is the only entry).
    """

    def __init__(
        self, path: Union[str, Path], max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        if max_bytes <= 0:
            raise CacheConfigError(
                f"trace cache max_bytes must be positive, got {max_bytes}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.metrics = MetricsRegistry()

    # -- internals ------------------------------------------------------
    def _count(self, name: str) -> None:
        """Tally ``name`` on this cache and mirror it into the global obs
        registry (a no-op there unless instrumentation is enabled)."""
        self.metrics.add(name, 1)
        # every call site passes a repro.obs.names constant; the forwarder
        # itself cannot be checked statically
        obs.add(name, 1)  # repro-lint: disable=R6

    @property
    def counters(self) -> CacheCounters:
        """Hit/miss/evict/corrupt tallies as a :class:`CacheCounters` view
        over the per-instance metrics registry."""
        return CacheCounters(
            hits=self.metrics.counter_value(obs_names.CACHE_HITS),
            misses=self.metrics.counter_value(obs_names.CACHE_MISSES),
            evictions=self.metrics.counter_value(obs_names.CACHE_EVICTIONS),
            corrupt=self.metrics.counter_value(obs_names.CACHE_CORRUPT),
        )

    @property
    def stats(self) -> Dict[str, int]:
        """The counters as a plain dict (``counters.as_dict()`` shorthand)."""
        return self.counters.as_dict()

    def _entry_path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheConfigError(
                f"trace cache keys are lowercase hex digests, got {key!r}"
            )
        return self.path / f"{key}.npz"

    def _entries(self) -> List[Path]:
        return [p for p in self.path.glob("*.npz")]

    def _discard(self, entry: Path) -> None:
        try:
            entry.unlink()
        except OSError:  # pragma: no cover - raced by another process
            pass

    # -- public surface -------------------------------------------------
    def has(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` — no validation, no
        counter, no LRU refresh.  Streaming compilation uses this to skip
        re-spilling segments that are already on disk; a present-but-corrupt
        entry still reads as ``True`` here and surfaces as a miss (and
        recompile) at :meth:`get` time."""
        return self._entry_path(key).exists()

    def get(self, key: str) -> Optional["CompiledTrace"]:
        """The cached trace for ``key``, or ``None`` (miss).

        A present-but-corrupt entry (truncated file, wrong format version,
        key mismatch, undecodable metadata) is deleted and reported as a
        miss — callers recompile, exactly as if the entry never existed.
        """
        from repro.runtime.compiled import CompiledTrace

        with obs.span(obs_names.CACHE_GET):
            entry = self._entry_path(key)
            if not entry.exists():
                self._count(obs_names.CACHE_MISSES)
                return None
            try:
                with np.load(entry, allow_pickle=False) as data:
                    meta = json.loads(str(data["meta"]))
                    if meta.get("version") != FORMAT_VERSION or meta.get("key") != key:
                        raise ValueError("format version or key mismatch")
                    blocks = np.asarray(data["blocks"], dtype=np.int64)
                    if blocks.shape[0] != int(meta["accesses"]):
                        raise ValueError("truncated block array")
                    phases: Optional[np.ndarray] = None
                    if meta["has_phases"]:
                        phases = np.asarray(data["phases"], dtype=np.uint8)
                        if phases.shape[0] != blocks.shape[0]:
                            raise ValueError("truncated phase array")
                trace = CompiledTrace(
                    label=str(meta["label"]),
                    block=int(meta["block"]),
                    blocks=blocks,
                    phases=phases,
                    firings=int(meta["firings"]),
                    fire_counts={str(k): int(v) for k, v in meta["fire_counts"].items()},
                    source_fires=int(meta["source_fires"]),
                    sink_fires=int(meta["sink_fires"]),
                    period=None if meta.get("period") is None
                    else _period(meta["period"], blocks.shape[0]),
                )
            except Exception:  # noqa: BLE001 - any decode failure means corrupt
                self._discard(entry)
                self._count(obs_names.CACHE_CORRUPT)
                self._count(obs_names.CACHE_MISSES)
                return None
            try:  # LRU freshness: a hit makes the entry most-recently-used
                os.utime(entry)
            except OSError:  # pragma: no cover - entry raced away mid-read
                pass
            self._count(obs_names.CACHE_HITS)
            return trace

    def put(self, key: str, trace: "CompiledTrace") -> None:
        """Store ``trace`` under ``key`` atomically, then enforce the cap."""
        with obs.span(obs_names.CACHE_PUT):
            entry = self._entry_path(key)
            meta = {
                "version": FORMAT_VERSION,
                "key": key,
                "label": trace.label,
                "block": trace.block,
                "accesses": trace.accesses,
                "has_phases": trace.phases is not None,
                "firings": trace.firings,
                "fire_counts": dict(trace.fire_counts),
                "source_fires": trace.source_fires,
                "sink_fires": trace.sink_fires,
            }
            if trace.period is not None:  # entries without one keep their bytes
                meta["period"] = list(trace.period)
            arrays: Dict[str, np.ndarray] = {
                "meta": np.asarray(json.dumps(meta)),
                "blocks": np.ascontiguousarray(trace.blocks, dtype=np.int64),
            }
            if trace.phases is not None:
                arrays["phases"] = np.ascontiguousarray(trace.phases, dtype=np.uint8)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:12]}.", suffix=".tmp", dir=self.path
            )
            tmp = Path(tmp_name)
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **arrays)
                os.replace(tmp, entry)  # atomic publish: readers see all or nothing
            except BaseException:
                self._discard(tmp)
                raise
            self._evict_over_cap(keep=entry)

    def _evict_over_cap(self, keep: Optional[Path] = None) -> None:
        entries = self._entries()
        sizes = {}
        for p in entries:
            try:
                sizes[p] = p.stat().st_size
            except OSError:  # pragma: no cover - raced by another process
                continue
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return
        # least-recently-used first; the entry just written survives so a
        # put can never evict its own payload
        for p in sorted(sizes, key=lambda p: (p.stat().st_mtime, p.name)):
            if total <= self.max_bytes:
                break
            if keep is not None and p == keep:
                continue
            self._discard(p)
            self._count(obs_names.CACHE_EVICTIONS)
            total -= sizes[p]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> None:
        for p in self._entries():
            self._discard(p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceCache({str(self.path)!r}, entries={len(self)}, "
            f"counters={self.counters.as_dict()})"
        )


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def cached_compile_trace(
    graph: "StreamGraph",
    schedule: "Schedule",
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence["ObjectKey"]] = None,
    gaps: Optional[Dict["ObjectKey", int]] = None,
    cache: Optional[TraceCache] = None,
    key: Optional[str] = None,
) -> Tuple["CompiledTrace", str, bool]:
    """Compile through the cache: ``(trace, key, was_hit)``.

    With ``cache=None`` (and no configured default) this is exactly
    :func:`repro.runtime.compiled.compile_trace` plus a digest.  The
    returned trace is a fresh object either way — cached arrays are loaded
    from disk per call, so callers may remap or slice without aliasing
    other callers' results.  Callers that already digested the input (the
    batch front door groups queries by digest first) pass ``key=`` to skip
    the recompute.
    """
    from repro.runtime.compiled import compile_trace_uncached

    if layout_order is not None:
        layout_order = list(layout_order)  # consumed by digest AND compile
    if placement is not None:
        placement = list(placement)
    if cache is None:
        cache = default_cache()
    if cache is None and key is None:
        # nothing to file the trace under and nobody asked for the digest
        trace = compile_trace_uncached(
            graph, schedule, block, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps,
        )
        return trace, "", False
    if key is None:
        key = trace_digest(
            graph, schedule, block, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps,
        )
    if cache is not None:
        cached = cache.get(key)
        if cached is not None:
            return cached, key, True
    trace = compile_trace_uncached(
        graph, schedule, block, capacities=capacities, layout_order=layout_order,
        count_external=count_external, placement=placement, gaps=gaps,
    )
    if cache is not None:
        cache.put(key, trace)
    return trace, key, False


# ----------------------------------------------------------------------
# process-wide default (what the CLI's --cache-dir installs)
# ----------------------------------------------------------------------
_DEFAULT_CACHE: Optional[TraceCache] = None


def configure(cache: Union[TraceCache, str, Path, None]) -> Optional[TraceCache]:
    """Install (or clear, with ``None``) the process-wide default cache.

    Accepts a :class:`TraceCache` or a directory path.  Returns the
    previously configured default so callers can restore it.
    """
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    if cache is None:
        _DEFAULT_CACHE = None
    elif isinstance(cache, TraceCache):
        _DEFAULT_CACHE = cache
    else:
        _DEFAULT_CACHE = TraceCache(cache)
    return previous


def default_cache() -> Optional[TraceCache]:
    """The configured process-wide cache, or ``None`` (caching disabled)."""
    return _DEFAULT_CACHE
