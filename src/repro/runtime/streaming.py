"""Out-of-core streaming: chunk sources and chunked trace compilation.

The replay engine (:mod:`repro.runtime.replay`) replays *chunk sources*:
one block trace viewed as an ordered sequence of chunks, each kernel
carrying across chunks exactly the state the next one needs.  This module
holds the sources and converts compilation from memory-bounded to
disk-bounded without changing a single answer:

* :class:`ArrayChunkSource` views an in-memory trace through a chunk
  partition — one chunk is the monolithic case.
* :func:`compile_trace_chunked` compiles a schedule in fixed-size chunks
  (:meth:`~repro.runtime.compiled.TraceCompiler.compile_chunks`), spilling
  each chunk to a content-addressed ``.npz`` segment in a
  :class:`~repro.runtime.trace_cache.TraceCache`
  (:func:`~repro.runtime.trace_cache.segment_digest` keys) and returning a
  :class:`ChunkedTrace` — a disk-backed chunk source whose peak memory is
  O(``chunk_words``), not O(trace length).  A corrupted, deleted or
  evicted segment recompiles *alone*: the recompile pass re-runs the chunk
  generator but only writes segments whose files are absent, so intact
  segments keep their bytes and mtimes, and the chunk asked for comes
  straight from the generator, whatever the cache kept.

:func:`~repro.runtime.compiled.simulate_trace` replays a :class:`ChunkedTrace`
(or an in-memory trace at ``chunk_words=``) bit-identically to the one-chunk
replay — the differential contract ``tests/test_streaming.py`` pins across
every policy × chunk size.  The lru, direct and two_level carries are
trimmed to what the swept caches hold, and OPT's is its priority stacks
(bounded by the largest swept capacity), so carried state stays small
while the trace grows without bound.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block ids and positions are ``int64``;
per-access phase codes are ``uint8``; the miss masks the kernels compute
over these chunks are ``bool``.  Every numpy constructor in this module
passes its dtype explicitly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import CacheConfigError
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.compiled import CompiledTrace, TraceCompiler
from repro.runtime.schedule import Schedule
from repro.runtime.trace_cache import (
    TraceCache,
    default_cache,
    segment_digest,
    trace_digest,
)

__all__ = [
    "ChunkSource",
    "ArrayChunkSource",
    "ChunkedTrace",
    "compile_trace_chunked",
]


# ----------------------------------------------------------------------
# chunk sources
# ----------------------------------------------------------------------
class ChunkSource(Protocol):
    """Anything the replay kernels replay: one block trace viewed as an
    ordered sequence of chunks, iterated in order and randomly addressable
    by index (the OPT reverse pass walks chunks backwards)."""

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]: ...

    @property
    def accesses(self) -> int: ...

    @property
    def n_chunks(self) -> int: ...

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(blocks, phases-or-None)`` arrays of chunk ``index``."""
        ...

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        """Absolute ``[start, stop)`` trace positions of every chunk."""
        ...


class ArrayChunkSource:
    """An in-memory trace viewed through a chunk partition.

    Exactly one of ``chunk_words`` (fixed-size chunks, last one smaller) and
    ``sizes`` (an explicit partition — what the hypothesis
    ``chunking_strategy`` exercises) must be given.  Chunks are views, so
    the source adds no memory beyond the arrays it wraps.
    """

    def __init__(
        self,
        blocks: np.ndarray,
        phases: Optional[np.ndarray] = None,
        chunk_words: Optional[int] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        self.phases = (
            None if phases is None else np.ascontiguousarray(phases, dtype=np.uint8)
        )
        n = int(self.blocks.shape[0])
        if self.phases is not None and int(self.phases.shape[0]) != n:
            raise CacheConfigError(
                f"phases length {int(self.phases.shape[0])} does not match "
                f"blocks length {n}"
            )
        if (chunk_words is None) == (sizes is None):
            raise CacheConfigError(
                "pass exactly one of chunk_words= and sizes= to ArrayChunkSource"
            )
        bounds: List[Tuple[int, int]] = []
        if chunk_words is not None:
            if chunk_words < 1:
                raise CacheConfigError(
                    f"chunk_words must be >= 1, got {chunk_words}"
                )
            lo = 0
            while lo < n:
                bounds.append((lo, min(lo + int(chunk_words), n)))
                lo += int(chunk_words)
        else:
            assert sizes is not None
            lo = 0
            for s in sizes:
                if s < 1:
                    raise CacheConfigError(f"chunk sizes must be >= 1, got {s}")
                bounds.append((lo, lo + int(s)))
                lo += int(s)
            if lo != n:
                raise CacheConfigError(
                    f"chunk sizes sum to {lo}, but the trace has {n} accesses"
                )
        self._bounds = bounds

    @property
    def accesses(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def n_chunks(self) -> int:
        return len(self._bounds)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        return map(self.chunk, range(self.n_chunks))

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        lo, hi = self._bounds[index]
        return (
            self.blocks[lo:hi],
            None if self.phases is None else self.phases[lo:hi],
        )

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        return list(self._bounds)


class ChunkedTrace:
    """A compiled trace living on disk as content-addressed ``.npz`` segments.

    Duck-types the :class:`~repro.runtime.compiled.CompiledTrace` metadata
    surface (``label``/``block``/``accesses``/``firings``/``fire_counts``/
    ``source_fires``/``sink_fires``/``period``) so result assembly is shared,
    but never holds more than one chunk of block ids in memory.  :meth:`chunk` reads
    through the backing :class:`~repro.runtime.trace_cache.TraceCache`; a
    missing or corrupt segment (the cache's ``get`` discards and counts it)
    triggers a *segment-granular* recompile — the chunk generator re-runs
    but writes only absent segments, leaving intact ones untouched on disk —
    and returns the chunk as the generator yields it.
    """

    def __init__(
        self,
        label: str,
        block: int,
        chunk_words: int,
        accesses: int,
        firings: int,
        fire_counts: Dict[str, int],
        source_fires: int,
        sink_fires: int,
        segment_keys: Sequence[str],
        cache: TraceCache,
        recompile: "Recompiler",
        owned: Optional[tempfile.TemporaryDirectory] = None,
        period: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        self.label = label
        self.block = int(block)
        self.chunk_words = int(chunk_words)
        self.accesses = int(accesses)
        self.firings = int(firings)
        self.fire_counts = dict(fire_counts)
        self.source_fires = int(source_fires)
        self.sink_fires = int(sink_fires)
        self.segment_keys = list(segment_keys)
        self.cache = cache
        self._recompile = recompile
        self._owned = owned  # keeps an owned spill directory alive
        self.period = period

    @property
    def n_chunks(self) -> int:
        return len(self.segment_keys)

    def __len__(self) -> int:
        return self.accesses

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        return map(self.chunk, range(self.n_chunks))

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        cw = self.chunk_words
        return [
            (i * cw, min((i + 1) * cw, self.accesses))
            for i in range(self.n_chunks)
        ]

    def segment_path(self, index: int) -> Path:
        """On-disk location of segment ``index`` (the cache's documented
        one-``.npz``-per-key layout)."""
        return self.cache.path / f"{self.segment_keys[index]}.npz"

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        seg = self.cache.get(self.segment_keys[index])
        if seg is not None:
            return seg.blocks, seg.phases
        # missing, corrupt or evicted (get() already discarded and counted
        # it): recompile at segment granularity — only absent segments are
        # rewritten, intact ones keep their bytes and mtimes — and take the
        # chunk from the compile, since writing the others may evict it again
        written, found = self._recompile(index)
        obs.add(obs_names.STREAM_RECOMPILED, max(1, written))
        if found is None:
            raise CacheConfigError(
                f"segment {index} of trace {self.label!r} could not be "
                f"recompiled into {str(self.cache.path)!r}"
            )
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace({self.label!r}, accesses={self.accesses}, "
            f"chunk_words={self.chunk_words}, n_chunks={self.n_chunks})"
        )


#: One chunk's ``(blocks, phases)`` arrays.
Chunk = Tuple[np.ndarray, Optional[np.ndarray]]
#: Re-runs a chunked compilation, writing only absent segments; returns the
#: number of segments written and chunk ``index`` as compiled (``None`` if
#: the compile yields no such chunk).
Recompiler = Callable[[int], Tuple[int, Optional[Chunk]]]


# ----------------------------------------------------------------------
# chunked compilation
# ----------------------------------------------------------------------
def compile_trace_chunked(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    chunk_words: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    cache: Optional[TraceCache] = None,
) -> ChunkedTrace:
    """Compile ``schedule`` out-of-core: spill ``chunk_words``-access
    segments to a trace cache, return the :class:`ChunkedTrace` handle.

    Segments are keyed by
    :func:`~repro.runtime.trace_cache.segment_digest` over the parent
    :func:`~repro.runtime.trace_cache.trace_digest`, so a re-run of the same
    compilation skips every segment already on disk (the compile generator
    still executes — it is the only source of chunk boundaries and
    metadata — but no bytes are rewritten).  ``cache=None`` uses the
    configured default cache, else a trace-owned temporary directory with
    an effectively unbounded cap.  A configured or caller-supplied cache
    keeps its own cap: a segment it evicts is recompiled when next read,
    and the read returns the chunk as the compile yields it, so a cap
    below the trace's segments costs recompiles, never an answer.
    """
    if chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    if layout_order is not None:
        layout_order = list(layout_order)
    if placement is not None:
        placement = list(placement)
    owned: Optional[tempfile.TemporaryDirectory] = None
    if cache is None:
        cache = default_cache()
    if cache is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-segments-")
        cache = TraceCache(owned.name, max_bytes=1 << 62)
    seg_cache: TraceCache = cache
    trace_key = trace_digest(
        graph, schedule, block, capacities=capacities, layout_order=layout_order,
        placement=placement, gaps=gaps,
    )

    def spill(want: int = -1) -> Tuple[TraceCompiler, List[str], int, Optional[Chunk]]:
        compiler = TraceCompiler(
            graph, block, capacities=capacities, layout_order=layout_order,
            placement=placement, gaps=gaps,
        )
        keys: List[str] = []
        written = 0
        found: Optional[Chunk] = None
        for index, (blocks, phases) in enumerate(
            compiler.compile_chunks(schedule, chunk_words=chunk_words)
        ):
            if index == want:
                found = blocks, phases
            key = segment_digest(trace_key, index, chunk_words)
            keys.append(key)
            if not seg_cache.has(key):
                seg_cache.put(
                    key,
                    CompiledTrace(
                        label="segment", block=block, blocks=blocks, phases=phases
                    ),
                )
                written += 1
                obs.add(
                    obs_names.STREAM_SPILLED_BYTES,
                    int(blocks.nbytes) + int(phases.nbytes),
                )
        return compiler, keys, written, found

    with obs.span(obs_names.STREAM_COMPILE):
        compiler, keys, _written, _found = spill()
    obs.add(obs_names.STREAM_CHUNKS, len(keys))
    obs.add(obs_names.COMPILE_CALLS)
    meta = compiler.last
    obs.add(obs_names.COMPILE_ACCESSES, meta.accesses)

    def recompile(index: int) -> Tuple[int, Optional[Chunk]]:
        return spill(index)[2:]

    return ChunkedTrace(
        label=meta.label,
        block=block,
        chunk_words=chunk_words,
        accesses=meta.accesses,
        firings=meta.firings,
        fire_counts=meta.fire_counts,
        source_fires=meta.source_fires,
        sink_fires=meta.sink_fires,
        segment_keys=keys,
        cache=seg_cache,
        recompile=recompile,
        owned=owned,
        period=meta.period,
    )
