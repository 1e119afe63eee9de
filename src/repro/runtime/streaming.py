"""Out-of-core streaming: chunked trace compilation + carried replay kernels.

The monolithic engine (:mod:`repro.runtime.compiled`) materializes the whole
block trace in RAM before replaying it; schedules past ~10^7 accesses cannot
run at all.  This module converts the engine from memory-bounded to
disk-bounded without changing a single answer:

* :func:`compile_trace_chunked` compiles a schedule in fixed-size chunks
  (:meth:`~repro.runtime.compiled.TraceCompiler.compile_chunks`), spilling
  each chunk to a content-addressed ``.npz`` segment in a
  :class:`~repro.runtime.trace_cache.TraceCache`
  (:func:`~repro.runtime.trace_cache.segment_digest` keys) and returning a
  :class:`ChunkedTrace` — a disk-backed trace whose peak memory is
  O(``chunk_words``), not O(trace length).  A corrupted or deleted segment
  recompiles *alone*: the recompile pass re-runs the chunk generator but
  only writes segments whose files are absent, so intact segments keep
  their bytes and mtimes.
* The streaming replay kernels answer every registered policy chunk by
  chunk, carrying exactly the state the next chunk needs:

  - **lru / direct** carry one global recency list (:func:`recency_carry`):
    every previously-seen distinct block, ordered by last access, LRU
    first.  Prepending it to a chunk and running the ordinary vectorized
    passes (:func:`~repro.runtime.replay.per_set_stack_distances`, the
    per-frame scan) reproduces the monolithic distances exactly — set-local
    recency is the restriction of global recency, distinct-counting cannot
    double-count a carried block, and the last carried block of a frame is
    that frame's current content.
  - **opt** runs two passes: a *reverse* pass computes each access's
    absolute next-use position (spilled per chunk to a temporary ``.npy``),
    then a *forward* pass resumes the priority-stack
    (:func:`~repro.runtime.replay._opt_stack_pass`) across chunks with
    carried (stack, residency) state.  Sentinels for never-used-again
    blocks become ``total + absolute_position`` — a monotone injective
    transform of the monolithic ``n + i`` sentinels, so every priority
    comparison (hence every eviction, hence every distance) is preserved.
  - **two_level** streams L1 with the global recency carry, pipes each
    chunk's L1 miss sub-trace into L2 with one recency carry *per L1
    group* (the sub-trace depends only on L1), and scatters L2 verdicts
    back to chunk positions — never an O(trace) mask in the stats path.

* :func:`simulate_stream` is the replay front door
  (:func:`~repro.runtime.compiled.simulate_trace` dispatches here for any
  :class:`ChunkedTrace` or whenever ``chunk_words=`` is given): it reduces
  per-chunk masks to (misses, per-phase bincounts) and assembles the same
  :class:`~repro.runtime.executor.ExecutionResult` rows as the monolithic
  path — bit-identical, the differential contract ``tests/test_streaming.py``
  pins across every policy × index scheme × chunk size.  On the process
  backend, lru/direct chunks fan out over a pool
  (:func:`repro.runtime.backend.process_chunk_sweep`) with parent-computed
  carries.

Carried state is O(distinct blocks) — the looped schedules this targets
reuse a bounded working set, so the carry stays small while the trace grows
without bound.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block ids, distances, and positions are
``int64``; per-access phase codes are ``uint8``; miss masks are ``bool``.
Every numpy constructor in this module passes its dtype explicitly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.opt import next_occurrences
from repro.cache.policy import get_policy
from repro.errors import CacheConfigError
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.compiled import (
    PHASE_NAMES,
    CompiledTrace,
    TraceCompiler,
    _result_from_stats,
)
from repro.runtime.executor import ExecutionResult
from repro.runtime.replay import (
    _direct_hit_mask,
    _OptState,
    _opt_stack_pass,
    _scheme_of,
    _set_segments,
    per_set_stack_distances,
    set_index_array,
)
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
    "recency_carry",
    "compile_trace_chunked",
    "stream_masks",
    "stream_stats",
    "stream_class_counts",
    "simulate_stream",
]

#: Reduced replay statistics: per geometry, (misses, phase bincount or None).
StreamStats = List[Tuple[int, Optional[List[int]]]]

#: Policies with a carried streaming kernel (= every registered replay policy).
STREAMING_POLICIES = ("direct", "lru", "opt", "two_level")


# ----------------------------------------------------------------------
# chunk sources
# ----------------------------------------------------------------------
class ChunkSource(Protocol):
    """Anything the streaming kernels can replay: one block trace viewed as
    an ordered sequence of chunks, randomly addressable by index (the OPT
    reverse pass walks chunks backwards)."""

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
    ``source_fires``/``sink_fires``) so result assembly is shared, but never
    holds more than one chunk of block ids in memory.  :meth:`chunk` reads
    through the backing :class:`~repro.runtime.trace_cache.TraceCache`; a
    missing or corrupt segment (the cache's ``get`` discards and counts it)
    triggers a *segment-granular* recompile — the chunk generator re-runs
    but writes only absent segments, leaving intact ones untouched on disk.
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

    @property
    def n_chunks(self) -> int:
        return len(self.segment_keys)

    def __len__(self) -> int:
        return self.accesses

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        cw = self.chunk_words
        return [
            (i * cw, min((i + 1) * cw, self.accesses))
            for i in range(self.n_chunks)
        ]

    def segment_path(self, index: int) -> Path:
        """On-disk location of segment ``index`` (the cache's documented
        one-``.npz``-per-key layout); process workers read it directly."""
        return self.cache.path / f"{self.segment_keys[index]}.npz"

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        seg = self.cache.get(self.segment_keys[index])
        if seg is None:
            # missing or corrupt (get() already discarded and counted it):
            # recompile at segment granularity — only absent segments are
            # rewritten, intact ones keep their bytes and mtimes
            written = self._recompile()
            obs.add(obs_names.STREAM_RECOMPILED, max(1, written))
            seg = self.cache.get(self.segment_keys[index])
            if seg is None:
                raise CacheConfigError(
                    f"segment {index} of trace {self.label!r} could not be "
                    f"recompiled into {str(self.cache.path)!r}"
                )
        return seg.blocks, seg.phases

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace({self.label!r}, accesses={self.accesses}, "
            f"chunk_words={self.chunk_words}, n_chunks={self.n_chunks})"
        )


class Recompiler(Protocol):
    """Re-runs a chunked compilation, writing only absent segments; returns
    the number of segments written."""

    def __call__(self) -> int: ...


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
    count_external: bool = True,
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
    an effectively unbounded cap (eviction could otherwise drop a live
    segment mid-replay; a caller-supplied cache keeps its own cap, and an
    evicted segment simply recompiles on next access).
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
        count_external=count_external, placement=placement, gaps=gaps,
    )

    def spill() -> Tuple[TraceCompiler, List[str], int]:
        compiler = TraceCompiler(
            graph, block, capacities=capacities, layout_order=layout_order,
            count_external=count_external, placement=placement, gaps=gaps,
        )
        keys: List[str] = []
        written = 0
        for index, (blocks, phases) in enumerate(
            compiler.compile_chunks(schedule, chunk_words=chunk_words)
        ):
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
        return compiler, keys, written

    with obs.span(obs_names.STREAM_COMPILE):
        compiler, keys, _written = spill()
    obs.add(obs_names.STREAM_CHUNKS, len(keys))
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, compiler.last_accesses)

    def recompile() -> int:
        _compiler, _keys, written = spill()
        return written

    return ChunkedTrace(
        label=compiler.last_label,
        block=block,
        chunk_words=chunk_words,
        accesses=compiler.last_accesses,
        firings=compiler.last_firings,
        fire_counts=compiler.last_fire_counts,
        source_fires=compiler.last_source_fires,
        sink_fires=compiler.last_sink_fires,
        segment_keys=keys,
        cache=seg_cache,
        recompile=recompile,
        owned=owned,
    )


# ----------------------------------------------------------------------
# carried replay kernels
# ----------------------------------------------------------------------
def recency_carry(carry: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Fold a chunk into the global recency carry.

    The carry lists every distinct block seen so far, ordered by last
    access — LRU first, MRU last.  It is exactly the state the lru/direct
    prefix trick needs: prepend it to the next chunk and the within-chunk
    stack distances (and per-frame last blocks) come out as if the whole
    prefix had been replayed.  Folding a chunk is associative with
    concatenation: ``recency_carry(recency_carry(c, a), b) ==
    recency_carry(c, concat(a, b))`` — the hypothesis property
    ``tests/test_streaming.py`` pins.
    """
    carry = np.ascontiguousarray(carry, dtype=np.int64)
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if blocks.shape[0] == 0:
        return carry
    n = int(blocks.shape[0])
    uniq, idx = np.unique(blocks[::-1], return_index=True)
    last = n - 1 - idx  # position of each distinct block's final access
    order = np.argsort(last, kind="stable")
    tail = uniq[order]
    if carry.shape[0]:
        carry = carry[~np.isin(carry, uniq)]
    return np.concatenate([carry, tail])


def _flat_chunk_masks(
    blocks: np.ndarray,
    carry: np.ndarray,
    geometries: Sequence[CacheGeometry],
    policy: str,
) -> List[np.ndarray]:
    """Per-geometry miss masks of one lru/direct chunk under ``carry``.

    Runs the ordinary monolithic passes over ``concat(carry, chunk)`` and
    keeps the chunk's rows: the carry is each distinct prior block once, in
    recency order, so within-set distances and per-frame last blocks match
    the full-trace pass exactly.  Shared passes are memoized per distinct
    (organization, scheme) just like the monolithic kernels.
    """
    k = int(carry.shape[0])
    synth = np.concatenate([carry, blocks])
    out: List[np.ndarray] = []
    if policy == "lru":
        dist: Dict[Tuple[int, str], np.ndarray] = {}
        for geom in geometries:
            sets = 1 if geom.is_fully_associative else geom.sets
            key = (sets, _scheme_of(geom, sets))
            d = dist.get(key)
            if d is None:
                d = dist[key] = per_set_stack_distances(synth, *key)[k:]
            ways = geom.associativity if sets > 1 else geom.n_blocks
            out.append((d == 0) | (d > ways))
        return out
    if policy == "direct":
        hits: Dict[Tuple[int, str], np.ndarray] = {}
        for geom in geometries:
            if geom.ways not in (None, 1):
                raise CacheConfigError(
                    f"direct-mapped replay needs ways=1 (or an unspecified "
                    f"associativity), got ways={geom.ways}"
                )
            key = (geom.n_blocks, _scheme_of(geom, geom.n_blocks))
            h = hits.get(key)
            if h is None:
                h = hits[key] = _direct_hit_mask(synth, *key)[k:]
            out.append(~h)
        return out
    raise CacheConfigError(  # pragma: no cover - guarded by the dispatcher
        f"no flat streaming kernel for policy {policy!r}"
    )


_ChunkYield = Tuple[np.ndarray, Optional[np.ndarray], List[np.ndarray]]


def _stream_flat_iter(
    source: ChunkSource, geometries: Sequence[CacheGeometry], policy: str
) -> Iterator[_ChunkYield]:
    carry = np.zeros(0, dtype=np.int64)
    for index in range(source.n_chunks):
        blocks, phases = source.chunk(index)
        yield blocks, phases, _flat_chunk_masks(blocks, carry, geometries, policy)
        carry = recency_carry(carry, blocks)


def _stream_opt_iter(
    source: ChunkSource, geometries: Sequence[CacheGeometry]
) -> Iterator[_ChunkYield]:
    """Two-pass streaming OPT: reverse next-use pass, forward carried stack.

    The reverse pass spills one absolute-next-use ``.npy`` per chunk to a
    pass-owned temporary directory (never the trace cache — these are
    replay intermediates, not compilation outputs); the forward pass resumes
    :func:`~repro.runtime.replay._opt_stack_pass` across chunks, one carried
    (stack, residency) state per (set count, scheme) — per set when
    ``sets > 1`` — at the max depth any geometry sharing the pass needs.
    """
    depth_for: Dict[Tuple[int, str], int] = {}
    for geom in geometries:
        sets = 1 if geom.is_fully_associative else geom.sets
        cap = geom.n_blocks if sets == 1 else geom.associativity
        key = (sets, _scheme_of(geom, sets))
        depth_for[key] = max(depth_for.get(key, 1), cap)
    total = source.accesses
    bounds = source.chunk_bounds()
    with tempfile.TemporaryDirectory(prefix="repro-optstream-") as tmp:
        paths = [Path(tmp) / f"next{i}.npy" for i in range(source.n_chunks)]
        carry_next: Dict[int, int] = {}
        for index in range(source.n_chunks - 1, -1, -1):
            blocks, _phases = source.chunk(index)
            lo = bounds[index][0]
            n_local = int(blocks.shape[0])
            local = next_occurrences(blocks)
            nxt = local + lo
            tail = np.flatnonzero(local >= n_local)
            if tail.shape[0]:
                nxt[tail] = np.asarray(
                    [carry_next.get(b, total) for b in blocks[tail].tolist()],
                    dtype=np.int64,
                )
            uniq, first = np.unique(blocks, return_index=True)
            for b, j in zip(uniq.tolist(), first.tolist()):
                carry_next[b] = lo + j
            np.save(paths[index], nxt)
        flat_states: Dict[Tuple[int, str], _OptState] = {}
        set_states: Dict[Tuple[int, str], Dict[int, _OptState]] = {}
        for index in range(source.n_chunks):
            blocks, phases = source.chunk(index)
            nxt = np.load(paths[index])
            lo = bounds[index][0]
            n_local = int(blocks.shape[0])
            dist: Dict[Tuple[int, str], np.ndarray] = {}
            for key, depth in depth_for.items():
                sets, scheme = key
                out = np.zeros(n_local, dtype=np.int64)
                if sets <= 1:
                    vals, st = _opt_stack_pass(
                        blocks.tolist(),
                        nxt.tolist(),
                        depth,
                        total=total,
                        positions=np.arange(
                            lo, lo + n_local, dtype=np.int64
                        ).tolist(),
                        state=flat_states.get(key),
                    )
                    flat_states[key] = st
                    out[:] = vals
                else:
                    per_set = set_states.setdefault(key, {})
                    set_idx = set_index_array(blocks, sets, scheme)
                    for seg in _set_segments(blocks, sets, scheme):
                        sid = int(set_idx[seg[0]])
                        vals, st = _opt_stack_pass(
                            blocks[seg].tolist(),
                            nxt[seg].tolist(),
                            depth,
                            total=total,
                            positions=(seg + lo).tolist(),
                            state=per_set.get(sid),
                        )
                        per_set[sid] = st
                        out[seg] = vals
                dist[key] = out
            masks: List[np.ndarray] = []
            for geom in geometries:
                sets = 1 if geom.is_fully_associative else geom.sets
                cap = geom.n_blocks if sets == 1 else geom.associativity
                d = dist[(sets, _scheme_of(geom, sets))]
                masks.append((d == 0) | (d > cap))
            yield blocks, phases, masks


def _carried_level_mask(
    blocks: np.ndarray,
    carry: np.ndarray,
    geom: CacheGeometry,
    memo: Dict[Tuple[object, ...], np.ndarray],
) -> np.ndarray:
    """One level's chunk miss mask under its stream's recency carry —
    the streaming twin of :func:`~repro.runtime.replay._lru_level_mask`,
    memoizing the sliced pass per organization key."""
    k = int(carry.shape[0])
    if geom.ways == 1:
        scheme = _scheme_of(geom, geom.n_blocks)
        key = ("direct", geom.n_blocks, scheme)
        hit = memo.get(key)
        if hit is None:
            synth = np.concatenate([carry, blocks])
            hit = memo[key] = _direct_hit_mask(synth, geom.n_blocks, scheme)[k:]
        return ~hit
    sets = 1 if geom.is_fully_associative else geom.sets
    scheme = _scheme_of(geom, sets)
    key = ("lru", sets, scheme)
    d = memo.get(key)
    if d is None:
        synth = np.concatenate([carry, blocks])
        d = memo[key] = per_set_stack_distances(synth, sets, scheme)[k:]
    ways = geom.associativity if sets > 1 else geom.n_blocks
    return (d == 0) | (d > ways)


def _stream_two_level_iter(
    source: ChunkSource, geometries: Sequence[CacheGeometry]
) -> Iterator[_ChunkYield]:
    """Streaming hierarchies: L1 via the global carry, L2 via one carry per
    L1 group over that group's miss sub-stream (which depends only on L1),
    chunk verdicts scattered back — no full-trace mask ever materializes."""
    for tg in geometries:
        if not isinstance(tg, TwoLevelGeometry):
            raise CacheConfigError(
                f"policy 'two_level' sweeps TwoLevelGeometry points, got {tg!r}"
            )
    groups: Dict[CacheGeometry, List[int]] = {}
    for i, tg in enumerate(geometries):
        groups.setdefault(cast(TwoLevelGeometry, tg).l1, []).append(i)
    global_carry = np.zeros(0, dtype=np.int64)
    sub_carries: Dict[CacheGeometry, np.ndarray] = {}
    for index in range(source.n_chunks):
        blocks, phases = source.chunk(index)
        n_local = int(blocks.shape[0])
        l1_memo: Dict[Tuple[object, ...], np.ndarray] = {}
        out: List[Optional[np.ndarray]] = [None] * len(geometries)
        for l1, idxs in groups.items():
            l1_mask = _carried_level_mask(blocks, global_carry, l1, l1_memo)
            pos = np.flatnonzero(l1_mask)
            sub = blocks[pos]
            sub_carry = sub_carries.get(l1)
            if sub_carry is None:
                sub_carry = np.zeros(0, dtype=np.int64)
            l2_memo: Dict[Tuple[object, ...], np.ndarray] = {}
            for i in idxs:
                tg2 = cast(TwoLevelGeometry, geometries[i])
                l2_miss_sub = _carried_level_mask(sub, sub_carry, tg2.l2, l2_memo)
                full = np.zeros(n_local, dtype=bool)
                full[pos[l2_miss_sub]] = True  # memory miss = L1 miss AND L2 miss
                out[i] = full
            sub_carries[l1] = recency_carry(sub_carry, sub)
        global_carry = recency_carry(global_carry, blocks)
        yield blocks, phases, cast(List[np.ndarray], out)


def _chunk_mask_iter(
    source: ChunkSource, geometries: Sequence[CacheGeometry], policy: str
) -> Iterator[_ChunkYield]:
    get_policy(policy)  # unknown names fail with the standard message
    if policy in ("lru", "direct"):
        yield from _stream_flat_iter(source, geometries, policy)
    elif policy == "opt":
        yield from _stream_opt_iter(source, geometries)
    elif policy == "two_level":
        yield from _stream_two_level_iter(source, geometries)
    else:
        raise CacheConfigError(
            f"policy {policy!r} has no streaming replay kernel; "
            f"available: {list(STREAMING_POLICIES)}"
        )


# ----------------------------------------------------------------------
# public replay surface
# ----------------------------------------------------------------------
def stream_masks(
    source: ChunkSource,
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
) -> List[np.ndarray]:
    """Full-length per-geometry miss masks, assembled chunk by chunk.

    This materializes O(trace) booleans per geometry — it exists for the
    differential suite (mask-for-mask comparison against
    :func:`~repro.runtime.replay.replay_miss_masks`); the production stats
    path (:func:`stream_stats`) never builds them.
    """
    geoms = list(geometries)
    parts: List[List[np.ndarray]] = [[] for _ in geoms]
    for _blocks, _phases, masks in _chunk_mask_iter(source, geoms, policy):
        for gi, mask in enumerate(masks):
            parts[gi].append(mask)
    return [
        np.concatenate(p) if p else np.zeros(0, dtype=bool) for p in parts
    ]


def stream_stats(
    source: ChunkSource,
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
) -> StreamStats:
    """Reduced per-geometry ``(misses, phase_bincount)`` over a chunk source.

    The bounded-memory replay path: per-chunk masks are reduced immediately
    and discarded, so peak memory is O(chunk + carried state) regardless of
    trace length.  Sums are exact — chunk bincounts add — so the totals are
    bit-identical to the monolithic replay's.
    """
    geoms = list(geometries)
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    totals = [0] * len(geoms)
    counts: List[Optional[List[int]]] = [None] * len(geoms)
    with obs.span(obs_names.STREAM_REPLAY, policy=policy):
        for _blocks, phases, masks in _chunk_mask_iter(source, geoms, policy):
            obs.add(obs_names.STREAM_CHUNKS)
            for gi, mask in enumerate(masks):
                totals[gi] += int(np.count_nonzero(mask))
                if phases is not None:
                    bc = np.bincount(
                        phases[mask], minlength=len(PHASE_NAMES)
                    ).tolist()
                    prev = counts[gi]
                    counts[gi] = (
                        bc if prev is None else [a + b for a, b in zip(prev, bc)]
                    )
    return list(zip(totals, counts))


def stream_class_counts(
    source: ChunkSource,
    classes: np.ndarray,
    n_classes: int,
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
) -> List[np.ndarray]:
    """Per-geometry miss counts split by access class, chunk by chunk.

    The per-class twin of :func:`stream_stats`: ``classes[i]`` labels
    access ``i`` of the source with a class in ``[0, n_classes)``, and each
    chunk's miss masks reduce straight into one bincount per geometry,
    summed over chunks the way phase counts are.  Placement delta scoring
    (:func:`repro.mem.placement._delta_misses`) keeps these per-set counts.
    """
    geoms = list(geometries)
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    out = [np.zeros(n_classes, dtype=np.int64) for _ in geoms]
    with obs.span(obs_names.STREAM_REPLAY, policy=policy):
        chunks = _chunk_mask_iter(source, geoms, policy)
        for (lo, hi), (_blocks, _phases, masks) in zip(source.chunk_bounds(), chunks):
            obs.add(obs_names.STREAM_CHUNKS)
            labels = classes[lo:hi]
            for acc, mask in zip(out, masks):
                acc += np.bincount(labels[mask], minlength=n_classes)
    return out


def simulate_stream(
    trace: "CompiledTrace | ChunkedTrace",
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    chunk_words: Optional[int] = None,
) -> List[ExecutionResult]:
    """Chunked twin of :func:`~repro.runtime.compiled.simulate_trace`.

    A :class:`ChunkedTrace` replays at its own chunking (``chunk_words=`` is
    ignored — the segments are already cut); an in-memory trace is viewed
    through :class:`ArrayChunkSource` at ``chunk_words``.  On the process
    backend, lru/direct sweeps over a :class:`ChunkedTrace` fan chunks out
    over a pool (:func:`repro.runtime.backend.process_chunk_sweep`).  A
    pool that loses a worker falls back to the sequential stream, which
    computes the identical answer, and counts ``replay.process_fallback``;
    any other error raises.
    """
    geoms = list(geometries)
    get_policy(policy)
    source: ChunkSource
    if isinstance(trace, ChunkedTrace):
        source = trace
    else:
        source = ArrayChunkSource(
            trace.blocks,
            trace.phases,
            chunk_words=(
                chunk_words if chunk_words is not None else max(1, trace.accesses)
            ),
        )
    from repro.runtime.backend import resolve

    name, width = resolve(backend, workers, max(1, source.n_chunks))
    stats: Optional[StreamStats] = None
    if (
        name == "process"
        and isinstance(trace, ChunkedTrace)
        and policy in ("lru", "direct")
        and source.n_chunks
        and geoms
    ):
        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime.backend import process_chunk_sweep

        try:
            stats = process_chunk_sweep(trace, geoms, policy, width)
        except BrokenProcessPool:
            # a dead worker falls back to the sequential stream — same
            # answer, one process — and is counted, never silent
            obs.add(obs_names.REPLAY_PROCESS_FALLBACK)
            stats = None
    if stats is None:
        stats = stream_stats(source, geoms, policy)
    obs.add(obs_names.REPLAY_MISSES, sum(m for m, _c in stats))
    ct = cast(CompiledTrace, trace)
    return [_result_from_stats(ct, m, c) for m, c in stats]
