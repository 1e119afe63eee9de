"""Policy-aware vectorized replay: one compiled trace, every geometry, five
replacement models, one engine.

:mod:`repro.runtime.compiled` lowers a schedule to its cache-size-independent
block trace; this module answers *whole geometry sweeps* over that trace for
each registered replacement policy (:mod:`repro.cache.policy`) without ever
simulating block-by-block:

* **Fully-associative LRU** — the classic Mattson pass: one vectorized
  stack-distance computation (:func:`repro.analysis.misscurve.stack_distances_array`)
  answers every cache size, because LRU is a stack algorithm.
* **Set-associative LRU** — LRU inside a set never sees other sets' blocks,
  so the trace is partitioned by set index (one stable argsort) and the same
  Mattson pass runs per set: an access hits a ``w``-way cache iff its
  *within-set* stack distance is at most ``w``.  One partition is shared by
  every geometry with the same set count.
* **Direct-mapped** — a degenerate per-set scan: an access hits iff the
  previous access to the same frame (``block % n_frames``) touched the same
  block, which one grouped argsort answers for the whole trace at once.
* **OPT (Belady)** — MIN is also a stack algorithm (Mattson 1970) under the
  priority "sooner next use wins".  Next-use positions are precomputed with
  the reversed argsort trick (:func:`repro.cache.opt.next_occurrences`), and
  a single priority-stack pass — truncated at the largest capacity in the
  sweep — yields per-access OPT stack distances, hence the miss count of
  *every* swept capacity in one traversal instead of one heap simulation per
  geometry.
* **Two-level hierarchy** — a sweep point is a
  :class:`~repro.cache.hierarchy.TwoLevelGeometry` (an (L1, L2) pair; each
  level any LRU organization, ``ways=1`` making it direct-mapped).  L2 is
  consulted only on L1 misses, so the L2 contents evolve exactly as an LRU
  fed the *miss sub-trace* of L1: one L1 pass (stack distances, or the
  per-frame scan when L1 is direct-mapped) selects the sub-trace, a second
  pass over it answers every L2 organization sharing that L1, and the L2
  verdicts are scattered back to trace positions.  One L1 pass therefore
  amortizes over a whole L2 capacity grid.

Every kernel replays a *chunk source* — a trace viewed as an ordered
sequence of chunks (:mod:`repro.runtime.streaming`) — front to back,
carrying exactly the state the next chunk needs, and yields per-chunk
boolean miss masks, so phase attribution works identically to the stepwise
executor for all policies.  A chunk is folded into the carry only once
another follows it, so an in-memory block array, one chunk, pays for no
carry copy, no carry fold and no spill.

* **lru / direct** carry one global recency list (:func:`recency_carry`):
  every distinct block seen so far, LRU first.  Running the passes above
  over ``concat(carry, chunk)`` and keeping the chunk's rows reproduces the
  whole-trace distances exactly — set-local recency is the restriction of
  global recency, distinct-counting cannot double-count a carried block,
  and the last carried block of a frame is that frame's current content.
  Each fold is trimmed to what the swept organizations can still hit on
  (:class:`_Carry`), so the carry never outgrows their caches.  These
  kernels read any iterable of ``(blocks, phases)`` chunks, which lets
  :func:`~repro.runtime.compiled.measure_compiled` replay chunks as they
  compile.
* **opt** walks the chunks backwards once for absolute next-use positions
  (chunks after the first spill theirs to a temporary ``.npy``), then
  resumes the priority stack across chunks.  A block never used again gets
  the sentinel ``accesses + position``, unique and monotone in time, so
  every eviction is the whole-trace one.
* **two_level** carries L1 on the global recency list and each L1 group's
  L2 on the recency list of that group's miss sub-stream (which depends
  only on L1), each trimmed for the organizations of its level.

The stepwise models (:class:`~repro.cache.lru.LRUCache`,
:class:`~repro.cache.direct.DirectMappedCache`,
:func:`~repro.cache.opt.simulate_opt`,
:class:`~repro.cache.hierarchy.TwoLevelCache`) remain the differential-test
oracles; ``tests/test_replay.py``, ``tests/test_hierarchy_replay.py`` and
``tests/test_streaming.py`` assert exact miss-for-miss agreement on random
traces, geometries and chunk partitions.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block ids, stack distances and positions are
``int64``, per-access miss masks are ``bool``, and grouping keys may narrow
to ``int16`` for the radix-sort fast path — nothing else, and always with an
explicit ``dtype=``.

The kernels see nothing but ``int64`` block arrays: traces compiled by
:mod:`repro.runtime.compiled` under any ``placement=`` object order
(:mod:`repro.mem.placement`) — including block-remapped candidate layouts
from :func:`repro.mem.placement.remap_blocks` — replay identically, which
is what lets the placement optimizer score thousands of layouts without
recompiling.

The kernels run in the calling process; the shared passes are computed
once per distinct set count and chunk, never per geometry.  See
``docs/REPLAY.md`` for the per-policy algorithms, their complexity, and
the oracle contract.
"""

from __future__ import annotations

import contextlib
import functools
import tempfile
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.opt import next_occurrences
from repro.cache.policy import get_policy
from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names

if TYPE_CHECKING:
    from repro.runtime.streaming import ChunkSource

__all__ = [
    "per_set_stack_distances",
    "opt_stack_distances",
    "recency_carry",
    "replay_chunks",
    "chunk_counts",
    "replay_miss_masks",
    "replay_misses",
    "register_replay_kernel",
    "available_replay_policies",
]

#: One chunk's replay: its labels (phase codes, or ``None``) and one miss
#: mask per geometry.
ChunkMasks = Tuple[Optional[np.ndarray], List[np.ndarray]]
#: What the lru, direct and two_level kernels replay: ``(blocks, phases)``
#: chunks in trace order (a chunk source iterates its chunks so).
Chunks = Iterable[Tuple[np.ndarray, Optional[np.ndarray]]]

_EMPTY = np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# shared distance passes
# ----------------------------------------------------------------------
def _stable_group_order(key: np.ndarray, n_groups: int) -> np.ndarray:
    """Stable argsort of a small-range grouping key.

    Set/frame indices are bounded by the organization (< 2^15 in any
    realistic sweep), and numpy's stable sort switches to O(n) radix for
    16-bit integers — several times faster than the int64 timsort path.
    """
    if n_groups <= np.iinfo(np.int16).max:
        key = key.astype(np.int16)
    return np.argsort(key, kind="stable")


def _set_segments(blocks: np.ndarray, sets: int) -> List[Tuple[int, np.ndarray]]:
    """``(set index, trace positions)`` of every set the (non-empty)
    ``blocks`` touch, each group time-ordered."""
    set_idx = blocks % sets
    order = _stable_group_order(set_idx, sets)
    ss = set_idx[order]
    bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    return [(int(set_idx[seg[0]]), seg) for seg in np.split(order, bounds)]


def per_set_stack_distances(blocks: np.ndarray, sets: int = 1) -> np.ndarray:
    """Within-set LRU stack distances; 0 marks cold accesses.

    ``sets=1`` is the fully-associative Mattson pass.  An access hits a
    ``sets``-set, ``w``-way LRU cache iff its distance here is in ``[1, w]``.

    The multi-set case needs no per-set loop: a block id determines its set
    (``block % sets``), so distinct sets touch disjoint block ids, and on
    the *set-grouped* reordering of the trace (each set's subsequence
    contiguous, time-ordered) every reuse window stays inside one set's
    span.  One global stack-distance pass over that reordering therefore
    computes every set's distances at once; scattering back through the
    grouping permutation restores trace order.
    """
    from repro.analysis.misscurve import stack_distances_array

    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if sets <= 1 or blocks.shape[0] == 0:
        return stack_distances_array(blocks)
    order = _stable_group_order(blocks % sets, sets)
    d = np.empty(blocks.shape[0], dtype=np.int64)
    d[order] = stack_distances_array(blocks[order])
    return d


def _direct_hit_mask(blocks: np.ndarray, frames: int) -> np.ndarray:
    """Per-access hit mask of a direct-mapped cache with ``frames`` frames.

    Per-frame last-block scan: group accesses by frame (``block % frames``;
    stable argsort keeps them time-ordered), hit iff the previous access to
    the same frame touched the same block.
    """
    n = blocks.shape[0]
    hit_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return hit_mask
    key = blocks % frames
    order = _stable_group_order(key, frames)
    sk, sb = key[order], blocks[order]
    same = (sk[1:] == sk[:-1]) & (sb[1:] == sb[:-1])
    hit_mask[order[1:][same]] = True
    return hit_mask


_OptState = Tuple[List[int], List[int], Set[int]]


def _opt_stack_pass(
    blocks: List[int],
    next_use: List[int],
    max_depth: int,
    total: int,
    positions: Sequence[int],
    state: Optional[_OptState],
) -> Tuple[List[int], _OptState]:
    """Priority-stack OPT stack distances for one access sequence.

    MIN's priority list at time ``t`` orders blocks by next use after ``t``;
    every stored priority is that block's next use after its *last* access,
    which is always in the future of ``t`` (the access at that position
    would have refreshed it), so one forward pass with Mattson's percolation
    is exact.  The stack is truncated at ``max_depth``: percolation only
    ever moves entries *down*, so the top ``max_depth`` entries — and
    therefore every distance we report — are unaffected by the cut.

    ``next_use`` holds absolute trace positions and ``total`` the trace
    length; ``positions`` maps local indices to absolute positions.  A block
    never referenced again gets the priority ``total + position``: past
    every real next use, unique, and growing with time, so its relative
    eviction order cannot change any miss count.  ``state`` resumes the
    pass with a prior call's returned ``(stack_b, stack_p, resident)``.
    """
    n = len(blocks)
    out = [0] * n
    if state is None:
        stack_b: List[int] = []  # block ids, top (most valuable) first
        stack_p: List[int] = []  # priorities: next-use position, smaller = sooner
        resident: Set[int] = set()
    else:
        stack_b, stack_p, resident = state
    for i in range(n):
        b = blocks[i]
        p = next_use[i]
        if p >= total:
            # unique sentinel: never used again
            p = total + positions[i]
        if b in resident:
            idx = stack_b.index(b)
            if idx == 0:
                out[i] = 1
                stack_p[0] = p
                continue
            out[i] = idx + 1
            carry_b, carry_p = stack_b[0], stack_p[0]
            stack_b[0], stack_p[0] = b, p
            j = 1
            while j < idx:
                if stack_p[j] >= carry_p:
                    stack_b[j], carry_b = carry_b, stack_b[j]
                    stack_p[j], carry_p = carry_p, stack_p[j]
                j += 1
            stack_b[idx], stack_p[idx] = carry_b, carry_p
        else:
            # cold (or evicted beyond every tracked capacity): miss everywhere
            if stack_b:
                carry_b, carry_p = stack_b[0], stack_p[0]
                stack_b[0], stack_p[0] = b, p
                L = len(stack_b)
                j = 1
                while j < L:
                    if stack_p[j] >= carry_p:
                        stack_b[j], carry_b = carry_b, stack_b[j]
                        stack_p[j], carry_p = carry_p, stack_p[j]
                    j += 1
                if L < max_depth:
                    stack_b.append(carry_b)
                    stack_p.append(carry_p)
                else:
                    resident.discard(carry_b)
            else:
                stack_b.append(b)
                stack_p.append(p)
            resident.add(b)
    return out, (stack_b, stack_p, resident)


def _opt_distances(
    blocks: np.ndarray,
    next_use: np.ndarray,
    lo: int,
    total: int,
    sets: int,
    depth: int,
    states: Dict[int, _OptState],
) -> np.ndarray:
    """OPT stack distances of one non-empty chunk starting at absolute
    position ``lo``, resuming (and updating) one priority-stack state per
    set in ``states``."""
    if sets <= 1:
        n = blocks.shape[0]
        dists, states[0] = _opt_stack_pass(
            blocks.tolist(), next_use.tolist(), depth, total,
            range(lo, lo + n), states.get(0),
        )
        return np.asarray(dists, dtype=np.int64)
    out = np.zeros(blocks.shape[0], dtype=np.int64)
    for sid, seg in _set_segments(blocks, sets):
        dists, states[sid] = _opt_stack_pass(
            blocks[seg].tolist(), next_use[seg].tolist(), depth, total,
            (seg + lo).tolist(), states.get(sid),
        )
        out[seg] = dists
    return out


def opt_stack_distances(
    blocks: np.ndarray, max_depth: int, sets: int = 1
) -> np.ndarray:
    """Per-access OPT stack distances, truncated at ``max_depth``.

    0 marks accesses that miss at every capacity up to ``max_depth`` (cold,
    or reused only beyond the truncation horizon); distance ``d >= 1`` means
    the access hits any OPT cache holding at least ``d`` blocks (per set
    when ``sets > 1``).
    """
    if max_depth < 1:
        raise CacheConfigError(f"max_depth must be >= 1, got {max_depth}")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = blocks.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    return _opt_distances(
        blocks, next_occurrences(blocks), 0, n, sets, max_depth, {}
    )


# ----------------------------------------------------------------------
# carried state
# ----------------------------------------------------------------------
def recency_carry(blocks: np.ndarray) -> np.ndarray:
    """The recency carry after ``blocks``: their distinct blocks ordered by
    last access, LRU first, MRU last.

    It is exactly the state the lru/direct passes need: prepend it to the
    next chunk and the within-chunk stack distances (and per-frame last
    blocks) come out as if ``blocks`` had been replayed before it.  A carry
    is its own recency list, so the carry of a carry and a chunk together
    folds the chunk in, associatively: ``recency_carry(concat(
    recency_carry(a), b)) == recency_carry(concat(a, b))`` — the
    hypothesis property ``tests/test_streaming.py`` pins.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    uniq, idx = np.unique(blocks[::-1], return_index=True)
    return uniq[np.argsort(-idx)]  # idx counts back from the last access


#: One LRU organization: ``(kind, classes, bound)`` (see :func:`_organization`).
_Org = Tuple[str, int, Optional[int]]


def _organization(geom: CacheGeometry, direct: bool = False) -> _Org:
    """``(kind, classes, bound)`` of one LRU organization: a direct-mapped
    one (``direct``, or ``ways=1``) scans ``n_blocks`` frames and has no
    bound; every other reads stack distances per set (one set when fully
    associative) at a bound of its ways (its blocks when fully
    associative)."""
    if direct and geom.ways not in (None, 1):
        raise CacheConfigError(
            f"direct-mapped replay needs ways=1 (or an unspecified "
            f"associativity), got ways={geom.ways}"
        )
    classes = geom.conflict_classes("direct" if direct else "lru")
    if direct or geom.ways == 1:
        return "direct", classes, None
    return "lru", classes, geom.associativity if classes > 1 else geom.n_blocks


class _Carry:
    """The recency carry one stream of chunks keeps for some LRU
    organizations.

    :meth:`before` puts it in front of each chunk.  The chunk before is
    folded in only then, once another chunk is known to follow it, so a
    one-chunk replay folds nothing.  Each fold keeps what some organization
    can still hit on: per set its last ``associativity`` blocks (its last
    ``n_blocks`` when fully associative), per frame its last block when
    direct-mapped.  A block every organization drops has at least a set's
    worth of its set's blocks touched after it in each, so its next access
    misses there, carried or not, and it is older than every block of its
    set that one keeps, so no kept block's distance counts it: every
    organization reads the same misses off the trimmed carry as off the
    full one, and the carry never outgrows the caches it serves together.
    """

    __slots__ = ("keep", "blocks", "_last")

    def __init__(self, organizations: Iterable[_Org]) -> None:
        #: class count -> newest blocks kept per class
        self.keep: Dict[int, int] = {}
        for _kind, classes, bound in organizations:
            self.keep[classes] = max(self.keep.get(classes, 1), bound or 1)
        self.blocks = _EMPTY
        self._last: Optional[np.ndarray] = None

    def before(self, chunk: np.ndarray) -> Tuple[np.ndarray, int]:
        """``chunk`` with the carry in front, and the carry's length."""
        if self._last is not None:  # a chunk follows the last one: fold it in
            self.blocks = self._trimmed(recency_carry(self._last))
        k = int(self.blocks.shape[0])
        self._last = np.concatenate([self.blocks, chunk]) if k else chunk
        return self._last, k

    def _trimmed(self, recent: np.ndarray) -> np.ndarray:
        n = int(recent.shape[0])
        if any(n <= keep for keep in self.keep.values()):
            return recent
        kept = np.zeros(n, dtype=bool)
        for classes, keep in self.keep.items():
            if classes == 1:
                kept[n - keep:] = True
                continue
            # rank every entry among its class's entries from the MRU end
            newest = recent[::-1] % classes
            order = _stable_group_order(newest, classes)
            grouped = newest[order]
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n, dtype=np.int64) - np.searchsorted(grouped, grouped)
            kept |= (rank < keep)[::-1]
        return recent[kept]


def _level_pass(
    synth: np.ndarray,
    k: int,
    org: _Org,
    memo: Dict[Tuple[object, ...], np.ndarray],
) -> Tuple[np.ndarray, Optional[int]]:
    """The pass one LRU organization reads a chunk's misses off, and the
    bound to read it at (see :func:`_miss_mask`).

    ``synth`` is the chunk with its ``k``-block carry in front
    (:meth:`_Carry.before`); the pass keeps the chunk's rows.
    Direct-mapped organizations take the per-frame scan; every other reads
    per-set stack distances.  ``memo`` holds the passes by organization
    key, so every geometry sharing a set (or frame) count shares one pass:
    the amortization unit of every kernel and of both levels of a
    hierarchy.
    """
    kind, classes, bound = org
    key = (kind, classes)
    found = memo.get(key)
    if found is None:
        scan = _direct_hit_mask if kind == "direct" else per_set_stack_distances
        found = memo[key] = scan(synth, classes)[k:]
    return found, bound


def _miss_mask(level: Tuple[np.ndarray, Optional[int]]) -> np.ndarray:
    """Read a pass at one organization: a stack distance misses when cold
    (0) or past the bound; a ``None`` bound marks a direct-mapped hit mask."""
    d, bound = level
    return ~d if bound is None else (d == 0) | (d > bound)


# ----------------------------------------------------------------------
# per-policy chunk kernels
# ----------------------------------------------------------------------
def _lru_kernel(
    source: Chunks,
    geometries: Sequence[CacheGeometry],
    direct: bool = False,
) -> Iterator[ChunkMasks]:
    """LRU (and, with ``direct``, direct-mapped) misses chunk by chunk.

    A geometry the policy cannot replay fails here, before any chunk is
    read; each chunk then reads every geometry off the memoized passes of
    :func:`_level_pass` under one carry trimmed for all of them.
    """
    orgs = [_organization(g, direct) for g in geometries]
    return _lru_chunks(source, orgs)


def _lru_chunks(source: Chunks, orgs: List[_Org]) -> Iterator[ChunkMasks]:
    carry = _Carry(orgs)
    for blocks, phases in source:
        synth, k = carry.before(blocks)
        memo: Dict[Tuple[object, ...], np.ndarray] = {}
        yield phases, [_miss_mask(_level_pass(synth, k, org, memo)) for org in orgs]


def _opt_kernel(
    source: "ChunkSource",
    geometries: Sequence[CacheGeometry],
) -> Iterator[ChunkMasks]:
    """OPT misses chunk by chunk: a reverse next-use pass, then a forward
    priority stack carried across chunks.

    The reverse pass gives every access the absolute position of its
    block's next access (``source.accesses`` when there is none).  Chunks
    after the first spill those to a pass-owned temporary directory (replay
    intermediates, never the trace cache); chunk 0 keeps its blocks and
    next uses in memory, so a one-chunk source reads once and opens no
    directory.  The forward pass resumes :func:`_opt_stack_pass` across
    chunks, one carried state per set of each distinct set count, at the
    max depth any geometry sharing the pass needs.  The reverse pass needs
    a chunk source (:class:`~repro.runtime.streaming.ChunkSource`), not
    just an iterable of chunks.
    """
    depth_for: Dict[int, int] = {}
    reads: List[Tuple[int, int]] = []
    for geom in geometries:
        sets = geom.conflict_classes("opt")
        cap = geom.n_blocks if sets == 1 else geom.associativity
        depth_for[sets] = max(depth_for.get(sets, 1), cap)
        reads.append((sets, cap))
    n_chunks = source.n_chunks
    total = source.accesses
    bounds = source.chunk_bounds()
    spill = (
        tempfile.TemporaryDirectory(prefix="repro-optstream-")
        if n_chunks > 1 else contextlib.nullcontext()
    )
    with spill as tmp:
        seen: Dict[int, int] = {}  # block -> first position after this chunk
        for index in range(n_chunks - 1, -1, -1):
            blocks, phases = source.chunk(index)
            lo, hi = bounds[index]
            next_use = next_occurrences(blocks)
            next_use += lo  # hi where the chunk has no next access
            if index < n_chunks - 1:
                tail = np.flatnonzero(next_use >= hi)
                next_use[tail] = np.asarray(
                    [seen.get(b, total) for b in blocks[tail].tolist()],
                    dtype=np.int64,
                )
            if index:
                uniq, first = np.unique(blocks, return_index=True)
                seen.update(zip(uniq.tolist(), (first + lo).tolist()))
                np.save(Path(tmp) / f"next{index}.npy", next_use)
        states: Dict[int, Dict[int, _OptState]] = {sets: {} for sets in depth_for}
        for index in range(n_chunks):
            if index:
                blocks, phases = source.chunk(index)
                next_use = np.load(Path(tmp) / f"next{index}.npy")
            lo = bounds[index][0]
            dist = {
                sets: _opt_distances(
                    blocks, next_use, lo, total, sets, depth, states[sets]
                )
                for sets, depth in depth_for.items()
            }
            passes = [(dist[sets], cap) for sets, cap in reads]
            yield phases, [_miss_mask(p) for p in passes]


def _two_level_kernel(
    source: Chunks,
    geometries: Sequence,
) -> Iterator[ChunkMasks]:
    """Memory-miss masks of two-level hierarchies, one L1 pass per distinct
    L1 and chunk.

    The stepwise :class:`~repro.cache.hierarchy.TwoLevelCache` consults L2
    exactly when L1 misses, so L2's contents evolve as an LRU cache fed the
    L1 *miss sub-trace* — which depends only on the L1 geometry.  The kernel
    therefore groups sweep points by L1, computes each L1 mask once per
    chunk, replays every L2 organization of the group over the (much
    shorter) sub-trace, and scatters the L2 verdicts back to chunk
    positions.  L1 carries the trace's recency list, trimmed for every L1,
    and each group's L2 the recency list of its sub-trace, trimmed for the
    group's L2s.  A point that is not a hierarchy fails here, before any
    chunk is read.
    """
    groups: Dict[CacheGeometry, List[Tuple[int, _Org]]] = {}
    for i, tg in enumerate(geometries):
        if not isinstance(tg, TwoLevelGeometry):
            raise CacheConfigError(
                f"policy 'two_level' sweeps TwoLevelGeometry points, "
                f"got {tg!r}"
            )
        groups.setdefault(tg.l1, []).append((i, _organization(tg.l2)))
    levels = [(_organization(l1), l2s) for l1, l2s in groups.items()]
    return _two_level_chunks(source, levels, len(geometries))


def _two_level_chunks(
    source: Chunks, levels: List[Tuple[_Org, List[Tuple[int, _Org]]]], n: int
) -> Iterator[ChunkMasks]:
    l1_carry = _Carry(l1 for l1, _l2s in levels)
    l2_carries = [_Carry(l2 for _i, l2 in l2s) for _l1, l2s in levels]
    for blocks, phases in source:
        synth, k = l1_carry.before(blocks)
        l1_memo: Dict[Tuple[object, ...], np.ndarray] = {}
        out: List[np.ndarray] = [_EMPTY] * n
        for (l1, l2s), l2_carry in zip(levels, l2_carries):
            pos = np.flatnonzero(_miss_mask(_level_pass(synth, k, l1, l1_memo)))
            sub, sub_k = l2_carry.before(blocks[pos])
            l2_memo: Dict[Tuple[object, ...], np.ndarray] = {}
            for i, l2 in l2s:
                full = np.zeros(blocks.shape[0], dtype=bool)
                # memory miss = L1 miss AND L2 miss
                full[pos[_miss_mask(_level_pass(sub, sub_k, l2, l2_memo))]] = True
                out[i] = full
        yield phases, out


_KERNELS: Dict[str, Callable] = {}


def register_replay_kernel(policy: str, kernel: Callable) -> None:
    """Register the chunk kernel answering sweeps for ``policy``.

    ``kernel(source, geometries)`` replays a chunk source
    (:class:`~repro.runtime.streaming.ChunkSource`) front to back, carrying
    its own state across chunks, and yields, per chunk, ``(phases,
    masks)``: the chunk's phase codes (or ``None``) and one boolean miss
    mask per geometry.  The name must already exist in the stepwise
    registry (:func:`repro.cache.policy.get_policy`) — a replay without an
    oracle is untestable by construction.
    """
    get_policy(policy)
    _KERNELS[policy] = kernel


def available_replay_policies() -> tuple:
    return tuple(sorted(_KERNELS))


register_replay_kernel("lru", _lru_kernel)
register_replay_kernel("direct", functools.partial(_lru_kernel, direct=True))
register_replay_kernel("opt", _opt_kernel)
register_replay_kernel("two_level", _two_level_kernel)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def replay_chunks(
    source: Chunks,
    geometries: Iterable,
    policy: str = "lru",
) -> Iterator[ChunkMasks]:
    """Per-chunk ``(phases, masks)`` of ``policy``'s kernel over ``source``.

    The engine itself, uninstrumented (callers count and time the replay
    they make of it).  ``source`` is a chunk source; the lru, direct and
    two_level kernels also take any iterable of ``(blocks, phases)``
    chunks, read once front to back (the streamed
    :func:`~repro.runtime.compiled.measure_compiled` hands them the chunks
    as they compile).  An unknown policy, or a geometry the lru, direct or
    two_level kernel cannot replay, fails here, before any chunk is read.
    """
    get_policy(policy)  # raises CacheConfigError for unknown names
    kernel = _KERNELS.get(policy)
    if kernel is None:
        raise CacheConfigError(
            f"policy {policy!r} has no vectorized replay kernel; "
            f"available: {sorted(_KERNELS)}"
        )
    return kernel(source, list(geometries))


def chunk_counts(
    chunks: Iterable[ChunkMasks], n_geometries: int, n_labels: int = 0
) -> List[Tuple[int, np.ndarray]]:
    """Reduce per-chunk ``(labels, masks)`` to per-geometry ``(misses,
    label counts)``.

    The one reduction every replay path shares: each chunk's masks are
    counted and — when ``n_labels`` is set and the chunk has labels (phase
    codes) — bincounted by label, then dropped, so memory stays O(chunk)
    whatever the trace length.  Counts over chunks add, so the sums are
    exact.
    """
    misses = [0] * n_geometries
    counts = [np.zeros(n_labels, dtype=np.int64) for _ in range(n_geometries)]
    for labels, masks in chunks:
        for gi, mask in enumerate(masks):
            misses[gi] += int(np.count_nonzero(mask))
            if n_labels and labels is not None:
                counts[gi] += np.bincount(labels[mask], minlength=n_labels)
    return list(zip(misses, counts))


def _as_source(blocks: "np.ndarray | ChunkSource") -> "ChunkSource":
    """A chunk source as given; a block array as one chunk (the monolithic
    case)."""
    if hasattr(blocks, "n_chunks"):
        return blocks  # type: ignore[return-value]
    from repro.runtime.streaming import ArrayChunkSource

    arr = np.ascontiguousarray(blocks, dtype=np.int64)
    return ArrayChunkSource(arr, chunk_words=max(1, int(arr.shape[0])))


def _joined(chunks: Iterable[ChunkMasks], n_geometries: int) -> List[np.ndarray]:
    """Full-length masks from per-chunk ones (no copy for one chunk)."""
    parts: List[List[np.ndarray]] = [[] for _ in range(n_geometries)]
    for _phases, masks in chunks:
        for part, mask in zip(parts, masks):
            part.append(mask)
    return [
        part[0] if len(part) == 1
        else np.concatenate([np.zeros(0, dtype=bool), *part])
        for part in parts
    ]


def replay_miss_masks(
    blocks: "np.ndarray | ChunkSource",
    geometries: Iterable[CacheGeometry],
    policy: str = "lru",
) -> List[np.ndarray]:
    """Per-access boolean miss masks of ``policy`` for every geometry.

    ``blocks`` is a block array — replayed as one chunk — or any chunk
    source, whose per-chunk masks are joined into full-length ones.  All
    shared work (stack distances, set partitions, next-use passes) is
    computed once per distinct organization and reused across the sweep.
    """
    geoms = list(geometries)
    chunks = replay_chunks(_as_source(blocks), geoms, policy)
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    with obs.span(obs_names.REPLAY, policy=policy):
        return _joined(chunks, len(geoms))


def replay_misses(
    blocks: "np.ndarray | ChunkSource",
    geometries: Iterable[CacheGeometry],
    policy: str = "lru",
) -> List[int]:
    """Total miss counts of ``policy`` for every geometry (sweep form); a
    chunk source is reduced chunk by chunk, never into full-length masks."""
    geoms = list(geometries)
    chunks = replay_chunks(_as_source(blocks), geoms, policy)
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    with obs.span(obs_names.REPLAY, policy=policy):
        return [m for m, _counts in chunk_counts(chunks, len(geoms))]
