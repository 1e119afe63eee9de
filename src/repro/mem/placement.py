"""Conflict-aware placement: optimize the memory layout against set conflicts.

A6 established the motivating fact: under the paper's fully-associative
model, layout is provably irrelevant (only the *set* of blocks touched
matters), but under direct-mapped and low-associativity organizations,
conflict misses are large and swing with layout in non-obvious ways —
conflicts depend on addresses modulo the set count, not on contiguity.
This module closes that loop: it searches the placement space
:meth:`repro.mem.layout.MemoryLayout.place_graph` exposes (any interleaving
of state regions and channel buffers, always block-aligned and
non-overlapping by construction, plus deliberate block-granular *gaps*
before chosen objects) for a layout that minimizes conflict misses at one
or several target (geometry, policy) pairs.

Four ideas make the search cheap and exact:

* **Block-remap cost model** — a placement is an object permutation plus a
  per-object gap vector, and every object's intra-region block offsets
  survive any permutation or padding (all regions are block-aligned, gaps
  are whole blocks), so a candidate's block trace is
  ``new_start[obj_of_access] + block_offset``: one gather over the trace
  compiled *once* under the seed layout, never a re-execution.  The score
  is then the actual miss count of the replay kernel
  (:func:`repro.runtime.replay.replay_misses`) on the remapped trace —
  bit-identical to recompiling under the candidate layout and simulating
  stepwise (``tests/test_placement.py`` asserts this exactly, gaps
  included).  External stream arenas ride along as two pseudo-objects whose
  bases shift with the candidate footprint, reproducing
  :func:`~repro.runtime.executor.build_memory_plan` arithmetic to the word.
* **Delta scoring** — consecutive candidates differ in a few objects, and
  a target's misses are a sum over its sets (frames, for direct-mapped
  targets), so :class:`~repro.runtime.backend.CandidateScorer` replays
  only the sets a move dirties and reuses the other per-set counts
  (:func:`_delta_misses`).
* **Temporal-affinity conflict graph** — objects co-scheduled within a
  short reuse window of the trace are the ones that must not collide in a
  set.  The graph is extracted from the run-length-compressed object
  sequence of the compiled trace; nearer co-occurrences weigh more.
* **Strategies behind a registry** (the shape is classic: assigning hot
  objects to capacity-limited sets is capacitated facility location, and
  FLIP-style swap local search is cheap and effective on sparse conflict
  graphs): ``"color"`` greedily appends, at each cursor position, the
  unplaced object whose set span conflicts least with what is already
  placed (greedy set-coloring of the conflict graph, scheme-aware under
  xor-indexed targets); ``"swap"`` refines that order by pairwise-swap
  local search — interleaved with *gap moves* (±1 block of padding before
  an object, bounded by ``gap_budget``) — scored with the *true* remap
  cost model, visiting heavy conflict pairs first.  ``"topo"`` is the seed
  topological layout, kept as the baseline.  Every search runs the one
  loop :func:`_local_search` over a move list; :mod:`repro.mem.facility`
  widens the list and adds restarts and a minimax objective.

**Multi-geometry objective.**  A7 showed a layout tuned for the
direct-mapped index can *regress* at 2-way — unacceptable when one binary
must deploy across cache organizations.  ``targets=[(geometry, policy,
weight), ...]`` scores candidates by the weighted miss sum across all
targets, and :func:`optimize_instance` only accepts a candidate that is
no worse than the seed **at every individual target** (falling back to
the seed otherwise), so optimized layouts are deployable: experiment A9
(:func:`repro.analysis.sweeps.ablation_a9_cross_geometry`) measures the
cross-geometry behaviour, including whether xor-indexed (skewed) caches
beat layout tuning outright.

:func:`optimize_placement` never returns a placement worse than the seed
(at any target), so callers can enable it unconditionally.  Wire-up:
experiments A7/A9/A12, CLI ``schedule --layout NAME`` (any registered
strategy) ``[--layout-targets SPEC] [--gap-budget N] [--index-scheme
{mod,xor}]``, ``benchmarks/bench_placement.py``, and
``examples/layout_tuning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import LayoutError
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey, layout_objects
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.executor import EXT_OUT_SPAN

if TYPE_CHECKING:  # import cycle: the runtime layer sits above repro.mem
    from repro.runtime.compiled import CompiledTrace
    from repro.runtime.schedule import Schedule
    from repro.runtime.streaming import ArrayChunkSource

__all__ = [
    "PlacementInstance",
    "PlacementResult",
    "build_instance",
    "normalize_targets",
    "remap_blocks",
    "remap_trace",
    "placement_cost",
    "placement_costs",
    "conflict_graph",
    "greedy_color_order",
    "RefineStats",
    "swap_refine",
    "register_placement",
    "get_placement",
    "available_placements",
    "optimize_instance",
    "optimize_placement",
]

#: One optimization target: (geometry, policy name, positive weight).
PlacementTarget = Tuple[CacheGeometry, str, float]


@dataclass
class PlacementInstance:
    """One schedule's compiled trace, factored for placement search.

    ``objects`` is the seed placement order (index = object id);
    ``obj_of_access[i]`` is the object id access ``i`` touches, with two
    pseudo-ids past the real objects for the external input / output stream
    arenas, and ``block_offset[i]`` the access's block offset inside that
    object.  Together with per-object block counts this is everything a
    candidate (order, gaps) needs to reproduce its exact block trace.
    """

    graph: StreamGraph
    block: int
    trace: "CompiledTrace"
    objects: Tuple[ObjectKey, ...]
    lengths: np.ndarray
    nblocks: np.ndarray
    obj_of_access: np.ndarray
    block_offset: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def index_of(self, key: ObjectKey) -> int:
        try:
            return self.objects.index(key)
        except ValueError:
            raise LayoutError(f"unknown placement object {key!r}") from None


def build_instance(
    graph: StreamGraph,
    schedule: "Schedule",
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    order: Optional[Iterable[str]] = None,
    count_external: bool = True,
) -> PlacementInstance:
    """Compile ``schedule`` once under the seed layout and factor the trace.

    ``order`` is the seed state order (the baseline the optimizer must
    beat); ``capacities`` defaults to the schedule's own, exactly like
    :func:`repro.runtime.compiled.compile_trace`.
    """
    from repro.runtime.compiled import TraceCompiler

    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    if order is not None:
        order = list(order)  # consumed twice below: compiler and layout_objects
    compiler = TraceCompiler(
        graph, block, capacities=capacities, layout_order=order,
        count_external=count_external,
    )
    trace = compiler.compile(schedule)
    layout = compiler.layout
    objects = tuple(layout_objects(graph, order=order))

    n_obj = len(objects)
    lengths = np.empty(n_obj, dtype=np.int64)
    starts = np.empty(n_obj, dtype=np.int64)
    for i, (kind, key) in enumerate(objects):
        region = layout.state_region(key) if kind == "state" else layout.buffer_region(key)
        lengths[i] = region.length
        starts[i] = region.start // block
    nblocks = -(-lengths // block)

    # arena bases in block units (same arithmetic as build_memory_plan)
    ext_in_blk = layout.footprint // block + 2
    ext_out_blk = ext_in_blk + EXT_OUT_SPAN // block
    # shared-plan invariants: both arena bases must match the compiler's
    assert ext_in_blk * block == compiler._ext_in_base
    assert ext_out_blk * block == compiler._ext_out_base

    blocks = trace.blocks
    n = blocks.shape[0]
    obj = np.empty(n, dtype=np.int64)
    off = np.empty(n, dtype=np.int64)
    is_out = blocks >= ext_out_blk
    is_in = ~is_out & (blocks >= ext_in_blk)
    internal = ~(is_out | is_in)
    obj[is_out] = n_obj + 1
    off[is_out] = blocks[is_out] - ext_out_blk
    obj[is_in] = n_obj
    off[is_in] = blocks[is_in] - ext_in_blk
    if internal.any():
        nz = np.flatnonzero(nblocks > 0)
        nz_starts = starts[nz]  # strictly increasing: seed allocation order
        idx = np.searchsorted(nz_starts, blocks[internal], side="right") - 1
        obj[internal] = nz[idx]
        off[internal] = blocks[internal] - nz_starts[idx]
    return PlacementInstance(
        graph=graph,
        block=block,
        trace=trace,
        objects=objects,
        lengths=lengths,
        nblocks=nblocks,
        obj_of_access=obj,
        block_offset=off,
    )


# ----------------------------------------------------------------------
# block-remap cost model
# ----------------------------------------------------------------------
def _order_ids(instance: PlacementInstance, order: Sequence[ObjectKey]) -> List[int]:
    """Validate ``order`` as a permutation of the instance's objects."""
    index = {key: i for i, key in enumerate(instance.objects)}
    ids: List[int] = []
    seen = set()
    for key in order:
        oid = index.get(key)
        if oid is None:
            raise LayoutError(f"unknown placement object {key!r}")
        if oid in seen:
            raise LayoutError(f"placement repeats object {key!r}")
        seen.add(oid)
        ids.append(oid)
    if len(ids) != instance.n_objects:
        raise LayoutError(
            f"placement covers {len(ids)} of {instance.n_objects} objects"
        )
    return ids


def _gap_vector(
    instance: PlacementInstance, gaps: Optional[Dict[ObjectKey, int]]
) -> Optional[np.ndarray]:
    """Validate a gaps map into a per-object-id block-count vector.

    ``None``/empty means no padding (the pure-permutation search space).
    Every key must name an instance object; every value must be a
    non-negative whole number of blocks.
    """
    if not gaps:
        return None
    vec = np.zeros(instance.n_objects, dtype=np.int64)
    for key, blocks in gaps.items():
        oid = instance.index_of(key)
        if not isinstance(blocks, (int, np.integer)) or isinstance(blocks, bool) \
                or blocks < 0:
            raise LayoutError(
                f"gap for {key!r} must be a non-negative block count, "
                f"got {blocks!r}"
            )
        vec[oid] = int(blocks)
    return vec


def _placed_starts(
    instance: PlacementInstance,
    order_ids: Sequence[int],
    gap_vec: Optional[np.ndarray] = None,
) -> np.ndarray:
    """New start block per object id (plus the two stream pseudo-objects),
    replaying the aligned-cursor allocator — gap insertion included — over
    the candidate order."""
    block = instance.block
    lengths = instance.lengths
    starts = np.empty(instance.n_objects + 2, dtype=np.int64)
    cursor = 0
    for oid in order_ids:
        rem = cursor % block
        if rem:
            cursor += block - rem
        if gap_vec is not None:
            cursor += int(gap_vec[oid]) * block
        starts[oid] = cursor // block
        cursor += int(lengths[oid])
    ext_in = cursor // block + 2
    starts[instance.n_objects] = ext_in
    starts[instance.n_objects + 1] = ext_in + EXT_OUT_SPAN // block
    return starts


def remap_blocks(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> np.ndarray:
    """The exact block trace ``(order, gaps)`` would compile to — one gather."""
    starts = _placed_starts(
        instance, _order_ids(instance, order), _gap_vector(instance, gaps)
    )
    return starts[instance.obj_of_access] + instance.block_offset


def remap_trace(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> "CompiledTrace":
    """A full :class:`~repro.runtime.compiled.CompiledTrace` under ``(order,
    gaps)`` (same phases/firings metadata; only addresses move), ready for
    :func:`~repro.runtime.compiled.simulate_trace`."""
    from dataclasses import replace

    return replace(instance.trace, blocks=remap_blocks(instance, order, gaps=gaps))


def placement_cost(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    geometry: CacheGeometry,
    policy: str = "direct",
    gaps: Optional[Dict[ObjectKey, int]] = None,
    chunk_words: Optional[int] = None,
) -> int:
    """Misses of ``policy`` at ``geometry`` under the candidate placement.

    Exact, not an estimate: the remapped trace is bit-identical to what the
    compiler would produce for this placement (gaps included), and the
    replay kernels agree miss-for-miss with the stepwise simulators.
    ``chunk_words`` replays the remapped trace in bounded-memory chunks —
    the same count, by the chunked-replay differential contract.
    """
    return _target_misses(
        remap_blocks(instance, order, gaps=gaps),
        [(geometry, policy, 1.0)],
        chunk_words=chunk_words,
    )[0]


def normalize_targets(
    targets: Sequence[PlacementTarget], block: Optional[int] = None
) -> List[PlacementTarget]:
    """Validate a multi-geometry objective spec.

    Each entry is ``(geometry, policy, weight)`` with a positive finite
    weight; all geometries must share one block size (``block`` when given
    — the instance's — since one compiled trace scores every target).
    """
    out: List[PlacementTarget] = []
    if not targets:
        raise LayoutError("targets must name at least one (geometry, policy, weight)")
    for entry in targets:
        try:
            geometry, policy, weight = entry
        except (TypeError, ValueError):
            raise LayoutError(
                f"each target is a (geometry, policy, weight) triple, got {entry!r}"
            ) from None
        if not isinstance(geometry, CacheGeometry):
            raise LayoutError(f"target geometry must be a CacheGeometry, got {geometry!r}")
        weight = float(weight)
        if not np.isfinite(weight) or weight <= 0:
            raise LayoutError(f"target weight must be positive and finite, got {weight!r}")
        if block is not None and geometry.block != block:
            raise LayoutError(
                f"target geometry block {geometry.block} does not match the "
                f"instance block {block}"
            )
        out.append((geometry, str(policy), weight))
    return out


def _target_misses(
    blocks: np.ndarray,
    targets: Sequence[PlacementTarget],
    chunk_words: Optional[int] = None,
) -> List[int]:
    """Per-target miss counts of one remapped trace, sharing replay passes
    across targets of the same policy (the kernels memoize per organization).
    ``chunk_words`` replays the trace in chunks of that many accesses — same
    counts, O(``chunk_words``) peak memory per pass."""
    from repro.runtime.replay import replay_misses

    source = _chunked(blocks, chunk_words)
    by_policy: Dict[str, List[int]] = {}
    for i, (_geom, policy, _w) in enumerate(targets):
        by_policy.setdefault(policy, []).append(i)
    out: List[int] = [0] * len(targets)
    for policy, idxs in by_policy.items():
        misses = replay_misses(source, [targets[i][0] for i in idxs], policy=policy)
        for i, m in zip(idxs, misses):
            out[i] = m
    return out


def placement_costs(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> List[int]:
    """Per-target miss counts of the candidate placement (multi-geometry
    form of :func:`placement_cost`; one remap gather, shared replay passes)."""
    return _target_misses(
        remap_blocks(instance, order, gaps=gaps),
        normalize_targets(targets, block=instance.block),
    )


# ----------------------------------------------------------------------
# delta scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScoreBase:
    """What delta scoring keeps of the last candidate scored: its start
    vector and, per target, its miss count in every conflict class — plus
    the distinct ``(object ids, block offsets)`` the trace touches, the
    only blocks a move can carry from one class to another."""

    starts: np.ndarray
    counts: Tuple[np.ndarray, ...]
    touched: Tuple[np.ndarray, np.ndarray]


#: policies whose misses are a sum over per-set (per-frame) subsequences
_CLASS_SPLIT_POLICIES = ("lru", "opt", "direct")


def _class_spec(geometry: CacheGeometry, policy: str) -> Optional[Tuple[int, str]]:
    """``(class count, index scheme)`` a target's misses are a sum over —
    frames for direct-mapped, sets otherwise, one class when fully
    associative — or ``None`` when the policy does not split by class
    (``two_level``: its L2 sees an L1 miss stream that crosses sets)."""
    if policy not in _CLASS_SPLIT_POLICIES:
        return None
    from repro.runtime.replay import _scheme_of

    classes = _conflict_sets(geometry, policy)
    return classes, _scheme_of(geometry, classes)


def _chunked(blocks: np.ndarray, chunk_words: Optional[int]) -> "ArrayChunkSource":
    """``blocks`` as a replay source: chunks of ``chunk_words`` accesses, or
    one chunk when it is ``None``."""
    from repro.runtime.streaming import ArrayChunkSource

    return ArrayChunkSource(
        blocks, chunk_words=max(1, len(blocks)) if chunk_words is None else chunk_words
    )


def _class_miss_counts(
    blocks: np.ndarray,
    classes: np.ndarray,
    n_classes: int,
    geometries: Sequence[CacheGeometry],
    policy: str,
    chunk_words: Optional[int],
) -> List[np.ndarray]:
    """Per-geometry miss counts of ``blocks`` split by access class, in one
    replay (in chunks of ``chunk_words`` accesses when it is given)."""
    from repro.runtime.replay import chunk_counts, replay_miss_masks

    masks = replay_miss_masks(_chunked(blocks, chunk_words), geometries, policy=policy)
    return [c for _m, c in chunk_counts([(classes, masks)], len(masks), n_classes)]


def _delta_misses(
    obj_of_access: np.ndarray,
    block_offset: np.ndarray,
    starts: np.ndarray,
    targets: Sequence[PlacementTarget],
    base: Optional[ScoreBase] = None,
    chunk_words: Optional[int] = None,
) -> Tuple[List[int], ScoreBase]:
    """Per-target miss counts of the candidate ``starts``, replaying only
    the conflict classes that differ from ``base`` (every class when
    ``base`` is ``None``).  Returns the counts and the candidate's own
    :class:`ScoreBase`, ready to score the next candidate against.

    An lru/opt/direct target's misses are a sum over its conflict classes,
    and each class's count depends only on its own access subsequence up
    to a renaming of blocks.  Objects never overlap, so an access keeps or
    changes its block together with every other access to that block: a
    class no access enters or leaves is only relabeled one-to-one, and its
    count carries over.  The old and new class of every access whose class
    changed are dirty; the dirty classes' sub-trace replays once through
    the ordinary kernels and its misses are counted per class.
    ``two_level`` targets do not split, so any moved access replays them in
    full.  The dirty fraction of each target is recorded as the
    ``placement.dirty_frac`` histogram.
    """
    from repro.runtime.replay import set_index_array

    blocks = starts[obj_of_access] + block_offset
    if base is None:
        width = int(block_offset.max(initial=0)) + 1
        keys = np.unique(obj_of_access * width + block_offset)
        touched = (keys // width, keys % width)
        old_blocks = new_blocks = np.zeros(0, dtype=np.int64)
    else:
        touched = base.touched
        t_obj, t_off = touched
        moved = starts[t_obj] != base.starts[t_obj]
        old_blocks = base.starts[t_obj[moved]] + t_off[moved]
        new_blocks = starts[t_obj[moved]] + t_off[moved]
    groups: Dict[Tuple[str, Optional[Tuple[int, str]]], List[int]] = {}
    for i, (geom, policy, _w) in enumerate(targets):
        groups.setdefault((policy, _class_spec(geom, policy)), []).append(i)
    counts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(targets)
    for (policy, spec), idxs in groups.items():
        n_classes, scheme = spec if spec is not None else (1, "mod")
        classes = set_index_array(blocks, n_classes, scheme)
        if base is None:
            dirty = np.ones(n_classes, dtype=bool)
        elif spec is None:
            dirty = np.full(n_classes, new_blocks.shape[0] > 0, dtype=bool)
        else:
            old_cls = set_index_array(old_blocks, n_classes, scheme)
            new_cls = set_index_array(new_blocks, n_classes, scheme)
            changed = old_cls != new_cls
            dirty = np.zeros(n_classes, dtype=bool)
            dirty[old_cls[changed]] = True
            dirty[new_cls[changed]] = True
        if base is not None:
            frac = float(np.count_nonzero(dirty)) / n_classes
            for _ in idxs:
                obs.observe(obs_names.PLACEMENT_DIRTY_FRAC, frac)
            if not dirty.any():
                for i in idxs:
                    counts[i] = base.counts[i]
                continue
        if not dirty.all():
            keep = dirty[classes]
            blocks_d, classes_d = blocks[keep], classes[keep]
        else:
            blocks_d, classes_d = blocks, classes
        fresh = _class_miss_counts(
            blocks_d, classes_d, n_classes, [targets[i][0] for i in idxs],
            policy, chunk_words,
        )
        for i, f in zip(idxs, fresh):
            counts[i] = f if base is None else np.where(dirty, f, base.counts[i])
    per = [int(c.sum()) for c in counts]
    return per, ScoreBase(starts=starts.copy(), counts=tuple(counts), touched=touched)


# ----------------------------------------------------------------------
# temporal-affinity conflict graph
# ----------------------------------------------------------------------
def conflict_graph(
    instance: PlacementInstance, window: int = 8
) -> Dict[Tuple[int, int], float]:
    """Edge weights between object ids co-scheduled within ``window`` runs.

    The trace's object sequence is run-length compressed (a firing touches
    each object in one contiguous burst); two distinct objects whose runs
    fall within ``window`` positions of each other get an edge, weighted
    ``window - gap + 1`` so immediate neighbours dominate.  Stream arenas
    are excluded — they are not placeable.  High weight = mapping the pair
    to the same set is expensive.
    """
    if window < 1:
        raise LayoutError(f"conflict window must be >= 1, got {window}")
    n_obj = instance.n_objects
    seq = instance.obj_of_access[instance.obj_of_access < n_obj]
    weights: Dict[Tuple[int, int], float] = {}
    if seq.shape[0] == 0:
        return weights
    keep = np.ones(seq.shape[0], dtype=bool)
    keep[1:] = seq[1:] != seq[:-1]
    runs = seq[keep]
    for gap in range(1, min(window, runs.shape[0] - 1) + 1):
        a, b = runs[gap:], runs[:-gap]
        mask = a != b
        if not mask.any():
            continue
        lo = np.minimum(a[mask], b[mask])
        hi = np.maximum(a[mask], b[mask])
        pair_key, counts = np.unique(lo * n_obj + hi, return_counts=True)
        w = float(window - gap + 1)
        for k, c in zip(pair_key.tolist(), counts.tolist()):
            edge = (k // n_obj, k % n_obj)
            weights[edge] = weights.get(edge, 0.0) + w * c
    return weights


def _conflict_sets(geometry: CacheGeometry, policy: str) -> int:
    """Number of conflict classes the organization induces: frames for a
    direct-mapped target, sets otherwise (1 = fully associative = none)."""
    if policy == "direct" or geometry.ways == 1:
        return geometry.n_blocks
    return geometry.sets


def _primary_target(targets: Sequence[PlacementTarget]) -> PlacementTarget:
    """The heaviest-weight target — what the constructive heuristics aim at
    (ties break toward the most conflict-prone organization)."""
    return max(targets, key=lambda t: (t[2], _conflict_sets(t[0], t[1])))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def greedy_color_order(
    instance: PlacementInstance,
    geometry: CacheGeometry,
    policy: str = "direct",
    window: int = 8,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
) -> List[ObjectKey]:
    """Greedy set-coloring: grow the placement left to right, appending at
    each cursor position the unplaced object whose set span (its blocks
    hashed through the geometry's index scheme) has the least conflict
    weight against the objects already covering those sets.  Hot objects
    (highest total conflict weight) break ties first, so they claim clean
    sets early.
    """
    sets = _conflict_sets(geometry, policy)
    if sets <= 1:
        return list(instance.objects)
    if weights is None:
        weights = conflict_graph(instance, window=window)
    n_obj = instance.n_objects
    adj: List[Dict[int, float]] = [{} for _ in range(n_obj)]
    for (a, b), w in weights.items():
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[b].get(a, 0.0) + w

    block = instance.block
    nblocks = instance.nblocks
    lengths = instance.lengths
    set_ix = lambda blk: geometry.set_of(blk, sets)  # scheme-aware (mod/xor)
    covering: List[set] = [set() for _ in range(sets)]  # set idx -> object ids
    # hottest first so ties (empty sets early on) favour hot objects
    remaining, _hot_ids = _hot_objects(weights, n_obj)
    order_ids: List[int] = []
    cursor = 0
    while remaining:
        rem = cursor % block
        aligned = cursor + (block - rem if rem else 0)
        start_blk = aligned // block
        best_oid, best_cost, best_pos = None, None, 0
        for pos, oid in enumerate(remaining):
            nb = int(nblocks[oid])
            cost = 0.0
            neighbours = adj[oid]
            if neighbours and nb:
                for j in range(min(nb, sets)):
                    s = set_ix(start_blk + j)
                    for other in covering[s]:
                        cost += neighbours.get(other, 0.0)
            if best_cost is None or cost < best_cost:
                best_oid, best_cost, best_pos = oid, cost, pos
        order_ids.append(best_oid)
        remaining.pop(best_pos)
        for j in range(min(int(nblocks[best_oid]), sets)):
            covering[set_ix(start_blk + j)].add(best_oid)
        cursor = aligned + int(lengths[best_oid])
    return [instance.objects[oid] for oid in order_ids]


@dataclass(frozen=True)
class RefineStats:
    """What one local search spent and found.

    ``evals`` is the number of candidates the cost model scored, read off
    the scorer so it always equals the real invocation count (``int(stats)``
    returns it too).  ``trajectory[0]`` is the start's objective — the
    weighted miss sum, or the worst per-target ratio under ``minimax`` —
    and each further point the objective after one improving sweep, so
    ``rounds == len(trajectory) - 1``.  Searches also record these as the
    ``placement.evals`` / ``placement.rounds`` counters and the
    ``placement.cost`` series while :mod:`repro.obs` is enabled.
    """

    evals: int
    rounds: int
    trajectory: Tuple[float, ...]

    def __int__(self) -> int:
        return self.evals


#: a search move: ("swap", a, b) | ("rot", a, b, c, dir) | ("move", oid,
#: pos) | ("gap", oid, delta) — object ids, except a relocation's target,
#: which is a position index
_Move = Tuple


def _targets_of(
    instance: PlacementInstance,
    geometry: Optional[CacheGeometry],
    policy: str,
    targets: Optional[Sequence[PlacementTarget]],
    missing: str,
) -> List[PlacementTarget]:
    """``targets`` validated, else the one target ``(geometry, policy, 1.0)``;
    ``missing`` is the error raised when neither is given."""
    if targets is not None:
        return normalize_targets(targets, block=instance.block)
    if geometry is None:
        raise LayoutError(missing)
    return [(geometry, policy, 1.0)]


def _hot_objects(
    weights: Dict[Tuple[int, int], float], n_obj: int
) -> Tuple[List[int], List[int]]:
    """Object ids by total conflict weight, hottest first (ties by id), and
    the ones among them with positive weight."""
    degree = [0.0] * n_obj
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
    hot = sorted(range(n_obj), key=lambda o: (-degree[o], o))
    return hot, [o for o in hot if degree[o] > 0]


def _swap_moves(
    instance: PlacementInstance, weights: Dict[Tuple[int, int], float]
) -> List[_Move]:
    """Pairwise swaps, heaviest conflict edge first — on sparse conflict
    graphs most of the gain lives in a few hot pairs — then every other
    pair.  Two zero-length objects own no blocks: swapping them is a no-op
    and is left out."""
    n_obj = instance.n_objects
    ranked = sorted(weights, key=lambda e: (-weights[e], e))
    seen = set(ranked)
    ranked += [
        (a, b) for a in range(n_obj) for b in range(a + 1, n_obj)
        if (a, b) not in seen
    ]
    return [
        ("swap", a, b) for a, b in ranked
        if instance.nblocks[a] or instance.nblocks[b]
    ]


def _gap_moves(hot: Sequence[int], gap_budget: int) -> List[_Move]:
    """+1 then -1 block of padding before each object, hottest first; none
    without a gap budget."""
    return [("gap", oid, d) for oid in hot for d in (1, -1)] if gap_budget else []


def _apply_move(
    move: _Move,
    ids: List[int],
    gap_vec: np.ndarray,
    pos_of: Dict[int, int],
    gap_total: int,
    gap_budget: int,
) -> Optional[Tuple[List[int], np.ndarray]]:
    """Materialize one move as a fresh ``(ids, gap_vec)`` pair, or ``None``
    when it is a no-op or illegal in the current state (a gap move's
    legality moves with the gaps already spent)."""
    kind = move[0]
    if kind == "swap":
        _, a, b = move
        new_ids = list(ids)
        i, j = pos_of[a], pos_of[b]
        new_ids[i], new_ids[j] = new_ids[j], new_ids[i]
        return new_ids, gap_vec
    if kind == "rot":
        _, a, b, c, direction = move
        new_ids = list(ids)
        pa, pb, pc = pos_of[a], pos_of[b], pos_of[c]
        if direction > 0:
            new_ids[pa], new_ids[pb], new_ids[pc] = c, a, b
        else:
            new_ids[pa], new_ids[pb], new_ids[pc] = b, c, a
        return new_ids, gap_vec
    if kind == "move":
        _, oid, pos = move
        cur = pos_of[oid]
        if cur == pos:
            return None
        new_ids = list(ids)
        new_ids.pop(cur)
        new_ids.insert(min(pos, len(new_ids)), oid)
        return new_ids, gap_vec
    _, oid, delta = move
    if delta > 0 and gap_total >= gap_budget:
        return None
    if delta < 0 and gap_vec[oid] == 0:
        return None
    new_gap = gap_vec.copy()
    new_gap[oid] += delta
    return list(ids), new_gap


def _max_set_load(
    instance: PlacementInstance,
    starts: np.ndarray,
    hot_ids: Sequence[int],
    geometry: CacheGeometry,
    sets: int,
) -> int:
    """Worst per-set count of hot objects covering that set under
    ``starts`` — the capacitated-facility load the ``ways`` cap bounds."""
    load: Dict[int, int] = {}
    for oid in hot_ids:
        nb = int(instance.nblocks[oid])
        base = int(starts[oid])
        for j in range(min(nb, sets)):
            s = geometry.set_of(base + j, sets)
            load[s] = load.get(s, 0) + 1
    return max(load.values()) if load else 0


def _ratio(misses: int, seed: int) -> float:
    """Per-target miss ratio vs the seed layout, inf-safe."""
    if seed:
        return misses / seed
    return 0.0 if misses == 0 else float("inf")


def _local_search(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    moves: Sequence[_Move],
    budget: int,
    gap_budget: int = 0,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
    objective: str = "sum",
    prune: Optional[Sequence[int]] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """The one placement local search: sweep ``moves`` from ``(order, gaps)``
    on the exact remap cost model.

    A sweep walks ``moves`` in order.  It materializes the next ``batch``
    moves legal in the current state, scores them together through one
    :class:`~repro.runtime.backend.CandidateScorer`, applies the best
    strictly improving one (ties keep the earlier) and goes on from there,
    so ``batch=1`` is first improvement.  When the opposite of an accepted
    gap move comes next, it is skipped: it would re-test the state just
    left.  Sweeps repeat until one improves nothing or ``budget`` evals are
    spent.  ``objective="sum"`` minimizes the weighted miss sum;
    ``"minimax"`` minimizes ``(worst per-target miss ratio vs the seed
    layout, weighted sum)`` lexicographically and spends one eval on the
    seed.  ``prune`` turns on the per-set capacity constraint over those
    (hot) objects: a candidate whose worst per-set load at the primary
    target exceeds both its ``ways`` and the current state's load is
    dropped without an eval and counted by ``placement.pruned``.  The
    trajectory depends only on ``batch``: ``backend``/``workers`` choose
    where scoring runs and ``chunk_words`` how it replays, and the counts
    are exact either way.
    """
    if objective not in ("sum", "minimax"):
        raise LayoutError(
            f"objective must be 'sum' or 'minimax', got {objective!r}"
        )
    need = 2 if objective == "minimax" else 1  # the start, and the seed
    if budget < need:
        raise LayoutError(
            f"budget must be >= {need} under the {objective} objective, "
            f"got {budget}"
        )
    if gap_budget < 0:
        raise LayoutError(f"gap_budget must be >= 0, got {gap_budget}")
    if batch < 1:
        raise LayoutError(f"batch must be >= 1, got {batch}")
    ids = _order_ids(instance, order)
    gap_vec = _gap_vector(instance, gaps)
    if gap_vec is None:
        gap_vec = np.zeros(instance.n_objects, dtype=np.int64)
    gap_total = int(gap_vec.sum())
    if gap_total > gap_budget:
        raise LayoutError(
            f"starting gaps use {gap_total} blocks, over gap_budget={gap_budget}"
        )
    cap_geom, cap_policy, _w = _primary_target(targets)
    cap_sets = _conflict_sets(cap_geom, cap_policy)
    cap_ways = 1 if cap_policy == "direct" else cap_geom.ways
    # a primary target with one set has no per-set capacity to exceed
    hot_ids = prune if prune is not None and cap_sets > 1 else ()
    from repro.runtime.backend import CandidateScorer

    pruned = 0
    with CandidateScorer(
        instance, targets, backend=backend, workers=workers,
        chunk_words=chunk_words,
    ) as scorer:
        seed_per: List[int] = []
        if objective == "minimax":
            seed_per = scorer.score_per(
                [_placed_starts(instance, list(range(instance.n_objects)))]
            )[0]

        def key_of(per: Sequence[int]) -> Tuple[float, ...]:
            weighted = sum(w * m for (_g, _p, w), m in zip(targets, per))
            if objective == "minimax":
                worst = max(
                    (_ratio(m, s) for m, s in zip(per, seed_per)),
                    default=0.0,
                )
                return (worst, weighted)
            return (weighted,)

        cur_starts = _placed_starts(instance, ids, gap_vec)
        cur_per = scorer.score_per([cur_starts])[0]
        cur_key = key_of(cur_per)
        cur_load = _max_set_load(instance, cur_starts, hot_ids, cap_geom, cap_sets)
        trajectory: List[float] = [cur_key[0]]
        improved = True
        while improved and scorer.evals < budget:
            improved = False
            pos_of = {oid: p for p, oid in enumerate(ids)}
            pos = 0
            while pos < len(moves) and scorer.evals < budget:
                cands: List[Tuple[_Move, List[int], np.ndarray, np.ndarray, int]] = []
                room = min(batch, budget - scorer.evals)
                while pos < len(moves) and len(cands) < room:
                    move = moves[pos]
                    pos += 1
                    out = _apply_move(
                        move, ids, gap_vec, pos_of, gap_total, gap_budget
                    )
                    if out is None:
                        continue
                    new_ids, new_gap = out
                    starts = _placed_starts(instance, new_ids, new_gap)
                    load = _max_set_load(instance, starts, hot_ids, cap_geom, cap_sets)
                    if hot_ids and load > max(cap_ways, cur_load):
                        pruned += 1
                        continue
                    cands.append((move, new_ids, new_gap, starts, load))
                if not cands:
                    continue
                pers = scorer.score_per([c[3] for c in cands])
                keys = [key_of(per) for per in pers]
                k = min(range(len(keys)), key=keys.__getitem__)  # earliest best
                if keys[k] < cur_key:  # strict: ties keep the current state
                    move, ids, gap_vec, _starts, cur_load = cands[k]
                    if move[0] == "gap":
                        gap_total += move[2]
                        # its opposite would re-test the state just left
                        if pos < len(moves) and moves[pos] == ("gap", move[1], -move[2]):
                            pos += 1
                    cur_key, cur_per = keys[k], pers[k]
                    pos_of = {oid: p for p, oid in enumerate(ids)}
                    improved = True
            if improved:
                trajectory.append(cur_key[0])
        evals = scorer.evals
    stats = RefineStats(
        evals=evals, rounds=len(trajectory) - 1, trajectory=tuple(trajectory)
    )
    obs.add(obs_names.PLACEMENT_EVALS, stats.evals)
    obs.add(obs_names.PLACEMENT_ROUNDS, stats.rounds)
    if prune is not None:
        obs.add(obs_names.PLACEMENT_PRUNED, pruned)
    for point in stats.trajectory:
        obs.series(obs_names.PLACEMENT_COST, point)
    out_gaps = {
        instance.objects[oid]: int(g)
        for oid, g in enumerate(gap_vec.tolist())
        if g
    }
    cost = float(sum(w * m for (_g, _p, w), m in zip(targets, cur_per)))
    return [instance.objects[oid] for oid in ids], out_gaps, cost, stats


def swap_refine(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    geometry: Optional[CacheGeometry] = None,
    policy: str = "direct",
    window: int = 8,
    budget: int = 400,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
    targets: Optional[Sequence[PlacementTarget]] = None,
    gap_budget: int = 0,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """FLIP-style local search over (order, gaps) on the true remap cost.

    Starting from ``order`` (and optionally ``gaps``), sweep two move kinds
    and keep each one that lowers the objective — the actual miss count at
    ``(geometry, policy)``, or the weighted miss sum over ``targets`` when
    given (the exact cost model either way, so accepted moves are real
    improvements, never estimator noise):

    * **swaps** of two objects' positions, heaviest conflict edge first,
      then every remaining pair;
    * **gap moves** (when ``gap_budget > 0``): +1 or -1 block of deliberate
      padding before an object, hottest objects first, with the total gap
      block count never exceeding ``gap_budget`` (the address-space
      budget).

    The sweep is :func:`_local_search`, the loop
    :func:`repro.mem.facility.multiswap_refine` runs over its wider move
    list, here without the capacity prune.  It stops at a local optimum or
    after ``budget`` evals (at least 1: the start is scored first).
    ``batch`` candidates are scored at a time, the best improving one
    applied, and the sweep goes on (``batch=1``: first improvement); a
    :class:`repro.runtime.backend.CandidateScorer` scores them, on a
    process pool when ``backend="process"``.  The trajectory depends only
    on ``batch``, never on ``backend``, ``workers`` or ``chunk_words``.
    Returns ``(order, gaps, cost, stats)``: ``gaps`` maps object keys to
    their padding in blocks (zero entries omitted), ``stats`` is a
    :class:`RefineStats`.
    """
    targets_n = _targets_of(
        instance, geometry, policy, targets,
        "swap_refine needs a geometry or explicit targets",
    )
    if weights is None:
        weights = conflict_graph(instance, window=window)
    hot, _hot_ids = _hot_objects(weights, instance.n_objects)
    moves = _swap_moves(instance, weights) + _gap_moves(hot, gap_budget)
    with obs.span(obs_names.PLACEMENT_SEARCH, batch=batch):
        return _local_search(
            instance, order, targets_n, moves, budget, gap_budget=gap_budget,
            gaps=gaps, batch=batch, backend=backend, workers=workers,
            chunk_words=chunk_words,
        )


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
_STRATEGIES: Dict[str, Callable] = {}


def register_placement(name: str, fn: Callable) -> None:
    """Register a placement strategy: ``fn(instance, geometry, policy=...,
    window=..., budget=..., targets=..., gap_budget=..., batch=...,
    backend=..., workers=..., restarts=..., noise=..., seed=...) ->
    (order, gaps)`` (a full object placement plus a per-object gap map,
    possibly empty).  ``backend``/``workers`` only choose where candidates
    are scored and must not change the returned placement;
    ``restarts``/``noise``/``seed`` drive the smoothed multi-restart
    search (:mod:`repro.mem.facility`) and are ``None`` for strategies
    that ignore them — a given (strategy, knobs) pair must always return
    the same placement (seeded determinism, pinned in CI)."""
    _STRATEGIES[name] = fn


def get_placement(name: str) -> Callable:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise LayoutError(
            f"unknown placement strategy {name!r}; "
            f"registered: {sorted(_STRATEGIES)}"
        ) from None


def available_placements() -> Tuple[str, ...]:
    return tuple(sorted(_STRATEGIES))


def _topo_strategy(instance: PlacementInstance, geometry: CacheGeometry,
                   policy: str = "direct", window: int = 8, budget: int = 400,
                   targets: Optional[Sequence[PlacementTarget]] = None,
                   gap_budget: int = 0, batch: int = 1,
                   backend: Optional[str] = None,
                   workers: Optional[int] = None,
                   restarts: Optional[int] = None,
                   noise: Optional[float] = None,
                   seed: Optional[int] = None,
                   ) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    return list(instance.objects), {}


def _color_strategy(instance: PlacementInstance, geometry: CacheGeometry,
                    policy: str = "direct", window: int = 8, budget: int = 400,
                    targets: Optional[Sequence[PlacementTarget]] = None,
                    gap_budget: int = 0, batch: int = 1,
                    backend: Optional[str] = None,
                    workers: Optional[int] = None,
                    restarts: Optional[int] = None,
                    noise: Optional[float] = None,
                    seed: Optional[int] = None,
                    ) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    if targets:
        geometry, policy, _w = _primary_target(
            normalize_targets(targets, block=instance.block)
        )
    return greedy_color_order(instance, geometry, policy=policy, window=window), {}


def _search_targets(
    instance: PlacementInstance,
    geometry: Optional[CacheGeometry],
    policy: str,
    targets: Optional[Sequence[PlacementTarget]],
    budget: int,
) -> Optional[List[PlacementTarget]]:
    """A search strategy's normalized targets, or ``None`` when every
    target is fully associative: misses are then provably placement-
    invariant, so spending the budget on replays could never improve.
    A budget that could not even score the start is rejected either way."""
    if budget < 1:
        raise LayoutError(f"budget must be >= 1, got {budget}")
    targets_n = _targets_of(
        instance, geometry, policy, targets,
        "placement strategy needs a geometry or targets",
    )
    if all(_conflict_sets(g, p) <= 1 for g, p, _w in targets_n):
        return None
    return targets_n


def _refine_strategy(refine: Callable) -> Callable:
    """The strategy that refines the greedy color start with ``refine``
    (called like :func:`swap_refine`)."""

    def strategy(instance: PlacementInstance, geometry: Optional[CacheGeometry],
                 policy: str = "direct", window: int = 8, budget: int = 400,
                 targets: Optional[Sequence[PlacementTarget]] = None,
                 gap_budget: int = 0, batch: int = 1,
                 backend: Optional[str] = None,
                 workers: Optional[int] = None,
                 restarts: Optional[int] = None,
                 noise: Optional[float] = None,
                 seed: Optional[int] = None,
                 ) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
        targets_n = _search_targets(instance, geometry, policy, targets, budget)
        if targets_n is None:
            return list(instance.objects), {}
        weights = conflict_graph(instance, window=window)
        pg, pp, _w = _primary_target(targets_n)
        start = greedy_color_order(
            instance, pg, policy=pp, window=window, weights=weights
        )
        order, gaps, _cost, _stats = refine(
            instance, start, window=window, budget=budget, weights=weights,
            targets=targets_n, gap_budget=gap_budget, batch=batch,
            backend=backend, workers=workers,
        )
        return order, gaps

    return strategy


register_placement("topo", _topo_strategy)
register_placement("color", _color_strategy)
register_placement("swap", _refine_strategy(swap_refine))


# ----------------------------------------------------------------------
# top-level entry points
# ----------------------------------------------------------------------
@dataclass
class PlacementResult:
    """An optimized placement and its exact cost accounting.

    ``order`` and ``gaps`` feed straight into ``placement=`` / ``gaps=`` of
    :func:`~repro.runtime.compiled.compile_trace`,
    :meth:`~repro.runtime.executor.Executor.measure`, or
    :meth:`~repro.mem.layout.MemoryLayout.place_graph`.

    ``cost`` / ``seed_cost`` are miss counts for a single-target run, the
    weighted miss sums for a multi-target one; ``per_target`` /
    ``seed_per_target`` carry the individual miss counts in target order
    (the never-worse-at-every-target guarantee is stated on those).
    """

    strategy: str
    order: List[ObjectKey]
    cost: float
    seed_cost: float
    gaps: Dict[ObjectKey, int] = field(default_factory=dict)
    targets: List[PlacementTarget] = field(default_factory=list)
    per_target: List[int] = field(default_factory=list)
    seed_per_target: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fraction of the seed layout's (weighted) misses removed."""
        return 1.0 - self.cost / self.seed_cost if self.seed_cost else 0.0

    @property
    def gap_blocks(self) -> int:
        """Total deliberate padding the placement spends, in blocks."""
        return sum(self.gaps.values())


def optimize_instance(
    instance: PlacementInstance,
    geometry: Optional[CacheGeometry] = None,
    strategy: str = "swap",
    policy: str = "direct",
    window: int = 8,
    budget: int = 400,
    targets: Optional[Sequence[PlacementTarget]] = None,
    gap_budget: int = 0,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    restarts: Optional[int] = None,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
) -> PlacementResult:
    """Run one registered strategy against a prebuilt instance.

    Single-target form: ``geometry`` + ``policy``.  Multi-geometry form:
    ``targets=[(geometry, policy, weight), ...]`` — the objective is the
    weighted miss sum.  Either way the result is **never worse than the
    seed at any individual target**: a candidate that regresses anywhere
    (the A7 cross-geometry failure mode) is discarded for the seed layout.

    ``batch``/``backend``/``workers`` parallelize candidate scoring (see
    :func:`swap_refine`): the returned placement depends only on ``batch``,
    never on where scoring ran.  ``restarts``/``noise``/``seed`` drive the
    smoothed multi-restart search (:mod:`repro.mem.facility`); strategies
    that do not restart ignore them.
    """
    targets_n = _targets_of(
        instance, geometry, policy, targets,
        "optimize_instance needs a geometry or targets",
    )
    fn = get_placement(strategy)
    seed_order = list(instance.objects)
    seed_per = _target_misses(remap_blocks(instance, seed_order), targets_n)
    seed_cost = sum(w * m for (_, _, w), m in zip(targets_n, seed_per))
    order, gaps = fn(
        instance, geometry, policy=policy, window=window, budget=budget,
        targets=targets, gap_budget=gap_budget,
        batch=batch, backend=backend, workers=workers,
        restarts=restarts, noise=noise, seed=seed,
    )
    per = _target_misses(remap_blocks(instance, order, gaps=gaps), targets_n)
    cost = sum(w * m for (_, _, w), m in zip(targets_n, per))
    if cost > seed_cost or any(c > s for c, s in zip(per, seed_per)):
        order, gaps, cost, per = seed_order, {}, seed_cost, seed_per
    if targets is None:
        # single-target runs keep integer miss counts for cost/seed_cost
        cost, seed_cost = int(per[0]), int(seed_per[0])
    return PlacementResult(
        strategy=strategy, order=order, cost=cost, seed_cost=seed_cost,
        gaps=dict(gaps), targets=targets_n, per_target=list(per),
        seed_per_target=list(seed_per),
    )


def optimize_placement(
    graph: StreamGraph,
    schedule: "Schedule",
    geometry: Optional[CacheGeometry] = None,
    strategy: str = "swap",
    policy: str = "direct",
    capacities: Optional[Dict[int, int]] = None,
    order: Optional[Iterable[str]] = None,
    window: int = 8,
    budget: int = 400,
    targets: Optional[Sequence[PlacementTarget]] = None,
    gap_budget: int = 0,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    restarts: Optional[int] = None,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
) -> PlacementResult:
    """One-shot convenience: compile the seed trace, search, return the
    best placement for ``(geometry, policy)`` — or, with ``targets``, the
    best layout under the multi-geometry weighted objective.
    ``batch``/``backend``/``workers`` fan candidate scoring over the
    selected execution backend (:mod:`repro.runtime.backend`) without
    changing the search trajectory; ``restarts``/``noise``/``seed`` drive
    the smoothed multi-restart search (:mod:`repro.mem.facility`)."""
    if geometry is not None:
        block = geometry.block
    elif targets:
        block = normalize_targets(targets)[0][0].block
    else:
        raise LayoutError("optimize_placement needs a geometry or targets")
    instance = build_instance(
        graph, schedule, block, capacities=capacities, order=order
    )
    return optimize_instance(
        instance, geometry, strategy=strategy, policy=policy,
        window=window, budget=budget, targets=targets, gap_budget=gap_budget,
        batch=batch, backend=backend, workers=workers,
        restarts=restarts, noise=noise, seed=seed,
    )
