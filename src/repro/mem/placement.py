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
  topological layout, kept as the baseline.

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
experiments A7/A9, CLI ``schedule --layout {topo,color,swap}
[--layout-targets SPEC] [--gap-budget N] [--index-scheme {mod,xor}]``,
``benchmarks/bench_placement.py``, and ``examples/layout_tuning.py``.
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
    ``chunk_words`` scores through the streaming replay
    (:mod:`repro.runtime.streaming`) in bounded-memory chunks — the same
    count, by the streaming differential contract.
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
    ``chunk_words`` swaps the monolithic kernels for the streaming ones —
    same counts, O(``chunk_words``) peak memory per pass."""
    from repro.runtime.replay import replay_misses

    by_policy: Dict[str, List[int]] = {}
    for i, (_geom, policy, _w) in enumerate(targets):
        by_policy.setdefault(policy, []).append(i)
    out: List[int] = [0] * len(targets)
    for policy, idxs in by_policy.items():
        geoms = [targets[i][0] for i in idxs]
        if chunk_words is not None:
            from repro.runtime.streaming import ArrayChunkSource, stream_stats

            source = ArrayChunkSource(blocks, chunk_words=chunk_words)
            misses = [m for m, _counts in stream_stats(source, geoms, policy)]
        else:
            misses = replay_misses(blocks, geoms, policy=policy)
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


def _class_miss_counts(
    blocks: np.ndarray,
    classes: np.ndarray,
    n_classes: int,
    geometries: Sequence[CacheGeometry],
    policy: str,
    chunk_words: Optional[int],
) -> List[np.ndarray]:
    """Per-geometry miss counts of ``blocks`` split by access class, in one
    replay (chunked when ``chunk_words`` is given)."""
    if chunk_words is not None:
        from repro.runtime.streaming import ArrayChunkSource, stream_class_counts

        source = ArrayChunkSource(blocks, chunk_words=chunk_words)
        return stream_class_counts(source, classes, n_classes, geometries, policy)
    from repro.runtime.replay import replay_miss_masks

    return [
        np.bincount(classes[mask], minlength=n_classes)
        for mask in replay_miss_masks(blocks, geometries, policy=policy)
    ]


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
    degree = [0.0] * n_obj
    for (a, b), w in weights.items():
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[b].get(a, 0.0) + w
        degree[a] += w
        degree[b] += w

    block = instance.block
    nblocks = instance.nblocks
    lengths = instance.lengths
    set_ix = lambda blk: geometry.set_of(blk, sets)  # scheme-aware (mod/xor)
    covering: List[set] = [set() for _ in range(sets)]  # set idx -> object ids
    remaining = list(range(n_obj))
    # hottest first so ties (empty sets early on) favour hot objects
    remaining.sort(key=lambda o: (-degree[o], o))
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
    """Telemetry of one :func:`swap_refine` search — the structured
    replacement for the bare ``evals`` integer it used to return.

    ``trajectory[0]`` is the seed cost; each further point is the best
    cost after one improving round, so ``trajectory[-1]`` equals the
    returned cost and ``rounds == len(trajectory) - 1``.  The same values
    are recorded as obs metrics (``placement.evals`` / ``placement.rounds``
    counters, the ``placement.cost`` series) while instrumentation is
    enabled.  ``int(stats)`` still yields the evaluation count for callers
    that only budget.
    """

    evals: int
    rounds: int
    trajectory: Tuple[float, ...]

    def __int__(self) -> int:
        return self.evals


def _batched_refine(
    instance: PlacementInstance,
    scorer: object,
    ids: List[int],
    gap_vec: np.ndarray,
    ranked: Sequence[Tuple[int, int]],
    hot: Sequence[int],
    gap_budget: int,
    gap_total: int,
    cost: float,
    evals: int,
    budget: int,
    batch: int,
    trajectory: List[float],
) -> Tuple[float, int]:
    """Steepest-descent-within-batch local search (``swap_refine(batch>1)``).

    Enumerates every move legal in the *current* state (ranked swaps, then
    ±1 gap moves), scores ``batch`` of them at a time through ``scorer``
    (which may fan over a process pool), applies the best improving one,
    and regenerates the move list.  Deterministic in ``batch`` alone: the
    scorer is bit-identical across backends, candidate order is fixed, and
    ties break to the earliest candidate — so the trajectory, final state,
    and evaluation count never depend on where scoring ran.  Mutates
    ``ids``/``gap_vec`` in place and appends each improving round's cost
    to ``trajectory``; returns ``(cost, evals)``.
    """
    pos_of = {oid: p for p, oid in enumerate(ids)}
    improved = True
    while improved and evals < budget:
        improved = False
        moves: List[Tuple[str, int, int]] = []
        for a, b in ranked:
            if instance.nblocks[a] == 0 and instance.nblocks[b] == 0:
                continue  # zero-length objects own no blocks: swap is a no-op
            moves.append(("swap", a, b))
        if gap_budget:
            for oid in hot:
                if gap_total < gap_budget:
                    moves.append(("gap", oid, 1))
                if gap_vec[oid] > 0:
                    moves.append(("gap", oid, -1))
        pos = 0
        while pos < len(moves) and evals < budget:
            chunk = moves[pos:pos + batch][: budget - evals]
            pos += len(chunk)
            starts_list: List[np.ndarray] = []
            for kind, x, y in chunk:
                if kind == "swap":
                    i, j = pos_of[x], pos_of[y]
                    ids[i], ids[j] = ids[j], ids[i]
                    starts_list.append(_placed_starts(instance, ids, gap_vec))
                    ids[i], ids[j] = ids[j], ids[i]
                else:
                    gap_vec[x] += y
                    starts_list.append(_placed_starts(instance, ids, gap_vec))
                    gap_vec[x] -= y
            costs = scorer.score(starts_list)  # type: ignore[attr-defined]
            evals += len(chunk)
            best_k = -1
            best_c = cost
            for k, c in enumerate(costs):
                if c < best_c:  # strict: ties keep the earlier candidate
                    best_k, best_c = k, c
            if best_k >= 0:
                kind, x, y = chunk[best_k]
                if kind == "swap":
                    i, j = pos_of[x], pos_of[y]
                    ids[i], ids[j] = ids[j], ids[i]
                    pos_of[x], pos_of[y] = j, i
                else:
                    gap_vec[x] += y
                    gap_total += y
                cost = best_c
                improved = True
                break  # state changed: regenerate the move list
        if improved:
            trajectory.append(cost)
    return cost, evals


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

    Starting from ``order`` (and optionally ``gaps``), repeatedly try two
    move kinds and keep any that lowers the objective — the actual miss
    count at ``(geometry, policy)``, or the weighted miss sum over
    ``targets`` when given (the exact cost model either way, so accepted
    moves are real improvements, never estimator noise):

    * **swaps** of two objects' positions, visited heaviest conflict edge
      first — on sparse conflict graphs most of the gain lives in a few
      hot pairs — then every remaining pair for completeness;
    * **gap moves** (when ``gap_budget > 0``): ±1 block of deliberate
      padding before an object, hottest objects first, with the total gap
      block count never exceeding ``gap_budget`` (the address-space
      budget).

    The search stops at a local optimum or after ``budget`` cost
    evaluations.  Returns ``(order, gaps, cost, stats)``; ``gaps`` maps
    object keys to their padding in blocks (zero entries omitted), and
    ``stats`` is a :class:`RefineStats` carrying the evaluation count, the
    number of improving rounds, and the per-round best-cost trajectory
    (``int(stats)`` recovers the old bare ``evals``).  The same telemetry
    is recorded as obs metrics when :mod:`repro.obs` is enabled.

    **Parallel scoring.**  ``batch > 1`` switches to steepest-descent over
    batches: the next ``batch`` untried moves are scored together (through
    a :class:`repro.runtime.backend.CandidateScorer`, which ships the remap
    arrays to a process pool once via shared memory when
    ``backend="process"``) and the best improving one is applied.  The
    search *trajectory* depends only on ``batch`` — never on ``backend`` or
    ``workers``, which only choose where candidate scoring runs — so serial
    and process runs of the same ``batch`` return identical placements at
    an identical evaluation count, and the process pool buys pure
    wall-time.  ``batch=1`` (default) is the historical first-improvement
    loop, unchanged.  ``chunk_words`` scores candidates through the
    streaming replay — the counts are bit-identical, so the trajectory
    (and :class:`RefineStats`) is byte-for-byte the monolithic one at equal
    ``batch``; ``tests/test_streaming.py`` pins exactly that.
    """
    if gap_budget < 0:
        raise LayoutError(f"gap_budget must be >= 0, got {gap_budget}")
    if targets is None:
        if geometry is None:
            raise LayoutError("swap_refine needs a geometry or explicit targets")
        targets_n = [(geometry, policy, 1.0)]
    else:
        targets_n = normalize_targets(targets, block=instance.block)
    if weights is None:
        weights = conflict_graph(instance, window=window)
    ids = _order_ids(instance, order)
    gap_vec = _gap_vector(instance, gaps)
    if gap_vec is None:
        gap_vec = np.zeros(instance.n_objects, dtype=np.int64)
    gap_total = int(gap_vec.sum())
    if gap_total > gap_budget:
        raise LayoutError(
            f"starting gaps use {gap_total} blocks, over gap_budget={gap_budget}"
        )
    pos_of = {oid: p for p, oid in enumerate(ids)}
    n_obj = instance.n_objects
    # heavy conflict pairs first, then every remaining pair for completeness
    ranked = sorted(weights, key=lambda e: (-weights[e], e))
    seen = set(ranked)
    ranked += [
        (a, b) for a in range(n_obj) for b in range(a + 1, n_obj)
        if (a, b) not in seen
    ]
    # gap moves visit hot (high conflict degree) objects first
    degree = [0.0] * n_obj
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
    hot = sorted(range(n_obj), key=lambda o: (-degree[o], o))

    if batch < 1:
        raise LayoutError(f"batch must be >= 1, got {batch}")
    from repro.runtime.backend import CandidateScorer

    with obs.span(obs_names.PLACEMENT_SEARCH, batch=batch), CandidateScorer(
        instance, targets_n, backend=backend, workers=workers,
        chunk_words=chunk_words,
    ) as scorer:

        def cost_of() -> float:
            return scorer.score([_placed_starts(instance, ids, gap_vec)])[0]

        cost = cost_of()
        evals = 1
        trajectory: List[float] = [cost]
        if batch > 1:
            cost, evals = _batched_refine(
                instance, scorer, ids, gap_vec, ranked, hot,
                gap_budget, gap_total, cost, evals, budget, batch, trajectory,
            )
        else:
            improved = True
            while improved and evals < budget:
                improved = False
                for a, b in ranked:
                    if evals >= budget:
                        break
                    if instance.nblocks[a] == 0 and instance.nblocks[b] == 0:
                        continue  # zero-length objects own no blocks: no-op
                    i, j = pos_of[a], pos_of[b]
                    ids[i], ids[j] = ids[j], ids[i]
                    trial = cost_of()
                    evals += 1
                    if trial < cost:
                        cost = trial
                        pos_of[a], pos_of[b] = j, i
                        improved = True
                    else:
                        ids[i], ids[j] = ids[j], ids[i]
                if gap_budget:
                    for oid in hot:
                        if evals >= budget:
                            break
                        for delta in (1, -1):
                            if delta > 0 and gap_total >= gap_budget:
                                continue
                            if delta < 0 and gap_vec[oid] == 0:
                                continue
                            gap_vec[oid] += delta
                            trial = cost_of()
                            evals += 1
                            if trial < cost:
                                cost = trial
                                gap_total += delta
                                improved = True
                                break  # opposite delta re-tests the state left
                            gap_vec[oid] -= delta
                            if evals >= budget:
                                break
                if improved:
                    trajectory.append(cost)
        # the scorer counts every candidate it ever evaluated (gap moves
        # and batched chunks included), so the reported evals can never
        # drift from the actual number of cost-model invocations — the
        # "equal eval budget" comparisons in A12/bench_placement gate on it
        evals = scorer.evals
    stats = RefineStats(
        evals=evals, rounds=len(trajectory) - 1, trajectory=tuple(trajectory)
    )
    obs.add(obs_names.PLACEMENT_EVALS, stats.evals)
    obs.add(obs_names.PLACEMENT_ROUNDS, stats.rounds)
    for point in stats.trajectory:
        obs.series(obs_names.PLACEMENT_COST, point)
    out_gaps = {
        instance.objects[oid]: int(g)
        for oid, g in enumerate(gap_vec.tolist())
        if g
    }
    return [instance.objects[oid] for oid in ids], out_gaps, cost, stats


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
_STRATEGIES: Dict[str, Callable] = {}


def register_placement(name: str, fn: Callable) -> None:
    """Register a placement strategy: ``fn(instance, geometry, policy=...,
    window=..., budget=..., targets=..., gap_budget=..., batch=...,
    backend=..., workers=..., restarts=..., noise=..., seed=...) ->
    (order, gaps)`` (a full object placement plus a per-object gap map,
    possibly empty).  ``batch``/``backend``/``workers`` only parallelize
    scoring and must not change the returned placement;
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


def _swap_strategy(instance: PlacementInstance, geometry: CacheGeometry,
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
        targets_n = normalize_targets(targets, block=instance.block)
    else:
        targets_n = [(geometry, policy, 1.0)]
    if all(_conflict_sets(g, p) <= 1 for g, p, _w in targets_n):
        # fully associative everywhere: misses are provably placement-
        # invariant, so burning the budget on full-trace replays cannot
        # ever improve
        return list(instance.objects), {}
    weights = conflict_graph(instance, window=window)
    pg, pp, _w = _primary_target(targets_n)
    start = greedy_color_order(
        instance, pg, policy=pp, window=window, weights=weights
    )
    order, gaps, _, _ = swap_refine(
        instance, start, window=window, budget=budget, weights=weights,
        targets=targets_n, gap_budget=gap_budget, batch=batch,
        backend=backend, workers=workers,
    )
    return order, gaps


register_placement("topo", _topo_strategy)
register_placement("color", _color_strategy)
register_placement("swap", _swap_strategy)


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
    if targets is not None:
        targets_n = normalize_targets(targets, block=instance.block)
    else:
        if geometry is None:
            raise LayoutError("optimize_instance needs a geometry or targets")
        targets_n = [(geometry, policy, 1.0)]
    fn = get_placement(strategy)
    seed_order = list(instance.objects)
    seed_per = _target_misses(remap_blocks(instance, seed_order), targets_n)
    seed_cost = sum(w * m for (_, _, w), m in zip(targets_n, seed_per))
    out = fn(
        instance, geometry, policy=policy, window=window, budget=budget,
        targets=targets if targets is not None else None, gap_budget=gap_budget,
        batch=batch, backend=backend, workers=workers,
        restarts=restarts, noise=noise, seed=seed,
    )
    order, gaps = out
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
