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
  targets), so :class:`CandidateScorer` replays only the sets a move
  dirties and reuses the other per-set counts (:func:`_delta_misses`).
* **Temporal-affinity conflict graph** — objects co-scheduled within a
  short reuse window of the trace are the ones that must not collide in a
  set.  The graph is extracted from the run-length-compressed object
  sequence of the compiled trace; nearer co-occurrences weigh more.
* **Strategies** (the shape is classic: assigning hot objects to
  capacity-limited sets is capacitated facility location, and FLIP-style
  swap local search is cheap and effective on sparse conflict graphs):
  :func:`optimize_instance` runs one of :data:`STRATEGIES`.  ``"color"``
  greedily appends, at each cursor position, the unplaced object whose
  set span conflicts least with what is already placed (greedy
  set-coloring of the conflict graph); ``"swap"`` refines that order by
  pairwise-swap local search — interleaved with *gap moves* (±1 block of
  padding before an object, bounded by ``gap_budget``) — scored with the
  *true* remap cost model, visiting heavy conflict pairs first.
  ``"topo"`` is the seed topological layout, kept as the baseline.  Every
  search runs the one loop :func:`_local_search` over a move list;
  :mod:`repro.mem.facility` widens the list and adds restarts and a
  minimax objective.

**Multi-geometry objective.**  A7 showed a layout tuned for the
direct-mapped index can *regress* at 2-way — unacceptable when one binary
must deploy across cache organizations.  Every search and cost takes its
objective as ``targets=[(geometry, policy, weight), ...]`` (one target is
a list of one) and scores candidates by the weighted miss sum across all
targets, and :func:`optimize_instance` only accepts a candidate that is
no worse than the seed **at every individual target** (falling back to
the seed otherwise), so optimized layouts are deployable: experiment A9
(:func:`repro.analysis.sweeps.ablation_a9_cross_geometry`) measures the
cross-geometry behaviour.

:func:`optimize_instance` never returns a placement worse than the seed
(at any target), so callers can enable it unconditionally.  Wire-up:
experiments A7/A9/A12, CLI ``schedule --layout NAME`` (any of
:data:`STRATEGIES`) ``[--layout-targets SPEC] [--gap-budget N]``,
``benchmarks/bench_placement.py``, and ``examples/layout_tuning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

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
    "placement_costs",
    "conflict_graph",
    "greedy_color_order",
    "RefineStats",
    "CandidateScorer",
    "swap_refine",
    "STRATEGIES",
    "optimize_instance",
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
    compiler = TraceCompiler(graph, block, capacities=capacities, layout_order=order)
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


def normalize_targets(
    targets: Sequence[PlacementTarget], block: Optional[int] = None
) -> List[PlacementTarget]:
    """Validate a multi-geometry objective spec.

    Each entry is ``(geometry, policy, weight)``: a single-level geometry
    under ``lru``, ``direct`` or ``opt``, with a positive finite weight;
    all geometries must share one block size (``block`` when given — the
    instance's — since one compiled trace scores every target).
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
        if policy not in ("lru", "direct", "opt"):
            raise LayoutError(
                f"target policy must be lru, direct or opt (single-level "
                f"replay), got {policy!r}"
            )
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
    blocks: np.ndarray, targets: Sequence[PlacementTarget]
) -> List[int]:
    """Per-target miss counts of one remapped trace, sharing replay passes
    across targets of the same policy (the kernels memoize per organization)."""
    from repro.runtime.replay import replay_misses

    by_policy: Dict[str, List[int]] = {}
    for i, (_geom, policy, _w) in enumerate(targets):
        by_policy.setdefault(policy, []).append(i)
    out: List[int] = [0] * len(targets)
    for policy, idxs in by_policy.items():
        misses = replay_misses(blocks, [targets[i][0] for i in idxs], policy=policy)
        for i, m in zip(idxs, misses):
            out[i] = m
    return out


def placement_costs(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> List[int]:
    """Per-target miss counts of the candidate placement, in target order:
    one remap gather, one replay per policy.

    Exact, not an estimate: the remapped trace is bit-identical to what the
    compiler would produce for this placement (gaps included), and the
    replay kernels agree miss-for-miss with the stepwise simulators.
    """
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


def _class_miss_counts(
    blocks: np.ndarray,
    classes: np.ndarray,
    n_classes: int,
    geometries: Sequence[CacheGeometry],
    policy: str,
) -> List[np.ndarray]:
    """Per-geometry miss counts of ``blocks`` split by access class, in one
    replay."""
    from repro.runtime.replay import chunk_counts, replay_miss_masks

    masks = replay_miss_masks(blocks, geometries, policy=policy)
    return [c for _m, c in chunk_counts([(classes, masks)], len(masks), n_classes)]


def _delta_misses(
    obj_of_access: np.ndarray,
    block_offset: np.ndarray,
    starts: np.ndarray,
    targets: Sequence[PlacementTarget],
    base: Optional[ScoreBase] = None,
) -> Tuple[List[int], ScoreBase]:
    """Per-target miss counts of the candidate ``starts``, replaying only
    the conflict classes that differ from ``base`` (every class when
    ``base`` is ``None``).  Returns the counts and the candidate's own
    :class:`ScoreBase`, ready to score the next candidate against.

    A target's misses are a sum over its conflict classes, and each class's
    count depends only on its own access subsequence up to a renaming of
    blocks.  Objects never overlap, so an access keeps or changes its block
    together with every other access to that block: a class no access
    enters or leaves is only relabeled one-to-one, and its count carries
    over.  The old and new class of every access whose class changed are
    dirty; the dirty classes' sub-trace replays once through the ordinary
    kernels and its misses are counted per class.  The dirty fraction of
    each target is recorded as the ``placement.dirty_frac`` histogram.
    """
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
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, (geom, policy, _w) in enumerate(targets):
        groups.setdefault((policy, geom.conflict_classes(policy)), []).append(i)
    counts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(targets)
    for (policy, n_classes), idxs in groups.items():
        classes = blocks % n_classes
        if base is None:
            dirty = np.ones(n_classes, dtype=bool)
        else:
            old_cls = old_blocks % n_classes
            new_cls = new_blocks % n_classes
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
            blocks_d, classes_d, n_classes, [targets[i][0] for i in idxs], policy
        )
        for i, f in zip(idxs, fresh):
            counts[i] = f if base is None else np.where(dirty, f, base.counts[i])
    per = [int(c.sum()) for c in counts]
    return per, ScoreBase(starts=starts.copy(), counts=tuple(counts), touched=touched)


class CandidateScorer:
    """Scores placement candidates (start vectors) on the exact remap cost
    model, each delta-scored against the last one scored
    (:func:`_delta_misses`); the first replays every class.  Counts are
    exact either way, so a search's trajectory does not depend on what was
    scored before.

    ``evals`` counts every candidate scored, so a search's
    ``RefineStats.evals`` is read straight off the scorer (the A12 "equal
    eval budget" comparisons are only honest if nothing is missed).
    """

    def __init__(
        self, instance: PlacementInstance, targets: Sequence[PlacementTarget]
    ) -> None:
        self.instance = instance
        self.targets = normalize_targets(targets, block=instance.block)
        #: candidates scored so far
        self.evals = 0
        #: the last candidate scored, which the next one is scored against
        self._base: Optional[ScoreBase] = None

    def score(self, starts: np.ndarray) -> List[int]:
        """Per-target miss counts of one candidate, in target order: the raw
        material for any objective (weighted sum, minimax worst-case
        ratio).  Counts toward :attr:`evals`."""
        self.evals += 1
        per, self._base = _delta_misses(
            self.instance.obj_of_access, self.instance.block_offset,
            starts, self.targets, self._base,
        )
        return per


# ----------------------------------------------------------------------
# temporal-affinity conflict graph
# ----------------------------------------------------------------------
#: runs apart within which two objects conflict (see :func:`conflict_graph`)
CONFLICT_WINDOW = 8


def conflict_graph(instance: PlacementInstance) -> Dict[Tuple[int, int], float]:
    """Edge weights between object ids co-scheduled within
    :data:`CONFLICT_WINDOW` runs.

    The trace's object sequence is run-length compressed (a firing touches
    each object in one contiguous burst); two distinct objects whose runs
    fall within ``CONFLICT_WINDOW`` positions of each other get an edge,
    weighted ``CONFLICT_WINDOW - gap + 1`` so immediate neighbours
    dominate.  Stream arenas are excluded — they are not placeable.  High
    weight = mapping the pair to the same set is expensive.
    """
    n_obj = instance.n_objects
    seq = instance.obj_of_access[instance.obj_of_access < n_obj]
    weights: Dict[Tuple[int, int], float] = {}
    if seq.shape[0] == 0:
        return weights
    keep = np.ones(seq.shape[0], dtype=bool)
    keep[1:] = seq[1:] != seq[:-1]
    runs = seq[keep]
    for gap in range(1, min(CONFLICT_WINDOW, runs.shape[0] - 1) + 1):
        a, b = runs[gap:], runs[:-gap]
        mask = a != b
        if not mask.any():
            continue
        lo = np.minimum(a[mask], b[mask])
        hi = np.maximum(a[mask], b[mask])
        pair_key, counts = np.unique(lo * n_obj + hi, return_counts=True)
        w = float(CONFLICT_WINDOW - gap + 1)
        for k, c in zip(pair_key.tolist(), counts.tolist()):
            edge = (k // n_obj, k % n_obj)
            weights[edge] = weights.get(edge, 0.0) + w * c
    return weights


def _primary_target(targets: Sequence[PlacementTarget]) -> PlacementTarget:
    """The heaviest-weight target — what the constructive heuristics aim at
    (ties break toward the most conflict-prone organization)."""
    return max(targets, key=lambda t: (t[2], t[0].conflict_classes(t[1])))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def greedy_color_order(
    instance: PlacementInstance,
    geometry: CacheGeometry,
    policy: str = "direct",
    weights: Optional[Dict[Tuple[int, int], float]] = None,
) -> List[ObjectKey]:
    """Greedy set-coloring: grow the placement left to right, appending at
    each cursor position the unplaced object whose set span has the least
    conflict weight against the objects already covering those sets.  Hot
    objects (highest total conflict weight) break ties first, so they claim
    clean sets early.
    """
    sets = geometry.conflict_classes(policy)
    if sets <= 1:
        return list(instance.objects)
    if weights is None:
        weights = conflict_graph(instance)
    n_obj = instance.n_objects
    adj: List[Dict[int, float]] = [{} for _ in range(n_obj)]
    for (a, b), w in weights.items():
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[b].get(a, 0.0) + w

    block = instance.block
    nblocks = instance.nblocks
    lengths = instance.lengths
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
                    for other in covering[(start_blk + j) % sets]:
                        cost += neighbours.get(other, 0.0)
            if best_cost is None or cost < best_cost:
                best_oid, best_cost, best_pos = oid, cost, pos
        order_ids.append(best_oid)
        remaining.pop(best_pos)
        for j in range(min(int(nblocks[best_oid]), sets)):
            covering[(start_blk + j) % sets].add(best_oid)
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
    sets: int,
) -> int:
    """Worst per-set count of hot objects covering that set under
    ``starts`` — the capacitated-facility load the ``ways`` cap bounds."""
    load: Dict[int, int] = {}
    for oid in hot_ids:
        nb = int(instance.nblocks[oid])
        base = int(starts[oid])
        for j in range(min(nb, sets)):
            s = (base + j) % sets
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
    objective: str = "sum",
    prune: Optional[Sequence[int]] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """The one placement local search: sweep ``moves`` from ``(order, gaps)``
    on the exact remap cost model.

    A sweep walks ``moves`` in order, first improvement: each move legal in
    the current state is scored by one :class:`CandidateScorer` and applied
    when it strictly improves the objective (ties keep the current state).
    When the opposite of an accepted gap move comes next, it is skipped: it
    would re-test the state just left.  Sweeps repeat until one improves
    nothing or ``budget`` evals are spent.  ``objective="sum"`` minimizes
    the weighted miss sum; ``"minimax"`` minimizes ``(worst per-target miss
    ratio vs the seed layout, weighted sum)`` lexicographically and spends
    one eval on the seed.  ``prune`` turns on the per-set capacity
    constraint over those (hot) objects: a candidate whose worst per-set
    load at the primary target exceeds both its ``ways`` and the current
    state's load is dropped without an eval and counted by
    ``placement.pruned``.
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
    ids = _order_ids(instance, order)
    gap_vec = _gap_vector(instance, gaps)
    if gap_vec is None:
        gap_vec = np.zeros(instance.n_objects, dtype=np.int64)
    gap_total = int(gap_vec.sum())
    if gap_total > gap_budget:
        raise LayoutError(
            f"starting gaps use {gap_total} blocks, over gap_budget={gap_budget}"
        )
    scorer = CandidateScorer(instance, targets)
    targets = scorer.targets
    cap_geom, cap_policy, _w = _primary_target(targets)
    cap_sets = cap_geom.conflict_classes(cap_policy)
    cap_ways = 1 if cap_policy == "direct" else cap_geom.ways
    # a primary target with one set has no per-set capacity to exceed
    hot_ids = prune if prune is not None and cap_sets > 1 else ()
    pruned = 0
    seed_per: List[int] = []
    if objective == "minimax":
        seed_per = scorer.score(
            _placed_starts(instance, list(range(instance.n_objects)))
        )

    def key_of(per: Sequence[int]) -> Tuple[float, ...]:
        weighted = sum(w * m for (_g, _p, w), m in zip(targets, per))
        if objective == "minimax":
            worst = max(
                (_ratio(m, s) for m, s in zip(per, seed_per)), default=0.0
            )
            return (worst, weighted)
        return (weighted,)

    cur_starts = _placed_starts(instance, ids, gap_vec)
    cur_per = scorer.score(cur_starts)
    cur_key = key_of(cur_per)
    cur_load = _max_set_load(instance, cur_starts, hot_ids, cap_sets)
    trajectory: List[float] = [cur_key[0]]
    improved = True
    while improved and scorer.evals < budget:
        improved = False
        pos_of = {oid: p for p, oid in enumerate(ids)}
        pos = 0
        while pos < len(moves) and scorer.evals < budget:
            move = moves[pos]
            pos += 1
            out = _apply_move(move, ids, gap_vec, pos_of, gap_total, gap_budget)
            if out is None:
                continue
            new_ids, new_gap = out
            starts = _placed_starts(instance, new_ids, new_gap)
            load = _max_set_load(instance, starts, hot_ids, cap_sets)
            if hot_ids and load > max(cap_ways, cur_load):
                pruned += 1
                continue
            per = scorer.score(starts)
            key = key_of(per)
            if key < cur_key:  # strict: ties keep the current state
                ids, gap_vec, cur_load = new_ids, new_gap, load
                if move[0] == "gap":
                    gap_total += move[2]
                    # its opposite would re-test the state just left
                    if pos < len(moves) and moves[pos] == ("gap", move[1], -move[2]):
                        pos += 1
                cur_key, cur_per = key, per
                pos_of = {oid: p for p, oid in enumerate(ids)}
                improved = True
        if improved:
            trajectory.append(cur_key[0])
    stats = RefineStats(
        evals=scorer.evals, rounds=len(trajectory) - 1,
        trajectory=tuple(trajectory),
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
    targets: Sequence[PlacementTarget],
    budget: int = 400,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
    gap_budget: int = 0,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]:
    """FLIP-style local search over (order, gaps) on the true remap cost.

    Starting from ``order`` (and optionally ``gaps``), sweep two move kinds
    and keep each one that lowers the weighted miss sum over ``targets``
    (the exact cost model, so accepted moves are real improvements, never
    estimator noise):

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
    Returns ``(order, gaps, cost, stats)``: ``gaps`` maps object keys to
    their padding in blocks (zero entries omitted), ``stats`` is a
    :class:`RefineStats`.
    """
    if weights is None:
        weights = conflict_graph(instance)
    hot, _hot_ids = _hot_objects(weights, instance.n_objects)
    moves = _swap_moves(instance, weights) + _gap_moves(hot, gap_budget)
    with obs.span(obs_names.PLACEMENT_SEARCH):
        return _local_search(
            instance, order, targets, moves, budget, gap_budget=gap_budget,
            gaps=gaps,
        )


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
#: what :func:`optimize_instance` can run: the seed layout, the greedy
#: coloring, and four searches (the last three in :mod:`repro.mem.facility`)
STRATEGIES = ("topo", "color", "swap", "multiswap", "smoothed", "minimax")


@dataclass
class PlacementResult:
    """An optimized placement and its exact cost accounting.

    ``order`` and ``gaps`` feed straight into ``placement=`` / ``gaps=`` of
    :func:`~repro.runtime.compiled.compile_trace`,
    :meth:`~repro.runtime.executor.Executor.measure`, or
    :meth:`~repro.mem.layout.MemoryLayout.place_graph`.

    ``cost`` / ``seed_cost`` are the weighted miss sums over the targets;
    ``per_target`` / ``seed_per_target`` carry the individual miss counts
    in target order (the never-worse-at-every-target guarantee is stated
    on those).  ``searched_per_target`` holds the counts of the layout the
    strategy returned; it differs from ``per_target`` only when that layout
    regressed at some target and the seed was kept (:attr:`regressed`).
    """

    strategy: str
    order: List[ObjectKey]
    cost: float
    seed_cost: float
    gaps: Dict[ObjectKey, int] = field(default_factory=dict)
    targets: List[PlacementTarget] = field(default_factory=list)
    per_target: List[int] = field(default_factory=list)
    seed_per_target: List[int] = field(default_factory=list)
    searched_per_target: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fraction of the seed layout's (weighted) misses removed."""
        return 1.0 - self.cost / self.seed_cost if self.seed_cost else 0.0

    @property
    def regressed(self) -> List[int]:
        """Indices of the targets where the searched layout missed more
        than the seed: non-empty exactly when the search was rejected."""
        return [
            i for i, (c, s) in enumerate(
                zip(self.searched_per_target, self.seed_per_target)
            )
            if c > s
        ]

    @property
    def gap_blocks(self) -> int:
        """Total deliberate padding the placement spends, in blocks."""
        return sum(self.gaps.values())


def optimize_instance(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    strategy: str = "swap",
    budget: int = 400,
    gap_budget: int = 0,
    restarts: int = 4,
    noise: float = 0.25,
    seed: int = 0,
) -> PlacementResult:
    """Place ``instance`` by one of :data:`STRATEGIES` for the weighted
    miss sum over ``targets=[(geometry, policy, weight), ...]``.

    ``topo`` keeps the seed layout and ``color`` colors greedily for the
    heaviest target (:func:`greedy_color_order`).  The searches start from
    that coloring: ``swap`` (:func:`swap_refine`), ``multiswap``
    (:func:`repro.mem.facility.multiswap_refine`), and ``minimax``, which
    spends half of ``budget`` on a weighted-sum multiswap and the rest on
    the worst per-target ratio.  ``smoothed``
    (:func:`repro.mem.facility.smoothed_search`) colors each of its
    ``restarts`` under ``noise`` drawn from ``seed``.  A search is skipped
    when every target is fully associative: misses then cannot depend on
    the layout.

    The result is **never worse than the seed at any individual target**:
    a layout that regresses anywhere (the A7 cross-geometry failure mode)
    is discarded for the seed layout, counted as ``placement.rejected``,
    and :attr:`PlacementResult.regressed` names the targets it regressed.
    """
    # import cycle: repro.mem.facility imports this module
    from repro.mem.facility import multiswap_refine, smoothed_search

    if strategy not in STRATEGIES:
        raise LayoutError(
            f"unknown placement strategy {strategy!r}; choose from {list(STRATEGIES)}"
        )
    targets = normalize_targets(targets, block=instance.block)
    seed_order = list(instance.objects)
    seed_per = _target_misses(remap_blocks(instance, seed_order), targets)
    seed_cost = sum(w * m for (_, _, w), m in zip(targets, seed_per))
    order: List[ObjectKey] = seed_order
    gaps: Dict[ObjectKey, int] = {}
    geometry, policy, _w = _primary_target(targets)
    if strategy not in ("topo", "color") and budget < 1:
        raise LayoutError(f"budget must be >= 1, got {budget}")
    # misses at a fully associative target cannot depend on the layout
    movable = any(g.conflict_classes(p) > 1 for g, p, _w in targets)
    if strategy == "color":
        order = greedy_color_order(instance, geometry, policy=policy)
    elif strategy == "smoothed" and movable:
        order, gaps, _c, _s = smoothed_search(
            instance, targets, budget=budget, gap_budget=gap_budget,
            restarts=restarts, noise=noise, seed=seed,
        )
    elif strategy != "topo" and movable:
        weights = conflict_graph(instance)
        start = greedy_color_order(instance, geometry, policy=policy, weights=weights)
        if strategy == "swap":
            order, gaps, _c, _s = swap_refine(
                instance, start, targets, budget=budget, weights=weights,
                gap_budget=gap_budget,
            )
        elif strategy == "multiswap":
            order, gaps, _c, _s = multiswap_refine(
                instance, start, targets, budget=budget, weights=weights,
                gap_budget=gap_budget,
            )
        else:
            # minimax: a weighted-sum warmup drives every target down from
            # the start, then the minimax objective spends the rest on the
            # binding worst-case target; from a cold start its lexicographic
            # acceptance rejects most moves
            if budget < 3:
                raise LayoutError(
                    f"minimax needs budget >= 3 (one warmup eval, then the "
                    f"seed and the start under minimax), got {budget}"
                )
            warm = budget // 2
            order, gaps, _c, _s = multiswap_refine(
                instance, start, targets, budget=warm, weights=weights,
                gap_budget=gap_budget,
            )
            order, gaps, _c, _s = multiswap_refine(
                instance, order, targets, budget=budget - warm, weights=weights,
                gap_budget=gap_budget, gaps=gaps, objective="minimax",
            )
    searched = _target_misses(remap_blocks(instance, order, gaps=gaps), targets)
    per, cost = searched, sum(w * m for (_, _, w), m in zip(targets, searched))
    if any(c > s for c, s in zip(searched, seed_per)):
        # a layout worse at any one target is discarded for the seed, and
        # counted: PlacementResult.regressed names the targets
        obs.add(obs_names.PLACEMENT_REJECTED)
        order, gaps, cost, per = seed_order, {}, seed_cost, seed_per
    return PlacementResult(
        strategy=strategy, order=order, cost=cost, seed_cost=seed_cost,
        gaps=dict(gaps), targets=targets, per_target=list(per),
        seed_per_target=list(seed_per), searched_per_target=list(searched),
    )
