"""Execution backends: replay in the calling process, or on a process pool.

Everything this module parallelizes is an ordered map — per-geometry
replay in :func:`replay_stats` and per-candidate scoring in the placement
local search (:class:`CandidateScorer`) — so it centralizes one contract:

* **Ordering.**  Results come back in the exact order of their inputs,
  regardless of which worker finished first: ``Executor.map`` yields in
  submission order, and the in-process path is a plain loop.  Callers
  never re-sort.
* **Clamping.**  Pool width is ``min(workers, len(items), os.cpu_count())``
  (:func:`effective_workers`): a pool wider than the item list or the
  machine only adds startup cost.  A process backend given no width gets
  every core, clamped.
* **Two names** (:data:`BACKENDS`): ``"serial"`` runs the replay kernels in
  the calling process and never builds a pool; ``"process"`` uses a
  process pool.  A process backend keeps its pool even at one worker — a
  distinct process either way, so differential tests exercise the real
  cross-process path on any machine.

**One replay path.**  :func:`replay_stats` is where
:func:`~repro.runtime.compiled.simulate_trace` replays: in process over
the chunk source, or on a process pool through :func:`process_sweep`,
whose one worker body (:func:`_replay_task`) replays a task of (chunk,
carry, geometry slice).  A pool that loses a worker falls back to the
in-process replay and counts ``replay.process_fallback``; any other worker
error raises.

**Shipping arrays to workers.**  A compiled trace is one or two large flat
arrays (``int64`` block ids, ``uint8`` phase codes — often 100k+ accesses).
Pickling them per task would dwarf the work, so both pools publish their
big arrays once through one publisher, :class:`SharedArrays`: one
:mod:`multiprocessing.shared_memory` segment, which the one pool
initializer (:func:`_attach`) maps into each worker as zero-copy
``np.ndarray`` views.  The replay pool publishes the trace and ships chunk
bounds, carries and geometry lists per task; a
:class:`~repro.runtime.streaming.ChunkedTrace` ships segment paths instead,
which workers read straight off disk.  The placement scorer publishes the
remap-instance arrays (``obj_of_access``/``block_offset``): candidates ship
as tiny per-object start vectors, never as traces, each with the per-set
miss counts of the last candidate scored, which it is delta-scored against.

Results are bit-identical across backends: the kernels are pure functions
of the chunk, its carry and the geometries, so where the map runs cannot
change what it computes — ``tests/test_backend.py`` pins this
differentially for every registered policy.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.mem.placement import PlacementInstance, PlacementTarget, ScoreBase
    from repro.runtime.streaming import ArrayChunkSource, ChunkSource

__all__ = [
    "BACKENDS",
    "normalize_backend",
    "effective_workers",
    "resolve",
    "configure",
    "default_chunk_words",
    "SharedArrays",
    "process_sweep",
    "replay_stats",
    "CandidateScorer",
]

#: The two execution backends, in "least machinery" order.
BACKENDS = ("serial", "process")


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def normalize_backend(backend: str) -> str:
    """Validate a backend name against :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise CacheConfigError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    return backend


def effective_workers(workers: Optional[int], n_items: int) -> int:
    """The pool width actually worth building:
    ``min(workers, n_items, os.cpu_count())``, floored at 1.

    ``None`` or a non-positive count means width 1.  A pool wider
    than the item list idles from the first task; wider than the machine,
    it only adds scheduler pressure — neither can go faster.
    """
    if not workers or workers <= 1:
        return 1
    return max(1, min(int(workers), n_items, os.cpu_count() or 1))


_DEFAULTS: Dict[str, object] = {
    "backend": "serial",
    "workers": None,
    "chunk_words": None,
}


def configure(
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
) -> Tuple[str, Optional[int], Optional[int]]:
    """Set the process-wide default ``(backend, workers, chunk_words)``.

    This is what the CLI's ``--backend``/``--workers``/``--chunk-words``
    flags install so experiment drivers (which take no backend parameters)
    inherit the choice.  Returns the previous triple so callers can restore
    it (``configure(*previous)``).  The initial default —
    ``("serial", None, None)`` — builds no pool and replays monolithically
    unless a caller passes ``backend=``/``chunk_words=``.
    """
    if chunk_words is not None and chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
    previous = (
        str(_DEFAULTS["backend"]),
        _DEFAULTS["workers"],
        _DEFAULTS["chunk_words"],
    )
    if backend is not None:
        _DEFAULTS["backend"] = normalize_backend(backend)
    _DEFAULTS["workers"] = workers
    _DEFAULTS["chunk_words"] = chunk_words
    return previous  # type: ignore[return-value]


def default_chunk_words() -> Optional[int]:
    """The configured default replay chunk size, or ``None`` (monolithic).

    :func:`repro.runtime.compiled.simulate_trace` consults this whenever a
    caller passes no explicit ``chunk_words=``, so installing a default
    (the CLI's ``--chunk-words``) streams every replay in the process.
    """
    value = _DEFAULTS["chunk_words"]
    return None if value is None else int(value)  # type: ignore[arg-type]


def resolve(
    backend: Optional[str], workers: Optional[int], n_items: int
) -> Tuple[str, int]:
    """Resolve ``(backend, workers)`` call parameters to a concrete plan.

    ``backend=None`` reads the configured default (and, when ``workers`` is
    also ``None``, the configured default width).  A process backend with
    no width gets every core, whether the caller or :func:`configure`
    chose it.  Returns ``(name, width)`` with width already clamped; a
    process backend keeps its pool at width 1 (differential tests rely on
    crossing the process boundary).
    """
    if backend is None:
        backend = str(_DEFAULTS["backend"])
        if workers is None:
            workers = _DEFAULTS["workers"]  # type: ignore[assignment]
    if normalize_backend(backend) == "serial":
        return "serial", 1
    if workers is None:
        workers = os.cpu_count()
    return "process", effective_workers(workers, n_items)


# ----------------------------------------------------------------------
# shared-memory array shipping
# ----------------------------------------------------------------------
class SharedArrays:
    """Named flat arrays published once into one shared-memory segment.

    ``SharedArrays(blocks=..., phases=None)`` copies every array that is
    not ``None`` into the segment, each at an 8-byte-aligned offset, and
    records its ``layout``: one ``(name, dtype, length, offset)`` per
    array.  A pool built by :func:`_process_pool` over it runs
    :func:`_attach` in each worker, which maps the segment and rebuilds
    zero-copy ``np.ndarray`` views by that layout — the arrays are never
    pickled, no matter how many tasks read them.  Use as a context manager
    (or call :meth:`close`); the parent unlinks the segment.
    """

    def __init__(self, **arrays: Optional[np.ndarray]) -> None:
        from multiprocessing import shared_memory

        parts = [
            (name, np.ascontiguousarray(a)) for name, a in arrays.items()
            if a is not None
        ]
        self.layout: List[Tuple[str, str, int, int]] = []
        size = 0
        for name, a in parts:
            self.layout.append((name, a.dtype.str, int(a.shape[0]), size))
            size += -(-a.nbytes // 8) * 8
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        for (_name, dtype, n, offset), (_key, a) in zip(self.layout, parts):
            np.ndarray((n,), dtype=dtype, buffer=self._shm.buf, offset=offset)[:] = a
        self.name = self._shm.name

    def close(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: What a pool worker sees: the arrays and state :func:`_attach` installed.
_WORKER: Dict[str, object] = {}


def _attach(
    name: str,
    layout: Sequence[Tuple[str, str, int, int]],
    state: Dict[str, object],
) -> None:
    """Pool initializer: map the published segment into this worker,
    zero-copy, and install ``state`` beside its arrays in :data:`_WORKER`.

    Workers never unlink (or unregister) the segment — its lifetime belongs
    to the parent's :class:`SharedArrays`, which unlinks once the pool is
    drained.  Attach-side registrations are set-idempotent in the resource
    tracker shared by the forked children, so the parent's single unlink
    leaves the books balanced.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    _WORKER["shm"] = shm  # keep the mapping alive for the views below
    for key, dtype, n, offset in layout:
        _WORKER[key] = np.ndarray((n,), dtype=dtype, buffer=shm.buf, offset=offset)
    _WORKER.update(state)


def _process_pool(
    width: int, shared: Optional[SharedArrays] = None, **state: object
) -> "ProcessPoolExecutor":
    """A ``width``-process pool, forked where the platform can.  With
    ``shared``, each worker runs :func:`_attach` and finds those arrays and
    ``state`` in :data:`_WORKER`."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None
    if shared is None:
        return ProcessPoolExecutor(max_workers=width, mp_context=ctx)
    return ProcessPoolExecutor(
        max_workers=width, mp_context=ctx, initializer=_attach,
        initargs=(shared.name, shared.layout, state),
    )


def _replay_task(
    task: Tuple[object, Optional[np.ndarray], List, str]
) -> List[Tuple[int, np.ndarray]]:
    """Worker body: replay one chunk under its carry for one geometry slice.

    The chunk is a segment path (a :class:`~repro.runtime.streaming.
    ChunkedTrace` chunk, loaded straight off disk — the cache's documented
    one-``.npz``-per-key layout) or ``(lo, hi)`` bounds into the trace the
    pool initializer attached (:func:`_attach`).  Returns the reduced
    per-geometry ``(misses, phase counts)``, never the masks, so nothing
    big crosses back.
    """
    from repro.runtime.compiled import PHASE_NAMES
    from repro.runtime.replay import chunk_counts, replay_chunks
    from repro.runtime.streaming import ArrayChunkSource

    chunk, carry, geometries, policy = task
    if isinstance(chunk, str):
        with np.load(chunk, allow_pickle=False) as data:
            blocks = np.asarray(data["blocks"], dtype=np.int64)
            phases = (
                np.asarray(data["phases"], dtype=np.uint8)
                if "phases" in data.files
                else None
            )
    else:
        lo, hi = cast(Tuple[int, int], chunk)
        blocks = cast(np.ndarray, _WORKER["blocks"])[lo:hi]
        all_phases = cast(Optional[np.ndarray], _WORKER.get("phases"))
        phases = None if all_phases is None else all_phases[lo:hi]
    source = ArrayChunkSource(blocks, phases, chunk_words=int(blocks.shape[0]))
    chunks = replay_chunks(source, geometries, policy, carry=carry)
    return chunk_counts(chunks, len(geometries), len(PHASE_NAMES))


def _chunk_slices(n_items: int, width: int) -> List[Tuple[int, int]]:
    """Contiguous, order-preserving chunk bounds: one-ish chunk per worker."""
    n_chunks = min(max(1, width), n_items)
    bounds = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def process_sweep(
    source: "ChunkSource",
    geometries: Sequence,
    policy: str,
    workers: int,
) -> List[Tuple[int, np.ndarray]]:
    """Per-geometry ``(misses, phase counts)`` of ``policy`` over
    ``source``, on a process pool.

    Every task is ``(chunk, carry, geometry slice)``, replayed by one
    worker body (:func:`_replay_task`).  A one-chunk source splits the
    geometry list over the pool (every policy).  A longer source ships each
    chunk with every geometry and the recency carry
    (:func:`~repro.runtime.replay.recency_carry`) the parent folds in front
    of it — cheap and sequential, while the workers do the distance passes;
    only lru and direct resume from such a carry, so the caller sends no
    other policy this way.  An in-memory source is published to shared
    memory once (:class:`SharedArrays`) and ships chunk bounds; a
    :class:`~repro.runtime.streaming.ChunkedTrace` ships segment paths.
    Per-task counts sum per geometry: bit-identical to the in-process
    replay.
    """
    from repro.runtime.replay import recency_carry
    from repro.runtime.streaming import ChunkedTrace

    geoms = list(geometries)
    if not geoms:
        return []
    n_chunks = source.n_chunks
    if n_chunks == 1:
        plan = [(0, None, lo, hi) for lo, hi in _chunk_slices(len(geoms), workers)]
    else:
        plan = []
        carry = np.zeros(0, dtype=np.int64)
        for i in range(n_chunks):
            plan.append((i, carry, 0, len(geoms)))
            blocks, _phases = source.chunk(i)  # heals a bad segment first
            carry = recency_carry(carry, blocks)
    on_disk = isinstance(source, ChunkedTrace)
    refs: List[object] = (
        [str(source.segment_path(i)) for i in range(n_chunks)]
        if on_disk else list(source.chunk_bounds())
    )
    tasks = [(refs[i], carry, geoms[lo:hi], policy) for i, carry, lo, hi in plan]
    width = min(workers, len(tasks))
    obs.add(obs_names.BACKEND_TASKS, len(tasks))
    obs.gauge(obs_names.BACKEND_WIDTH, width)
    with contextlib.ExitStack() as stack:
        shared: Optional[SharedArrays] = None
        if not on_disk:
            src = cast("ArrayChunkSource", source)
            shared = stack.enter_context(
                SharedArrays(blocks=src.blocks, phases=src.phases)
            )
        stack.enter_context(obs.span(obs_names.BACKEND_MAP, backend="process"))
        pool = stack.enter_context(_process_pool(width, shared))
        results = list(pool.map(_replay_task, tasks))
    sums: List[Tuple[int, np.ndarray]] = [(0, 0)] * len(geoms)  # type: ignore[list-item]
    for (_i, _carry, lo, _hi), stats in zip(plan, results):
        for gi, (m, c) in enumerate(stats, lo):
            sums[gi] = (sums[gi][0] + m, sums[gi][1] + c)
    return sums


def replay_stats(
    source: "ChunkSource",
    geometries: Sequence,
    policy: str = "lru",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[Tuple[int, np.ndarray]]:
    """Per-geometry ``(misses, phase counts)`` of ``policy`` over every
    chunk of ``source``, on the resolved backend (:func:`resolve`).

    In process, the kernel replays the chunks in order and
    :func:`~repro.runtime.replay.chunk_counts` reduces them.  The process
    backend runs :func:`process_sweep` when the source is one chunk, or
    when it is longer and ``policy`` resumes from a recency carry (lru,
    direct); other replays stay in process.  A pool that loses a worker
    falls back to the in-process replay — the same answer — and counts
    ``replay.process_fallback``; any other worker error raises.  Counts
    ``stream.chunks`` once per chunk of ``source`` on every path.
    """
    from repro.runtime.compiled import PHASE_NAMES
    from repro.runtime.replay import chunk_counts, replay_chunks

    geoms = list(geometries)
    n_chunks = source.n_chunks
    name, width = resolve(backend, workers, max(len(geoms), n_chunks))
    # built first so an unknown policy fails here, never in a worker
    chunks = replay_chunks(source, geoms, policy)
    obs.add(obs_names.STREAM_CHUNKS, n_chunks)
    if name == "process" and geoms and (
        n_chunks == 1 or (n_chunks > 1 and policy in ("lru", "direct"))
    ):
        from concurrent.futures.process import BrokenProcessPool

        try:
            return process_sweep(source, geoms, policy, width)
        except BrokenProcessPool:
            # a dead worker falls back to the in-process replay — same
            # answer, one process — and is counted, never silent
            obs.add(obs_names.REPLAY_PROCESS_FALLBACK)
    return chunk_counts(chunks, len(geoms), len(PHASE_NAMES))


# ----------------------------------------------------------------------
# placement candidate scoring
# ----------------------------------------------------------------------
def _score_candidate_remote(
    task: Tuple[int, np.ndarray, Optional["ScoreBase"]]
) -> Tuple[int, List[int], "ScoreBase", Optional[Dict]]:
    """Worker body: per-target miss counts of one candidate's start vector,
    delta-scored against the base the parent shipped with the task.

    Returns the raw per-target counts (the parent folds them into whatever
    objective the search runs — weighted sum, worst-case ratio), the
    candidate's own base, and the candidate's obs delta when the parent had
    instrumentation enabled at pool construction.
    """
    from repro.mem.placement import _delta_misses

    index, starts, base = task

    def _score() -> Tuple[List[int], "ScoreBase"]:
        return _delta_misses(
            cast(np.ndarray, _WORKER["obj"]),
            cast(np.ndarray, _WORKER["off"]),
            starts, cast(List["PlacementTarget"], _WORKER["targets"]), base,
            chunk_words=cast(Optional[int], _WORKER["chunk_words"]),
        )

    if _WORKER["obs"]:
        with obs.capture(enabled=True) as cap:
            per, new_base = _score()
        return index, per, new_base, cap.snapshot
    per, new_base = _score()
    return index, per, new_base, None


class CandidateScorer:
    """Scores placement candidates — (order, gaps) start vectors — on the
    exact remap cost model, optionally across a process pool.

    Scoring is incremental: the scorer keeps the last candidate's per-class
    miss counts for every target (a :class:`~repro.mem.placement.ScoreBase`)
    and scores the next candidate against it, replaying only the cache sets
    (frames, for direct-mapped targets) the difference dirties
    (:func:`repro.mem.placement._delta_misses`).  The first candidate is the
    same function with every class dirty.  Counts are exact either way, so
    the search trajectory does not depend on what was scored before.

    The instance's ``obj_of_access``/``block_offset`` arrays (one entry per
    trace access — the big data) are published to shared memory once at
    construction; each candidate ships as its ``starts`` vector (one entry
    per object — tiny).  Serial and process scoring are bit-identical, so a
    search driven by this scorer takes the same trajectory on every
    backend; only wall-time changes.  Use as a context manager or call
    :meth:`close` — the pool and segment live until then.

    ``evals`` counts every candidate ever scored through this scorer, on
    every backend, so a search's ``RefineStats.evals`` is read straight
    off the scorer (the A12 "equal eval budget" comparisons are only
    honest if nothing is missed).
    """

    def __init__(
        self,
        instance: "PlacementInstance",
        targets: Sequence["PlacementTarget"],
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        chunk_words: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self.targets = list(targets)
        self.chunk_words = chunk_words
        #: candidates scored so far (every backend, every score call)
        self.evals = 0
        #: the last candidate scored, which the next one is scored against
        self._base: Optional["ScoreBase"] = None
        name, width = resolve(backend, workers, os.cpu_count() or 1)
        self._pool: Optional["ProcessPoolExecutor"] = None
        self._shared: Optional[SharedArrays] = None
        if name == "process":
            self._shared = SharedArrays(
                obj=np.asarray(instance.obj_of_access, dtype=np.int64),
                off=np.asarray(instance.block_offset, dtype=np.int64),
            )
            # obs state is frozen at pool construction: enable
            # instrumentation before building the scorer
            self._pool = _process_pool(
                width, self._shared, targets=self.targets,
                obs=obs.is_enabled(), chunk_words=chunk_words,
            )

    def score_per(self, starts_list: Sequence[np.ndarray]) -> List[List[int]]:
        """Per-target miss counts, one list per candidate, in candidate
        order — the raw material for any objective (weighted sum, minimax
        worst-case ratio).  Counts toward :attr:`evals`."""
        self.evals += len(starts_list)
        if self._pool is None:
            from repro.mem.placement import _delta_misses

            out: List[List[int]] = []
            for starts in starts_list:
                per, self._base = _delta_misses(
                    self.instance.obj_of_access, self.instance.block_offset,
                    starts, self.targets, self._base,
                    chunk_words=self.chunk_words,
                )
                out.append(per)
            return out
        # every task is scored against the same shipped base; the batch's
        # last candidate becomes the next base
        tasks = [(i, starts, self._base) for i, starts in enumerate(starts_list)]
        out_arr: List[List[int]] = [[] for _ in tasks]
        obs.add(obs_names.BACKEND_TASKS, len(tasks))
        with obs.span(obs_names.BACKEND_MAP, backend="process"):
            # pool.map yields in submission order, so worker deltas merge
            # deterministically — same totals as the serial score path
            for i, per, base, snap in self._pool.map(
                _score_candidate_remote, tasks
            ):
                out_arr[i] = per
                self._base = base
                if snap is not None:
                    obs.merge(snap)
        return out_arr

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def __enter__(self) -> "CandidateScorer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
