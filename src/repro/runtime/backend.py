"""Execution backends: serial / thread / process fan-out behind ``workers=``.

Everything the replay engine parallelizes is an ordered map — per-geometry
mask evaluation in :func:`repro.runtime.replay.replay_miss_masks`,
per-candidate scoring in the placement local search, per-query
evaluation in :func:`run_batch` — so this module centralizes one contract:

* **Ordering.**  Every backend returns results in the exact order of its
  inputs: ``fan_out(fn, items)[i] == fn(items[i])`` for all ``i``,
  regardless of which worker finished first.  (Pools preserve submission
  order by construction — ``Executor.map`` yields in input order — and the
  serial path is a list comprehension.)  Callers never re-sort.
* **Clamping.**  Pool width is ``min(workers, len(items), os.cpu_count())``
  (:func:`effective_workers`): a pool wider than the item list or the
  machine only adds startup cost.  Zero/negative/None worker counts mean
  "serial".
* **Three names** (:data:`BACKENDS`): ``"serial"`` never builds a pool;
  ``"thread"`` uses a thread pool (numpy releases the GIL inside the heavy
  ufuncs, so threads help exactly when the work is vectorized);
  ``"process"`` uses a process pool for Python-heavy work the GIL would
  serialize.  An explicitly requested process backend keeps its pool even
  at one worker — a distinct process either way, so differential tests
  exercise the real cross-process path on any machine.

**One replay path.**  :func:`replay_stats` is where
:func:`~repro.runtime.compiled.simulate_trace` replays: in process over
the chunk source, or on a process pool through :func:`process_sweep`,
whose one worker body (:func:`_replay_task`) replays a task of (chunk,
carry, geometry slice).  A pool that loses a worker falls back to the
in-process replay and counts ``replay.process_fallback``; any other worker
error raises.

**Shipping traces to workers.**  A compiled trace is one or two large flat
arrays (``int64`` block ids, ``uint8`` phase codes — often 100k+ accesses).
Pickling them per task would dwarf the work, so :class:`SharedTrace`
publishes them once into a :mod:`multiprocessing.shared_memory` segment and
workers reconstruct zero-copy ``np.ndarray`` views over the mapped buffer;
per-task payloads are chunk bounds, carries and geometry lists.  A
:class:`~repro.runtime.streaming.ChunkedTrace` ships segment paths
instead, which workers read straight off disk.  The placement scorer
(:class:`CandidateScorer`) does the same with the remap-instance arrays
(``obj_of_access``/``block_offset``): candidates ship as tiny per-object
start vectors, never as traces, each with the per-set miss counts of the
last candidate scored, which it is delta-scored against.

**Batch front door.**  :func:`run_batch` answers N
(graph, schedule, geometries, policy) queries the way a many-user service
must: queries are grouped by their content digest
(:func:`repro.runtime.trace_cache.trace_digest`), each distinct trace is
compiled **once** (through the persistent cache when one is configured),
geometry sweeps sharing a (trace, policy) pair are evaluated together so
the replay kernels' shared passes amortize across users, and evaluation
fans out over the selected backend.  Answers come back in query order.

Results are bit-identical across backends: the kernels are pure functions
of the chunk, its carry and the geometries, so where the map runs cannot
change what it computes — ``tests/test_backend.py`` pins this
differentially for every registered policy.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names

if TYPE_CHECKING:
    from repro.cache.base import CacheGeometry
    from repro.graphs.sdf import StreamGraph
    from repro.mem.layout import ObjectKey
    from repro.mem.placement import PlacementInstance, PlacementTarget, ScoreBase
    from repro.runtime.executor import ExecutionResult
    from repro.runtime.schedule import Schedule
    from repro.runtime.streaming import ArrayChunkSource, ChunkSource
    from repro.runtime.trace_cache import TraceCache

__all__ = [
    "BACKENDS",
    "normalize_backend",
    "effective_workers",
    "resolve",
    "configure",
    "default_chunk_words",
    "fan_out",
    "SharedTrace",
    "process_sweep",
    "replay_stats",
    "CandidateScorer",
    "geometry_sweep",
    "ServiceQuery",
    "ServiceAnswer",
    "run_batch",
]

#: The three execution backends, in "least machinery" order.
BACKENDS = ("serial", "thread", "process")


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

    ``None`` or a non-positive count means serial (width 1).  A pool wider
    than the item list idles from the first task; wider than the machine,
    it only adds scheduler pressure — neither can go faster.
    """
    if not workers or workers <= 1:
        return 1
    return max(1, min(int(workers), n_items, os.cpu_count() or 1))


_DEFAULTS: Dict[str, object] = {
    "backend": "thread",
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
    ``("thread", None, None)`` — reproduces the historical behaviour
    exactly: no pool unless a caller passes ``workers=``, monolithic replay
    unless a caller passes ``chunk_words=``.
    """
    previous = (
        str(_DEFAULTS["backend"]),
        _DEFAULTS["workers"],
        _DEFAULTS["chunk_words"],
    )
    if backend is not None:
        _DEFAULTS["backend"] = normalize_backend(backend)
    _DEFAULTS["workers"] = workers
    if chunk_words is not None and chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
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
    also ``None``, the configured default width).  An explicit ``"process"``
    request with no width gets every core; an unconfigured thread backend
    with no width stays serial (the pre-backend contract of ``workers=``).
    Returns ``(name, width)`` with width already clamped.
    """
    if backend is None:
        backend = str(_DEFAULTS["backend"])
        if workers is None:
            workers = _DEFAULTS["workers"]  # type: ignore[assignment]
        explicit = _DEFAULTS["workers"] is not None
    else:
        explicit = True
    backend = normalize_backend(backend)
    if backend == "serial":
        return "serial", 1
    if workers is None:
        if backend == "process" and explicit:
            workers = os.cpu_count() or 1
        else:
            return backend, 1
    width = effective_workers(workers, n_items)
    if width <= 1:
        # a process backend honoured at width 1 still crosses the process
        # boundary (differential tests rely on this); threads at width 1
        # are pure overhead and collapse to serial
        return ("process", 1) if backend == "process" else ("serial", 1)
    return backend, width


def _mp_context():
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()  # pragma: no cover - non-fork platforms


def fan_out(
    fn: Callable,
    items: Sequence,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List:
    """Ordered map: ``fan_out(fn, items)[i] == fn(items[i])``, always.

    The backend only chooses *where* each call runs; submission-order
    ``Executor.map`` (or the serial comprehension) guarantees the results
    come back in input order.  The process backend requires ``fn`` and each
    item to be picklable — module-level functions, not closures.
    """
    name, width = resolve(backend, workers, len(items))
    obs.add(obs_names.BACKEND_TASKS, len(items))
    obs.gauge(obs_names.BACKEND_WIDTH, width)
    with obs.span(obs_names.BACKEND_MAP, backend=name):
        if name == "serial" or width <= 1 and name != "process":
            return [fn(it) for it in items]
        if name == "thread":
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=width) as pool:
                return list(pool.map(fn, items))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=width, mp_context=_mp_context()) as pool:
            return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# shared-memory trace shipping
# ----------------------------------------------------------------------
class SharedTrace:
    """A compiled trace published once into shared memory.

    Layout: ``n * 8`` bytes of ``int64`` block ids, then (optionally) ``n``
    bytes of ``uint8`` phase codes, in one segment.  Workers attach by name
    and build zero-copy ``np.ndarray`` views (:func:`_attach_trace`) — the
    arrays are never pickled, no matter how many tasks replay them.  Use as
    a context manager; the parent unlinks the segment on exit.
    """

    def __init__(self, blocks: np.ndarray, phases: Optional[np.ndarray]) -> None:
        from multiprocessing import shared_memory

        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        self.n = int(blocks.shape[0])
        self.has_phases = phases is not None
        nbytes = self.n * 8 + (self.n if self.has_phases else 0)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        view = np.ndarray((self.n,), dtype=np.int64, buffer=self._shm.buf)
        view[:] = blocks
        if phases is not None:
            pview = np.ndarray(
                (self.n,), dtype=np.uint8, buffer=self._shm.buf, offset=self.n * 8
            )
            pview[:] = np.ascontiguousarray(phases, dtype=np.uint8)
        self.name = self._shm.name

    def close(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_WORKER_TRACE: Dict[str, object] = {}


def _attach_trace(shm_name: str, n: int, has_phases: bool) -> None:
    """Pool initializer: map the published trace into this worker, zero-copy.

    Workers never unlink (or unregister) the segment — its lifetime belongs
    to the parent's :class:`SharedTrace`, which unlinks once the pool is
    drained.  Attach-side registrations are set-idempotent in the resource
    tracker shared by the forked children, so the parent's single unlink
    leaves the books balanced.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER_TRACE["shm"] = shm  # keep the mapping alive for the views below
    _WORKER_TRACE["blocks"] = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    _WORKER_TRACE["phases"] = (
        np.ndarray((n,), dtype=np.uint8, buffer=shm.buf, offset=n * 8)
        if has_phases
        else None
    )


def _replay_task(
    task: Tuple[object, Optional[np.ndarray], List, str]
) -> List[Tuple[int, np.ndarray]]:
    """Worker body: replay one chunk under its carry for one geometry slice.

    The chunk is a segment path (a :class:`~repro.runtime.streaming.
    ChunkedTrace` chunk, loaded straight off disk — the cache's documented
    one-``.npz``-per-key layout) or ``(lo, hi)`` bounds into the trace the
    pool initializer attached (:func:`_attach_trace`).  Returns the reduced
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
        blocks = cast(np.ndarray, _WORKER_TRACE["blocks"])[lo:hi]
        all_phases = cast(Optional[np.ndarray], _WORKER_TRACE["phases"])
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
    memory once (:class:`SharedTrace`) and ships chunk bounds; a
    :class:`~repro.runtime.streaming.ChunkedTrace` ships segment paths.
    Per-task counts sum per geometry: bit-identical to the in-process
    replay.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.runtime.replay import recency_carry
    from repro.runtime.streaming import ChunkedTrace

    geoms = list(geometries)
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
        init: Dict[str, object] = {}
        if not on_disk:
            src = cast("ArrayChunkSource", source)
            shared = stack.enter_context(SharedTrace(src.blocks, src.phases))
            init = {
                "initializer": _attach_trace,
                "initargs": (shared.name, shared.n, shared.has_phases),
            }
        stack.enter_context(obs.span(obs_names.BACKEND_MAP, backend="process"))
        pool = stack.enter_context(ProcessPoolExecutor(
            max_workers=width, mp_context=_mp_context(), **init  # type: ignore[arg-type]
        ))
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
    :func:`~repro.runtime.replay.chunk_counts` reduces them; the thread
    backend threads each chunk's per-geometry evaluation.  The process
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
    chunks = replay_chunks(
        source, geoms, policy, width if name == "thread" else None
    )
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
_SCORER_STATE: Dict[str, object] = {}


def _attach_scorer(
    shm_name: str,
    n: int,
    targets: List[Tuple["CacheGeometry", str, float]],
    want_obs: bool,
    chunk_words: Optional[int] = None,
) -> None:
    """Pool initializer: map the remap-instance arrays; keep targets local."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _SCORER_STATE["shm"] = shm
    _SCORER_STATE["obj"] = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    _SCORER_STATE["off"] = np.ndarray(
        (n,), dtype=np.int64, buffer=shm.buf, offset=n * 8
    )
    _SCORER_STATE["targets"] = targets
    _SCORER_STATE["obs"] = want_obs
    _SCORER_STATE["chunk_words"] = chunk_words


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
            cast(np.ndarray, _SCORER_STATE["obj"]),
            cast(np.ndarray, _SCORER_STATE["off"]),
            starts, cast(List["PlacementTarget"], _SCORER_STATE["targets"]), base,
            chunk_words=cast(Optional[int], _SCORER_STATE.get("chunk_words")),
        )

    if _SCORER_STATE.get("obs"):
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
        self._pool = None
        if name == "process":
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import shared_memory

            obj = np.ascontiguousarray(instance.obj_of_access, dtype=np.int64)
            off = np.ascontiguousarray(instance.block_offset, dtype=np.int64)
            n = int(obj.shape[0])
            shm = shared_memory.SharedMemory(create=True, size=max(1, n * 16))
            np.ndarray((n,), dtype=np.int64, buffer=shm.buf)[:] = obj
            np.ndarray((n,), dtype=np.int64, buffer=shm.buf, offset=n * 8)[:] = off
            self._shm = shm
            self._pool = ProcessPoolExecutor(
                max_workers=width,
                mp_context=_mp_context(),
                initializer=_attach_scorer,
                # obs state is frozen at pool construction: enable
                # instrumentation before building the scorer
                initargs=(shm.name, n, self.targets, obs.is_enabled(), chunk_words),
            )
        else:
            self._shm = None

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
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self._shm = None

    def __enter__(self) -> "CandidateScorer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# batch front door
# ----------------------------------------------------------------------
def geometry_sweep(
    sizes: Iterable[int],
    block: int,
    ways: Optional[int] = None,
) -> List["CacheGeometry"]:
    """Service preset: one :class:`~repro.cache.base.CacheGeometry` per
    capacity."""
    from repro.cache.base import CacheGeometry

    return [CacheGeometry(size=int(s), block=int(block), ways=ways) for s in sizes]


@dataclass
class ServiceQuery:
    """One user's question: misses of ``policy`` at every geometry for this
    (graph, schedule, layout) — the unit :func:`run_batch` deduplicates."""

    graph: "StreamGraph"
    schedule: "Schedule"
    block: int
    geometries: Sequence
    policy: str = "lru"
    capacities: Optional[Dict[int, int]] = None
    layout_order: Optional[Sequence[str]] = None
    count_external: bool = True
    placement: Optional[Sequence["ObjectKey"]] = None
    gaps: Optional[Dict["ObjectKey", int]] = None
    #: per-query replay chunk size; ``None`` inherits ``run_batch``'s
    chunk_words: Optional[int] = None
    #: placement strategy to run before answering (``None``/``"topo"`` =
    #: measure the seed layout as-is; any other registered name —
    #: ``swap``/``multiswap``/``smoothed``/``minimax`` — optimizes the
    #: layout first and the query is answered under the result)
    layout: Optional[str] = None
    #: multi-geometry objective for ``layout``; defaults to every query
    #: geometry at ``policy`` with weight 1
    layout_targets: Optional[Sequence[Tuple]] = None
    #: eval budget of the ``layout`` search
    layout_budget: int = 400
    #: padding blocks the ``layout`` search may spend
    gap_budget: int = 0
    #: smoothed-search knobs (``layout="smoothed"``); ``None`` = defaults
    restarts: Optional[int] = None
    noise: Optional[float] = None
    seed: Optional[int] = None


@dataclass
class ServiceAnswer:
    """One query's results plus its provenance within the batch.

    ``trace_key`` is the content digest the trace was filed under;
    ``cache_hit`` says the compiled trace came off the persistent cache,
    ``deduped`` that an earlier query in the same batch already owned the
    trace (so this one compiled nothing at all).
    """

    index: int
    trace_key: str
    cache_hit: bool
    deduped: bool
    results: List["ExecutionResult"] = field(default_factory=list)


def _resolve_layout(
    q: ServiceQuery,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> ServiceQuery:
    """Run a query's requested placement strategy and pin the result.

    Returns the query unchanged when no optimization was asked for
    (``layout`` absent or ``"topo"``); otherwise runs
    :func:`repro.mem.placement.optimize_placement` — against
    ``layout_targets`` when given, else every query geometry at the query's
    policy, weight 1 — and returns a copy carrying the optimized
    ``placement``/``gaps`` (so batch dedup keys on the *resolved* layout:
    two queries that optimize to the same placement share one trace).
    """
    if q.layout in (None, "topo"):
        return q
    from dataclasses import replace

    from repro.mem.placement import optimize_placement

    targets = q.layout_targets
    if targets is None:
        targets = [(g, q.policy, 1.0) for g in q.geometries]
    res = optimize_placement(
        q.graph, q.schedule, strategy=q.layout, capacities=q.capacities,
        order=q.layout_order, targets=targets, budget=q.layout_budget,
        gap_budget=q.gap_budget, backend=backend, workers=workers,
        restarts=q.restarts, noise=q.noise, seed=q.seed,
    )
    return replace(q, placement=res.order, gaps=res.gaps, layout=None)


def run_batch(
    queries: Sequence[ServiceQuery],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    cache: Optional["TraceCache"] = None,
    chunk_words: Optional[int] = None,
) -> List[ServiceAnswer]:
    """Answer N queries with shared compilation, shared passes, one pool.

    0. Queries carrying a ``layout`` strategy (``swap``/``multiswap``/
       ``smoothed``/``minimax``) are resolved first
       (:func:`_resolve_layout`): the placement search runs under the
       query's targets and the query is answered — and deduplicated —
       under the optimized layout.
    1. Every query's compilation input is digested
       (:func:`repro.runtime.trace_cache.trace_digest`); queries with equal
       digests share one compiled trace — the batch compiles each distinct
       trace exactly once, through the persistent cache when ``cache`` (or
       a configured default) is present.
    2. Queries sharing a (trace, policy, chunk size) triple are evaluated
       in one replay call, concatenating their geometry lists so the
       kernels' shared passes (stack distances, set partitions) amortize
       across users.
    3. Evaluation fans out over ``backend``; answers return in query order,
       each tagged with its digest, cache-hit, and intra-batch dedup flags.

    ``chunk_words`` streams every replay in bounded-memory chunks
    (:mod:`repro.runtime.streaming`) — bit-identical answers; a query's own
    ``chunk_words`` overrides the batch-wide value.
    """
    from repro.runtime.compiled import simulate_trace
    from repro.runtime.trace_cache import cached_compile_trace, trace_digest

    with obs.span(obs_names.BATCH):
        obs.add(obs_names.BATCH_QUERIES, len(queries))
        queries = [
            _resolve_layout(q, backend=backend, workers=workers)
            for q in queries
        ]
        keys = [
            trace_digest(
                q.graph, q.schedule, q.block, capacities=q.capacities,
                layout_order=q.layout_order, count_external=q.count_external,
                placement=q.placement, gaps=q.gaps,
            )
            for q in queries
        ]
        # compile each distinct trace once, in first-appearance order
        traces: Dict[str, Tuple[object, bool]] = {}
        deduped = [False] * len(queries)
        for i, (q, key) in enumerate(zip(queries, keys)):
            if key in traces:
                deduped[i] = True
                continue
            trace, _key, was_hit = cached_compile_trace(
                q.graph, q.schedule, q.block, capacities=q.capacities,
                layout_order=q.layout_order, count_external=q.count_external,
                placement=q.placement, gaps=q.gaps, cache=cache, key=key,
            )
            traces[key] = (trace, was_hit)
        obs.add(obs_names.BATCH_DEDUPED, sum(deduped))

        # group evaluation by (trace, policy, chunk size): one replay call
        # per group — mixing chunked and monolithic sweeps over one trace
        # stays correct because the answers are bit-identical either way
        groups: Dict[Tuple[str, str, Optional[int]], List[int]] = {}
        for i, (q, key) in enumerate(zip(queries, keys)):
            eff = q.chunk_words if q.chunk_words is not None else chunk_words
            groups.setdefault((key, q.policy, eff), []).append(i)
        obs.add(obs_names.BATCH_GROUPS, len(groups))

        answers: List[Optional[ServiceAnswer]] = [None] * len(queries)
        for (key, policy, eff), idxs in groups.items():
            trace, was_hit = traces[key]
            geoms: List = []
            bounds = [0]
            for i in idxs:
                geoms.extend(queries[i].geometries)
                bounds.append(len(geoms))
            results = simulate_trace(
                trace, geoms, policy=policy, workers=workers, backend=backend,  # type: ignore[arg-type]
                chunk_words=eff,
            )
            for slot, i in enumerate(idxs):
                answers[i] = ServiceAnswer(
                    index=i,
                    trace_key=key,
                    cache_hit=was_hit,
                    deduped=deduped[i],
                    results=results[bounds[slot]:bounds[slot + 1]],
                )
        return [a for a in answers if a is not None]
