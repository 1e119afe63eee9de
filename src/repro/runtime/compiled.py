"""Trace compilation: schedules -> flat block traces -> every geometry at once.

The :class:`~repro.runtime.executor.Executor` simulates one (schedule,
cache geometry) pair at a time, paying an OrderedDict operation per block
touch.  But the *block trace* a schedule generates does not depend on the
cache size at all — only on the memory layout (hence the block size ``B``)
— and fully-associative LRU is a stack algorithm, so one trace answers
every cache size in a single Mattson stack-distance pass
(:mod:`repro.analysis.misscurve`).  This module exploits both facts:

* :class:`TraceCompiler` compiles a schedule (flat
  :class:`~repro.runtime.schedule.Schedule` or lazy
  :class:`~repro.runtime.looped.LoopedSchedule`) against the same
  :class:`~repro.mem.layout.MemoryLayout` the executor would build, into a
  flat numpy array of block ids.  Each module's per-firing touch list is
  precomputed: its state blocks are a fixed array, and every circular-buffer
  window's block expansion is memoized by its address ranges (a buffer of
  capacity ``c`` only ever exposes ``c`` distinct windows per rate), so the
  per-firing work is a few dict lookups and array appends instead of
  per-block simulation.
* :func:`simulate_trace` answers a whole family of cache geometries from
  one compiled trace, for any replacement policy registered in
  :mod:`repro.cache.policy`, by dispatching to the vectorized replay
  kernels of :mod:`repro.runtime.replay`: fully-associative LRU (one
  Mattson stack-distance pass), set-associative LRU (per-set stack
  distances on the set-grouped trace), direct-mapped (per-frame last-block
  scan), OPT/Belady (a truncated priority-stack pass answering every swept
  capacity at once), and two-level hierarchies (``policy="two_level"``
  with :class:`~repro.cache.hierarchy.TwoLevelGeometry` sweep points: an
  L1 pass emits the miss sub-trace a second L2 pass replays).  Results are
  :class:`~repro.runtime.executor.ExecutionResult` rows identical — misses,
  accesses, and per-phase attribution — to running the stepwise engine per
  geometry.  ``workers=`` fans the per-geometry evaluation out over a
  thread pool after the shared distance passes.
* :func:`measure_compiled` is the drop-in replacement for
  ``Executor.measure`` on any replay-capable policy.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block-id arrays are ``int64`` (the replay
kernels' input type), per-access phase codes are ``uint8`` (three codes),
and any per-access flag masks are ``bool``.  Every array constructor in
this module passes its dtype explicitly so a refactor cannot silently
change what the kernels replay.

Which path is vectorized, which is reference: the compiled replay above is
the production path for every geometry sweep — every registered policy has
a replay kernel; the stepwise engines — the
:class:`~repro.runtime.executor.Executor` driving a
:class:`~repro.cache.lru.LRUCache` / :class:`~repro.cache.direct.DirectMappedCache`
/ :class:`~repro.cache.hierarchy.TwoLevelCache`, and the heap-based
:func:`~repro.cache.opt.simulate_opt` — remain the differential-test
oracles.  :func:`repro.testing.oracles.assert_trace_equivalent` checks
executor and compiler agree block-for-block, and ``tests/test_replay.py``
plus ``tests/test_hierarchy_replay.py`` diff every replay kernel against
its stepwise oracle on random traces.  The data flow — schedule to trace
to sweep — is drawn end to end in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import CacheConfigError
from repro.graphs.sdf import Channel, StreamGraph
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.mem.layout import ObjectKey
from repro.runtime.buffers import ChannelBuffer
from repro.runtime.looped import Loop, LoopedSchedule
from repro.runtime.executor import (
    ExecutionResult,
    build_memory_plan,
    require_input_tokens,
    require_output_space,
    sink_stream_words,
    source_stream_words,
)
from repro.runtime.schedule import Schedule

if TYPE_CHECKING:  # runtime import would cycle: streaming builds on this module
    from repro.runtime.streaming import ChunkedTrace

__all__ = [
    "CompiledTrace",
    "TraceCompiler",
    "compile_trace",
    "compile_trace_uncached",
    "simulate_trace",
    "measure_compiled",
]

#: Phase codes stored per block touch; index into ``PHASE_NAMES`` (0 = none).
PHASE_NAMES = ("", "state", "data", "stream")
_STATE, _DATA, _STREAM = 1, 2, 3

#: accesses a chunked compilation may hold uncut while it looks for a
#: loop's period (the period must sit in memory to be repeated)
_PERIOD_PROBE_WORDS = 1 << 16

_Chunk = Tuple[np.ndarray, np.ndarray]


@dataclass
class CompiledTrace:
    """A schedule lowered to its cache-size-independent block trace.

    ``blocks[i]`` is the i-th block id touched (exactly the sequence a
    :class:`~repro.mem.trace.TracingCache` would record from the executor);
    ``phases[i]`` attributes the touch to state/data/stream.  ``phases`` may
    be ``None`` for traces recorded without attribution.

    ``period`` is ``(start, length, repeats)`` when the compiler found a
    looped schedule's period: for ``0 <= j < repeats`` the ``length``
    accesses from ``start + j * length`` are the first period's blocks plus
    ``j`` times a per-access stream shift (zero off the external streams),
    with the same phases.  :func:`simulate_trace` uses it to answer lru and
    direct geometries from two short slices.
    """

    label: str
    block: int
    blocks: np.ndarray
    phases: Optional[np.ndarray] = None
    firings: int = 0
    fire_counts: Dict[str, int] = field(default_factory=dict)
    source_fires: int = 0
    sink_fires: int = 0
    period: Optional[Tuple[int, int, int]] = None

    @property
    def accesses(self) -> int:
        return int(self.blocks.shape[0])

    def distinct_blocks(self) -> int:
        """Compulsory-miss floor of the trace."""
        return int(np.unique(self.blocks).shape[0])

    def __len__(self) -> int:
        return self.accesses


class _ChannelPlan:
    """A real :class:`~repro.runtime.buffers.ChannelBuffer` plus a memoized
    range→block-id expansion.

    The buffer owns all circular-FIFO semantics (the same object the
    executor uses), so the compiled trace cannot drift from the stepwise
    path; compilation only adds a cache from the buffer's returned address
    ranges to the block-id array they span.  A buffer of capacity ``c``
    exposes at most ``c`` distinct windows per direction, so the cache
    stays small and hits on every steady-state firing.
    """

    __slots__ = ("buf", "src", "dst", "in_rate", "out_rate", "_block", "_cache")

    def __init__(self, ch: Channel, buf: ChannelBuffer, block: int) -> None:
        self.buf = buf
        self.src = ch.src
        self.dst = ch.dst
        self.in_rate = ch.in_rate
        self.out_rate = ch.out_rate
        self._block = block
        self._cache: Dict[tuple, np.ndarray] = {}

    def _blocks(self, ranges: Iterable[Tuple[int, int]]) -> np.ndarray:
        key = tuple(ranges)
        arr = self._cache.get(key)
        if arr is None:
            B = self._block
            ids: List[int] = []
            for start, length in ranges:
                ids.extend(range(start // B, (start + length - 1) // B + 1))
            arr = self._cache[key] = np.asarray(ids, dtype=np.int64)
        return arr

    def pop_blocks(self) -> np.ndarray:
        return self._blocks(self.buf.pop_ranges(self.in_rate))

    def push_blocks(self) -> np.ndarray:
        return self._blocks(self.buf.push_ranges(self.out_rate))


class _ModulePlan:
    """Precomputed per-firing touch template for one module."""

    __slots__ = ("name", "state_blocks", "ins", "outs", "in_words", "out_words")

    def __init__(self, name: str) -> None:
        self.name = name
        self.state_blocks: Optional[np.ndarray] = None
        self.ins: List[_ChannelPlan] = []
        self.outs: List[_ChannelPlan] = []
        self.in_words = 0   # external input words per firing (sources)
        self.out_words = 0  # external output words per firing (sinks)


class _TraceWriter:
    """Collects compiled touches and cuts them into ``chunk_words`` chunks.

    Firings append block arrays to ``parts`` with one phase code each
    (``codes``/``lens``, expanded by one ``np.repeat`` when settled); whole
    arrays, such as repeated periods, come in through :meth:`add`.
    ``held`` keeps settled ``(blocks, phases)`` pairs not yet yielded, and
    ``pending`` counts every access held either way.  The per-firing loop
    cuts once ``pending`` reaches ``threshold``: ``chunk_words``, raised
    while a loop's period is sought, and ``None`` (never) when monolithic.
    """

    __slots__ = (
        "chunk_words", "threshold", "parts", "codes", "lens", "held",
        "pending", "emitted", "cuts",
    )

    def __init__(self, chunk_words: Optional[int]) -> None:
        self.chunk_words = chunk_words
        self.threshold = chunk_words
        self.parts: List[np.ndarray] = []
        self.codes: List[int] = []
        self.lens: List[int] = []
        self.held: List[_Chunk] = []
        self.pending = 0
        self.emitted = 0
        self.cuts = 0

    def settle(self) -> None:
        """Turn the per-firing parts into one held array pair."""
        if self.parts:
            self.held.append((
                np.concatenate(self.parts),
                np.repeat(
                    np.asarray(self.codes, dtype=np.uint8),
                    np.asarray(self.lens, dtype=np.int64),
                ),
            ))
            self.parts, self.codes, self.lens = [], [], []

    def add(self, blocks: np.ndarray, phases: np.ndarray) -> None:
        self.settle()
        self.held.append((blocks, phases))
        self.pending += int(blocks.shape[0])

    def _joined(self) -> _Chunk:
        self.settle()
        if len(self.held) == 1:
            return self.held[0]
        if not self.held:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
        return (
            np.concatenate([b for b, _p in self.held]),
            np.concatenate([p for _b, p in self.held]),
        )

    def _full_chunks(
        self, blocks: np.ndarray, phases: np.ndarray, cw: int
    ) -> Generator[_Chunk, None, int]:
        """Yield every full chunk of the arrays; return where the
        remainder starts."""
        lo = 0
        while blocks.shape[0] - lo >= cw:
            yield blocks[lo:lo + cw], phases[lo:lo + cw]
            self.emitted += cw
            lo += cw
        return lo

    def cut(self) -> Iterator[_Chunk]:
        """Yield every full chunk held and keep the remainder (nothing to
        cut when monolithic)."""
        if self.chunk_words is None:
            return
        blocks, phases = self._joined()
        lo = yield from self._full_chunks(blocks, phases, self.chunk_words)
        # copies release the concatenated buffer once consumers drop
        # their chunk views, keeping the high-water mark at
        # O(chunk_words), not O(flushes)
        self.held = [(blocks[lo:].copy(), phases[lo:].copy())]
        self.pending = int(blocks.shape[0]) - lo
        self.cuts += 1

    def finish(self) -> Iterator[_Chunk]:
        """Yield everything held: one chunk when monolithic, else full
        chunks and then the remainder."""
        blocks, phases = self._joined()
        self.held, self.pending = [], 0
        lo = 0
        if self.chunk_words is not None:
            lo = yield from self._full_chunks(blocks, phases, self.chunk_words)
            if blocks.shape[0] == lo:
                return
        self.emitted += int(blocks.shape[0]) - lo
        yield blocks[lo:], phases[lo:]


class TraceCompiler:
    """Compiles schedules for one (graph, block size, capacities, layout).

    Shares the executor's memory setup
    (:func:`~repro.runtime.executor.build_memory_plan`) and its actual
    :class:`~repro.runtime.buffers.ChannelBuffer` objects, so the compiled
    trace is bit-identical to what a tracing cache would record.  The cache
    *size* is deliberately absent: one compiled trace serves every size via
    :func:`simulate_trace`.
    """

    def __init__(
        self,
        graph: StreamGraph,
        block: int,
        capacities: Optional[Dict[int, int]] = None,
        layout_order: Optional[Iterable[str]] = None,
        count_external: bool = True,
        placement: Optional[Sequence[ObjectKey]] = None,
        gaps: Optional[Dict[ObjectKey, int]] = None,
    ) -> None:
        self.graph = graph
        self.block = block
        caps, self.layout, self._ext_in_base, self._ext_out_base = build_memory_plan(
            graph, block, capacities=capacities, layout_order=layout_order,
            placement=placement, gaps=gaps,
        )
        self.capacities = caps
        self.count_external = count_external

        buffers = {
            cid: ChannelBuffer(cid, self.layout.buffer_region(cid)) for cid in caps
        }
        for ch in graph.channels():
            if ch.delay:
                buffers[ch.cid].prefill(ch.delay)
        plans_by_cid = {
            cid: _ChannelPlan(graph.channel(cid), buf, block)
            for cid, buf in buffers.items()
        }
        source_set = set(graph.sources())
        sink_set = set(graph.sinks())
        self._plans: Dict[str, _ModulePlan] = {}
        for mod in graph.modules():
            plan = _ModulePlan(mod.name)
            region = self.layout.state_region(mod.name)
            if region.length:
                spanned = range(region.start // block, (region.end - 1) // block + 1)
                plan.state_blocks = np.asarray(spanned, dtype=np.int64)
            plan.ins = [plans_by_cid[ch.cid] for ch in graph.in_channels(mod.name)]
            plan.outs = [plans_by_cid[ch.cid] for ch in graph.out_channels(mod.name)]
            if mod.name in source_set:
                plan.in_words = source_stream_words(graph, mod.name)
            if mod.name in sink_set:
                plan.out_words = sink_stream_words(graph, mod.name)
            self._plans[mod.name] = plan
        self._buffers = buffers
        # metadata of the most recent :meth:`compile_chunks` run; complete
        # once that generator is exhausted (:meth:`compile` reads them)
        self.last_label: str = "schedule"
        self.last_firings: int = 0
        self.last_fire_counts: Dict[str, int] = {}
        self.last_source_fires: int = 0
        self.last_sink_fires: int = 0
        self.last_accesses: int = 0
        self.last_period: Optional[Tuple[int, int, int]] = None
        self._ext_in_pos = 0
        self._ext_out_pos = 0

    def compile_chunks(
        self, schedule: Schedule, chunk_words: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile ``schedule`` as a stream of ``(blocks, phases)`` chunks.

        With ``chunk_words=None`` the whole trace is yielded as one final
        chunk (the monolithic case); otherwise every yielded chunk holds
        exactly ``chunk_words`` accesses except the last, which carries the
        remainder (an empty schedule yields no chunks).  Concatenating the
        chunks in order reproduces :meth:`compile`'s arrays bit for bit —
        the contract the streaming engine (:mod:`repro.runtime.streaming`)
        is differentially pinned on.  Peak memory while chunking is bounded
        by ``chunk_words`` (or, while a loop's period is being sought, by
        ``max(chunk_words, 2**16)``) plus one firing's touches, never the
        trace length.

        A :class:`~repro.runtime.looped.LoopedSchedule` costs the firings of
        one period per top-level :class:`~repro.runtime.looped.Loop`, not
        every firing: iterations compile one at a time until the compiler
        state (every buffer's head and count, the external stream positions
        mod ``B``) is back at its loop-entry value after ``p`` iterations.
        Every later whole period is then the first one's blocks plus a
        multiple of the per-access stream shift, written with numpy; the
        leftover iterations and the rest of the schedule compile as usual.
        The output and all metadata are identical to compiling the flat
        expansion, and ``last_period`` records the longest such run as
        ``(start, length, repeats)`` (see :class:`CompiledTrace`).

        Validates feasibility exactly like ``Executor.fire`` and raises
        :class:`~repro.errors.ScheduleError` on the first violation (a
        repeated period is feasible because its first copy was).  The
        compiler mutates its buffer states, so each call continues where
        the previous one stopped — build a fresh compiler per run.  Trace
        metadata (label, firings, per-module fire counts, source/sink
        fires, total accesses, period) is complete once the generator is
        exhausted and is then readable from ``last_label``/
        ``last_firings``/``last_fire_counts``/``last_source_fires``/
        ``last_sink_fires``/``last_accesses``/``last_period``.
        """
        if chunk_words is not None and chunk_words < 1:
            raise CacheConfigError(
                f"chunk_words must be >= 1, got {chunk_words}"
            )
        self.last_label = getattr(schedule, "label", "schedule")
        self.last_firings = 0
        self.last_fire_counts = {}
        self.last_source_fires = 0
        self.last_sink_fires = 0
        self.last_period = None
        self._ext_in_pos = 0
        self._ext_out_pos = 0
        out = _TraceWriter(chunk_words)
        if isinstance(schedule, LoopedSchedule):
            for element in schedule.loops:
                if isinstance(element, Loop):
                    yield from self._compile_loop(element, out)
                else:
                    yield from self._fire((element,), out)
        else:
            yield from self._fire(schedule.firings, out)
        self.last_accesses = out.emitted + out.pending
        yield from out.finish()

    def _fire(
        self, names: Iterable[str], out: "_TraceWriter"
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile ``names`` firing by firing into ``out``, yielding every
        chunk that fills up on the way."""
        plans = self._plans
        block = self.block
        count_external = self.count_external
        threshold = out.threshold
        chunks, codes, lens, pending = out.parts, out.codes, out.lens, out.pending
        fire_counts = self.last_fire_counts
        firings = self.last_firings
        source_fires = self.last_source_fires
        sink_fires = self.last_sink_fires
        ext_in_pos = self._ext_in_pos
        ext_out_pos = self._ext_out_pos

        for name in names:
            try:
                plan = plans[name]
            except KeyError:
                self.graph.module(name)  # raises GraphError with the usual message
                raise
            for cs in plan.ins:
                require_input_tokens(name, cs.src, cs.dst, cs.buf.tokens, cs.in_rate)
            for cs in plan.outs:
                require_output_space(name, cs.src, cs.dst, cs.buf.free, cs.out_rate)

            if plan.state_blocks is not None:
                chunks.append(plan.state_blocks)
                codes.append(_STATE)
                lens.append(plan.state_blocks.shape[0])
                pending += plan.state_blocks.shape[0]
            for cs in plan.ins:
                arr = cs.pop_blocks()
                chunks.append(arr)
                codes.append(_DATA)
                lens.append(arr.shape[0])
                pending += arr.shape[0]
            for cs in plan.outs:
                arr = cs.push_blocks()
                chunks.append(arr)
                codes.append(_DATA)
                lens.append(arr.shape[0])
                pending += arr.shape[0]
            if count_external:
                if plan.in_words:
                    start = self._ext_in_base + ext_in_pos
                    lo, hi = start // block, (start + plan.in_words - 1) // block
                    chunks.append(np.arange(lo, hi + 1, dtype=np.int64))
                    codes.append(_STREAM)
                    lens.append(hi - lo + 1)
                    pending += hi - lo + 1
                    ext_in_pos += plan.in_words
                if plan.out_words:
                    start = self._ext_out_base + ext_out_pos
                    lo, hi = start // block, (start + plan.out_words - 1) // block
                    chunks.append(np.arange(lo, hi + 1, dtype=np.int64))
                    codes.append(_STREAM)
                    lens.append(hi - lo + 1)
                    pending += hi - lo + 1
                    ext_out_pos += plan.out_words

            fire_counts[name] = fire_counts.get(name, 0) + 1
            firings += 1
            if plan.in_words:
                source_fires += 1
            if plan.out_words:
                sink_fires += 1

            if threshold is not None and pending >= threshold:
                out.pending = pending
                yield from out.cut()
                chunks, codes, lens, pending = out.parts, out.codes, out.lens, out.pending

        out.pending = pending
        self.last_firings = firings
        self.last_source_fires = source_fires
        self.last_sink_fires = sink_fires
        self._ext_in_pos = ext_in_pos
        self._ext_out_pos = ext_out_pos

    def _state(self) -> Tuple[int, ...]:
        """Everything the next firing's touches depend on, up to a whole
        number of blocks of external stream: buffer heads and counts, and
        the stream positions mod ``B``."""
        state: List[int] = []
        for buf in self._buffers.values():
            state.extend(buf.peek_occupancy())
        state.append(self._ext_in_pos % self.block)
        state.append(self._ext_out_pos % self.block)
        return tuple(state)

    def _compile_loop(
        self, loop: Loop, out: "_TraceWriter"
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile a top-level loop, repeating its period with numpy (see
        :meth:`compile_chunks`)."""
        entry = self._state()
        one = Loop(1, loop.body)
        out.settle()  # the period's touches then settle into one array
        start = out.emitted + out.pending
        cuts = out.cuts
        firings, sources, sinks = (
            self.last_firings, self.last_source_fires, self.last_sink_fires
        )
        counts = dict(self.last_fire_counts)
        ext_in, ext_out = self._ext_in_pos, self._ext_out_pos
        if out.chunk_words is not None:
            out.threshold = max(out.chunk_words, _PERIOD_PROBE_WORDS)
        done = period = 0
        # a period only pays off if a second whole copy of it follows, and
        # a probe that outgrew its memory budget was cut into chunks
        while not period and done < loop.count // 2 and out.cuts == cuts:
            yield from self._fire(one.firings_iter(), out)
            done += 1
            if out.cuts == cuts and self._state() == entry:
                period = done
        out.threshold = out.chunk_words
        length = out.emitted + out.pending - start
        if period and length:
            out.settle()
            blocks, phases = out.held[-1]
            repeats = loop.count // period
            in_step = self._ext_in_pos - ext_in
            out_step = self._ext_out_pos - ext_out
            shift = np.zeros(length, dtype=np.int64)
            stream = phases == _STREAM
            shift[stream] = in_step // self.block
            shift[stream & (blocks >= self._ext_out_base // self.block)] = (
                out_step // self.block
            )
            per_batch = (
                repeats - 1 if out.chunk_words is None
                else max(1, out.chunk_words // length)
            )
            j = 1
            while j < repeats:
                k = min(per_batch, repeats - j)
                batch = np.arange(j, j + k, dtype=np.int64)[:, None] * shift
                batch += blocks
                out.add(batch.ravel(), np.tile(phases, k))
                yield from out.cut()
                j += k
            more = repeats - 1
            self.last_firings += more * (self.last_firings - firings)
            self.last_source_fires += more * (self.last_source_fires - sources)
            self.last_sink_fires += more * (self.last_sink_fires - sinks)
            for name, n in self.last_fire_counts.items():
                self.last_fire_counts[name] = n + more * (n - counts.get(name, 0))
            self._ext_in_pos += more * in_step
            self._ext_out_pos += more * out_step
            obs.add(obs_names.COMPILE_PERIOD_REPEATS, more)
            best = self.last_period
            if best is None or length * repeats > best[1] * best[2]:
                self.last_period = (start, length, repeats)
            done = period * repeats
        if loop.count > done:
            yield from self._fire(
                Loop(loop.count - done, loop.body).firings_iter(), out
            )

    def compile(self, schedule: Schedule) -> CompiledTrace:
        """Compile every firing of ``schedule`` (flat or looped) to a trace.

        One full :meth:`compile_chunks` pass with no chunking: the whole
        trace materializes as a single chunk.  Validation, buffer mutation,
        and fresh-compiler caveats are exactly as documented there.
        """
        blocks, phases = next(self.compile_chunks(schedule, chunk_words=None))
        return CompiledTrace(
            label=self.last_label,
            block=self.block,
            blocks=blocks,
            phases=phases,
            firings=self.last_firings,
            fire_counts=dict(self.last_fire_counts),
            source_fires=self.last_source_fires,
            sink_fires=self.last_sink_fires,
            period=self.last_period,
        )


def compile_trace_uncached(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> CompiledTrace:
    """Always-compile core of :func:`compile_trace` (never reads the cache;
    what :func:`repro.runtime.trace_cache.cached_compile_trace` calls on a
    miss — routing it through :func:`compile_trace` would recurse)."""
    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    with obs.span(obs_names.COMPILE):
        compiler = TraceCompiler(
            graph,
            block,
            capacities=capacities,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
        )
        trace = compiler.compile(schedule)
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, trace.accesses)
    return trace


@overload
def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = ...,
    layout_order: Optional[Iterable[str]] = ...,
    count_external: bool = ...,
    placement: Optional[Sequence[ObjectKey]] = ...,
    gaps: Optional[Dict[ObjectKey, int]] = ...,
    chunk_words: None = ...,
) -> CompiledTrace: ...


@overload
def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = ...,
    layout_order: Optional[Iterable[str]] = ...,
    count_external: bool = ...,
    placement: Optional[Sequence[ObjectKey]] = ...,
    gaps: Optional[Dict[ObjectKey, int]] = ...,
    *,
    chunk_words: int,
) -> "ChunkedTrace": ...


def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    chunk_words: Optional[int] = None,
) -> Union[CompiledTrace, "ChunkedTrace"]:
    """One-shot convenience: compile ``schedule`` against a fresh layout.

    ``capacities`` defaults to the schedule's own (the ``Executor.measure``
    convention), overlaid on minBuf.  ``placement`` fixes the complete
    object order and ``gaps`` the deliberate per-object padding (see
    :meth:`repro.mem.layout.MemoryLayout.place_graph`) — the path optimized
    layouts from :mod:`repro.mem.placement` take.

    When a persistent trace cache is configured
    (:func:`repro.runtime.trace_cache.configure`, the CLI's ``--cache-dir``),
    the compilation is content-addressed through it: a previously compiled
    identical input loads off disk instead of recompiling — bit-identical
    by the digest contract.  With no cache configured (the default), this
    compiles unconditionally and touches no disk.

    ``chunk_words`` switches to out-of-core streaming compilation: the
    trace is produced in fixed-size chunks that spill to content-addressed
    ``.npz`` segments as they are compiled, and the return value is a
    :class:`~repro.runtime.streaming.ChunkedTrace` whose peak memory is
    O(``chunk_words``) regardless of schedule length.  It replays through
    the same :func:`simulate_trace` front door, bit-identically to the
    monolithic trace.
    """
    from repro.runtime.trace_cache import cached_compile_trace, default_cache

    if chunk_words is not None:
        from repro.runtime.streaming import compile_trace_chunked

        return compile_trace_chunked(
            graph, schedule, block, chunk_words, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps, cache=default_cache(),
        )
    if default_cache() is not None:
        trace, _key, _hit = cached_compile_trace(
            graph, schedule, block, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps,
        )
        return trace
    return compile_trace_uncached(
        graph, schedule, block, capacities=capacities,
        layout_order=layout_order, count_external=count_external,
        placement=placement, gaps=gaps,
    )


def _result_from_stats(
    trace: Union[CompiledTrace, "ChunkedTrace"],
    misses: int,
    phase_counts: Optional[Sequence[int]],
) -> ExecutionResult:
    """Assemble one :class:`ExecutionResult` from reduced replay statistics
    (misses and per-phase miss counts — never per-access masks)."""
    phase_misses: Dict[str, int] = {}
    if phase_counts is not None and misses:
        phase_misses = {
            PHASE_NAMES[code]: int(c)
            for code, c in enumerate(phase_counts)
            if c and PHASE_NAMES[code]
        }
    return ExecutionResult(
        label=trace.label,
        firings=trace.firings,
        misses=misses,
        accesses=trace.accesses,
        phase_misses=phase_misses,
        fire_counts=dict(trace.fire_counts),
        source_fires=trace.source_fires,
        sink_fires=trace.sink_fires,
    )


def _trace_range(
    trace: Union[CompiledTrace, "ChunkedTrace"], lo: int, hi: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Blocks and phases of accesses ``[lo, hi)`` (``lo < hi``), reading
    only the segments that hold them when the trace is chunked."""
    if isinstance(trace, CompiledTrace):
        return (
            trace.blocks[lo:hi],
            None if trace.phases is None else trace.phases[lo:hi],
        )
    cw = trace.chunk_words
    first = lo // cw
    pieces = [trace.chunk(i) for i in range(first, -(-hi // cw))]
    window = slice(lo - first * cw, hi - first * cw)
    blocks = np.concatenate([b for b, _p in pieces])[window]
    if any(p is None for _b, p in pieces):
        return blocks, None
    return blocks, np.concatenate([p for _b, p in pieces])[window]


def _conflict_classes(geom: object, policy: str) -> Optional[int]:
    """Set count (``lru``) or frame count (``direct``) of a geometry the
    period shortcut can answer; ``None`` for every other case."""
    if not isinstance(geom, CacheGeometry):
        return None
    if policy == "lru":
        return 1 if geom.is_fully_associative else geom.sets
    if policy == "direct" and geom.ways in (None, 1):
        return geom.n_blocks
    return None


def _suffix_reaches_back(
    prefix: np.ndarray,
    first: np.ndarray,
    shift: np.ndarray,
    repeats: int,
    tail: np.ndarray,
    length: int,
) -> bool:
    """Whether an access after the final period touches a block absent
    from the final period and from the suffix before it, yet touched
    earlier in the trace — the one case where a replay of the tail slice
    alone would miss where the full trace hits.

    Blocks off the external streams recur in every period, so they cannot
    be absent from the final one: only the prefix and the stream blocks of
    periods ``1 .. repeats - 1`` (``first + j * shift``, ``j <
    repeats - 1``) are searched.
    """
    if tail.shape[0] == length:
        return False
    uniq, at = np.unique(tail, return_index=True)
    fresh = uniq[at >= length]
    if not fresh.shape[0]:
        return False
    if np.isin(fresh, prefix).any():
        return True
    moving = shift != 0
    for base, step in set(zip(first[moving].tolist(), shift[moving].tolist())):
        gap = fresh - base
        if np.any((gap >= 0) & (gap % step == 0) & (gap // step <= repeats - 2)):
            return True
    return False


def _period_stats(
    trace: Union[CompiledTrace, "ChunkedTrace"],
    geometries: Sequence[CacheGeometry],
    policy: str,
) -> Dict[int, Tuple[int, Optional[Sequence[int]]]]:
    """``(misses, phase counts)`` by geometry index, for every geometry a
    periodic trace answers from two short slices.

    Covers ``lru`` (fully or set associative) and ``direct`` geometries
    with ``mod`` indexing over ``S`` conflict classes.  Off the external
    streams a period's blocks repeat exactly; a stream block moves by
    ``s`` blocks a period, so its class repeats every ``S / gcd(s, S)``
    periods, and every class mapping repeats after ``H``, the lcm of those
    (1 when fully associative).  An access in period ``j >= 2`` last saw
    its block in period ``j - 1`` or ``j``, so its outcome depends only on
    those two periods and equals that of period ``j - H`` once ``j - H >=
    2``.  The head slice (prefix plus periods ``1 .. H + 1``) is a true
    prefix of the trace, so its outcomes are exact; periods ``2 .. H + 1``
    give one miss count per residue mod ``H``, weighted by how many periods
    share it.  The tail slice is the final period plus the suffix; only the
    suffix is counted, which is exact unless a suffix access reaches a
    block last touched before the final period (checked, then the whole
    trace falls back).  Traces with fewer than ``H + 2`` periods and every
    other policy fall back too.
    """
    period = getattr(trace, "period", None)
    if period is None or policy not in ("lru", "direct"):
        return {}
    classes: Dict[int, int] = {}
    for i, geom in enumerate(geometries):
        c = _conflict_classes(geom, policy)
        if c is not None:
            classes[i] = c
    start, length, repeats = period
    if not classes or repeats < 3:
        return {}
    pair, _ = _trace_range(trace, start, start + 2 * length)
    first = pair[:length]
    shift = pair[length:] - first
    steps = np.unique(shift[shift != 0]).tolist()
    hyper: Dict[int, int] = {}
    for i, sets in classes.items():
        h = 1
        for step in steps:
            h = math.lcm(h, sets // math.gcd(step, sets))
        if repeats >= h + 2:
            hyper[i] = h
    if not hyper:
        return {}
    head, head_ph = _trace_range(
        trace, 0, start + (max(hyper.values()) + 1) * length
    )
    tail, tail_ph = _trace_range(
        trace, start + (repeats - 1) * length, trace.accesses
    )
    if _suffix_reaches_back(head[:start], first, shift, repeats, tail, length):
        return {}
    from repro.runtime.replay import replay_chunks
    from repro.runtime.streaming import ArrayChunkSource

    geoms = [geometries[i] for i in hyper]
    [(_h, head_masks)], [(_t, tail_masks)] = (
        replay_chunks(ArrayChunkSource(part, chunk_words=part.shape[0]), geoms, policy)
        for part in (head, tail)
    )
    n_codes = len(PHASE_NAMES)
    body = start + length  # where period 2 begins
    out: Dict[int, Tuple[int, Optional[Sequence[int]]]] = {}
    for (i, h), hm, tm in zip(hyper.items(), head_masks, tail_masks):
        per = hm[body:body + h * length].reshape(h, length)
        full, extra = divmod(repeats - 1, h)
        weight = np.full(h, full, dtype=np.int64)
        weight[:extra] += 1
        misses = (
            int(np.count_nonzero(hm[:body]))
            + int(weight @ np.count_nonzero(per, axis=1))
            + int(np.count_nonzero(tm[length:]))
        )
        counts: Optional[List[int]] = None
        if head_ph is not None and tail_ph is not None:
            residue = np.arange(h, dtype=np.int64)[:, None] * n_codes
            by_residue = np.bincount(
                (residue + head_ph[start:body])[per], minlength=h * n_codes
            ).reshape(h, n_codes)
            counts = (
                np.bincount(head_ph[:body][hm[:body]], minlength=n_codes)
                + weight @ by_residue
                + np.bincount(tail_ph[length:][tm[length:]], minlength=n_codes)
            ).tolist()
        out[i] = (misses, counts)
    obs.add(obs_names.REPLAY_PERIOD_GEOMETRIES, len(out))
    return out


def simulate_trace(
    trace: Union[CompiledTrace, "ChunkedTrace"],
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    chunk_words: Optional[int] = None,
) -> List[ExecutionResult]:
    """Miss counts of ``policy`` at every geometry from one compiled trace.

    Replays the trace through the chunk kernel registered for ``policy``
    (:mod:`repro.runtime.replay`): ``"lru"`` (fully associative via one
    Mattson stack-distance pass, or set-associative per ``geometry.ways``),
    ``"direct"`` (per-frame last-block scan), ``"opt"`` (Belady via a
    truncated priority-stack pass answering every swept capacity at once),
    or ``"two_level"`` (hierarchies: geometries are
    :class:`~repro.cache.hierarchy.TwoLevelGeometry` (L1, L2) pairs, and
    misses are memory transfers out of L2).  All geometries must share the
    trace's block size — the trace's addresses were laid out for it.  Each
    result is identical to running the stepwise engine for that policy on
    the same trace: same misses, same accesses, same per-phase miss
    attribution.

    The replay source is the trace itself when it is a
    :class:`~repro.runtime.streaming.ChunkedTrace` (out-of-core compilation,
    replayed at its own chunking), else the in-memory trace viewed in
    chunks of ``chunk_words`` accesses — one chunk when ``chunk_words`` is
    ``None`` and no process-wide default is configured
    (:func:`repro.runtime.backend.configure`, the CLI's ``--chunk-words``).
    Every chunking gives the same answer (the differential contract of
    ``tests/test_streaming.py``).

    ``backend`` selects where the replay runs
    (:func:`repro.runtime.backend.replay_stats`): ``"serial"``/``"thread"``
    in-process (threads fan the per-geometry mask evaluation out after the
    shared distance passes, clamped per
    :func:`~repro.runtime.backend.effective_workers`); ``"process"`` on a
    process pool — bit-identical results in input order either way, since
    the kernels are pure functions of the trace and the geometries.
    ``backend=None`` (default) follows the configured process-wide default,
    preserving the historical ``workers=``-threads behaviour.

    A trace that records a ``period`` (a compiled looped schedule) answers
    its ``mod``-indexed lru and direct geometries from two short slices
    first, in time proportional to one period (see :func:`_period_stats`
    for why that is exact and when it falls back); the other geometries
    take the replay above.
    """
    from repro.cache.policy import get_policy
    from repro.runtime.backend import default_chunk_words, replay_stats
    from repro.runtime.streaming import ArrayChunkSource, ChunkedTrace

    get_policy(policy)  # unknown names fail even when nothing is replayed
    geometries = list(geometries)
    for geom in geometries:
        if geom.block != trace.block:
            raise CacheConfigError(
                f"geometry block {geom.block} does not match trace block "
                f"{trace.block}; recompile the trace for this block size"
            )
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geometries))
    with obs.span(obs_names.REPLAY, policy=policy):
        stats = _period_stats(trace, geometries, policy)
        rest = [i for i in range(len(geometries)) if i not in stats]
        if rest:
            if chunk_words is None:
                chunk_words = default_chunk_words() or max(1, trace.accesses)
            source = trace if isinstance(trace, ChunkedTrace) else ArrayChunkSource(
                trace.blocks, trace.phases, chunk_words=chunk_words
            )
            replayed = replay_stats(
                source, [geometries[i] for i in rest], policy, workers, backend
            )
            stats.update(zip(rest, replayed))
    obs.add(obs_names.REPLAY_MISSES, sum(m for m, _c in stats.values()))
    return [_result_from_stats(trace, *stats[i]) for i in range(len(geometries))]


def measure_compiled(
    graph: StreamGraph,
    geometry: CacheGeometry,
    schedule: Schedule,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    policy: str = "lru",
    workers: Optional[int] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    backend: Optional[str] = None,
    cache: Optional[object] = None,
    chunk_words: Optional[int] = None,
) -> ExecutionResult:
    """Drop-in for ``Executor.measure``, via compilation.

    Compiles the schedule once and evaluates the single geometry with the
    vectorized kernel of ``policy`` — exact same result, no stepwise cache
    simulation.  ``cache`` (a :class:`repro.runtime.trace_cache.TraceCache`)
    routes the compilation through the persistent content-addressed cache;
    ``backend`` picks the execution backend exactly as in
    :func:`simulate_trace`.  ``chunk_words`` compiles out of core
    (:mod:`repro.runtime.streaming`) and replays the segments as chunks:
    identical result, O(``chunk_words``) peak memory.
    """
    trace: Union[CompiledTrace, "ChunkedTrace"]
    if chunk_words is not None:
        from repro.runtime.streaming import compile_trace_chunked
        from repro.runtime.trace_cache import TraceCache, default_cache

        seg_cache = cache if isinstance(cache, TraceCache) else default_cache()
        trace = compile_trace_chunked(
            graph,
            schedule,
            geometry.block,
            chunk_words,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
            cache=seg_cache,
        )
    elif cache is not None:
        from repro.runtime.trace_cache import cached_compile_trace

        trace, _key, _hit = cached_compile_trace(
            graph,
            schedule,
            geometry.block,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
            cache=cache,  # type: ignore[arg-type]
        )
    else:
        trace = compile_trace(
            graph,
            schedule,
            geometry.block,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
        )
    return simulate_trace(
        trace, [geometry], policy=policy, workers=workers, backend=backend
    )[0]
