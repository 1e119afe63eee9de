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
  flat numpy array of block ids.  Every firing moves fixed token counts
  (synchronous dataflow), so the k-th window a channel exposes starts at
  ``(head + k * rate) mod capacity``: one numpy pass over a run of firings
  derives every window, feasibility check, stream position and phase code
  from per-channel token prefix sums, and a loop's period follows from its
  body's token arithmetic, with no per-firing Python loop.
* :func:`simulate_trace` answers a whole family of cache geometries from
  one compiled trace, for each replacement policy of
  :data:`repro.cache.policy.POLICIES`, by dispatching to the vectorized replay
  kernels of :mod:`repro.runtime.replay`: fully-associative LRU (one
  Mattson stack-distance pass), set-associative LRU (per-set stack
  distances on the set-grouped trace), direct-mapped (per-frame last-block
  scan), OPT/Belady (a truncated priority-stack pass answering every swept
  capacity at once), and two-level hierarchies (``policy="two_level"``
  with :class:`~repro.cache.hierarchy.TwoLevelGeometry` sweep points: an
  L1 pass emits the miss sub-trace a second L2 pass replays).  Results are
  :class:`~repro.runtime.executor.ExecutionResult` rows identical — misses,
  accesses, and per-phase attribution — to running the stepwise engine per
  geometry.
* :func:`measure_compiled` is the drop-in replacement for
  ``Executor.measure`` on any replay-capable policy.  On one ``lru`` or
  ``direct`` geometry of a flat schedule it hands the replay kernel the
  compiled chunks as they are yielded, so the trace is never built.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block-id arrays are ``int64`` (the replay
kernels' input type), per-access phase codes are ``uint8`` (three codes),
and any per-access flag masks are ``bool``.  Every array constructor in
this module passes its dtype explicitly so a refactor cannot silently
change what the kernels replay.

Which path is vectorized, which is reference: the compiled replay above is
the production path for every geometry sweep — every policy has a replay
kernel; the stepwise engines — the
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
from itertools import chain, islice, repeat
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import CacheConfigError
from repro.graphs.sdf import StreamGraph
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.mem.layout import ObjectKey
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
    "TraceMetadata",
    "compile_trace",
    "compile_trace_uncached",
    "simulate_trace",
    "measure_compiled",
]

#: Phase codes stored per block touch; index into ``PHASE_NAMES`` (0 = none).
PHASE_NAMES = ("", "state", "data", "stream")
_STATE, _DATA, _STREAM = 1, 2, 3

#: accesses one slice of a chunked compilation may produce, and that it
#: may hold uncut while it compiles a loop's period (the period must sit
#: in memory to be repeated)
_SLICE_WORDS = 1 << 16

#: accesses per chunk when :func:`measure_compiled` streams and no default
#: chunk size is configured.  On a 2-vCPU Xeon host E1's 1,420,637-access
#: heavy-n20 schedule measures in 587 / 555 / 568 / 599 / 620 ms at chunks
#: of 2**12 .. 2**16 accesses (best of 5; traced allocation peaks 0.97 /
#: 1.16 / 1.93 / 3.54 / 6.47 MB), and an E1+E3+E5 pass peaks at 42.4 /
#: 44.5 / 47.5 MB RSS at 2**14 / 2**15 / 2**16 against 39.3 MB stepping
#: the executor.  Time is flat over that range and memory grows with the
#: chunk; 2**14 keeps that pass within 10% of the stepwise RSS.
MEASURE_CHUNK_WORDS = 1 << 14

_Chunk = Tuple[np.ndarray, np.ndarray]
#: one part a :class:`_TraceWriter` holds: ``(blocks, phases, shift,
#: first, count)``
_Part = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int, int]


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


@dataclass
class TraceMetadata:
    """A compilation's metadata: every field :class:`CompiledTrace` and
    :class:`~repro.runtime.streaming.ChunkedTrace` carry besides the
    accesses themselves, as :meth:`TraceCompiler.compile_chunks` counts
    them."""

    label: str = "schedule"
    firings: int = 0
    fire_counts: Dict[str, int] = field(default_factory=dict)
    source_fires: int = 0
    sink_fires: int = 0
    accesses: int = 0
    period: Optional[Tuple[int, int, int]] = None


class _TraceWriter:
    """Collects compiled touches and cuts them into ``chunk_words`` chunks.

    ``held`` keeps the parts not yet yielded, in trace order, and
    ``pending`` counts their accesses.  A part is ``(blocks, phases, shift,
    first, count)``: copies ``first .. first + count - 1`` of a run, copy
    ``j`` being ``blocks + j * shift``.  A compiled run of firings is one
    copy with no shift; a batch of a loop's repeated periods stays in that
    form until :meth:`join` writes it out.  A run cuts once ``pending``
    reaches ``threshold``: ``chunk_words``, raised while a loop's period is
    compiled, and ``None`` (never) when monolithic.
    """

    __slots__ = ("chunk_words", "threshold", "held", "pending", "emitted", "cuts")

    def __init__(self, chunk_words: Optional[int]) -> None:
        self.chunk_words = chunk_words
        self.threshold = chunk_words
        self.held: List[_Part] = []
        self.pending = 0
        self.emitted = 0
        self.cuts = 0

    def add(
        self,
        blocks: np.ndarray,
        phases: np.ndarray,
        shift: Optional[np.ndarray] = None,
        first: int = 0,
        count: int = 1,
    ) -> None:
        self.held.append((blocks, phases, shift, first, count))
        self.pending += count * int(blocks.shape[0])

    def join(self, mark: int = 0) -> _Chunk:
        """The parts held from index ``mark`` on, written into one output
        in their place (a lone unshifted part is returned as it is)."""
        parts = self.held[mark:]
        if len(parts) == 1 and parts[0][2] is None:
            return parts[0][0], parts[0][1]
        n = sum(count * int(b.shape[0]) for b, _p, _s, _f, count in parts)
        blocks = np.empty(n, dtype=np.int64)
        phases = np.empty(n, dtype=np.uint8)
        at = 0
        for b, p, shift, first, count in parts:
            span = (count, int(b.shape[0]))
            end = at + span[0] * span[1]
            copies = blocks[at:end].reshape(span)
            if shift is None:
                copies[:] = b
            else:  # written in place: no temporary of the batch's size
                np.multiply(
                    np.arange(first, first + count, dtype=np.int64)[:, None],
                    shift, out=copies,
                )
                copies += b
            phases[at:end].reshape(span)[:] = p
            at = end
        self.held[mark:] = [(blocks, phases, None, 0, 1)]
        return blocks, phases

    def cut(self, final: bool = False) -> Iterator[_Chunk]:
        """Yield every full chunk held and keep the remainder (nothing to
        cut when monolithic); ``final`` yields the remainder too, and
        everything as one chunk when monolithic."""
        cw = self.chunk_words
        if cw is None and not final:
            return
        blocks, phases = self.join()
        lo, n = 0, int(blocks.shape[0])
        while cw is not None and n - lo >= cw:
            yield blocks[lo:lo + cw], phases[lo:lo + cw]
            lo += cw
        if final and (lo < n or cw is None):
            yield blocks[lo:], phases[lo:]
            lo = n
        self.emitted += lo
        # copies release the joined buffer once consumers drop their chunk
        # views, keeping the high-water mark at O(chunk_words), not
        # O(flushes)
        self.held = [(blocks[lo:].copy(), phases[lo:].copy(), None, 0, 1)]
        self.pending = n - lo
        self.cuts += 1


class TraceCompiler:
    """Compiles schedules for one (graph, block size, capacities, layout).

    Shares the executor's memory setup
    (:func:`~repro.runtime.executor.build_memory_plan`), so both paths
    address the same regions, but never steps a
    :class:`~repro.runtime.buffers.ChannelBuffer`: each channel is a head
    and a token count, and every window, feasibility check and stream
    position follows from SDF token arithmetic over a whole run of
    firings (:meth:`_pass`).  The executor stays the specification; the
    differential tests (``tests/test_compiled.py``) pin the compiled trace
    to its recorded one.  The cache *size* is deliberately absent: one
    compiled trace serves every size via :func:`simulate_trace`.
    """

    def __init__(
        self,
        graph: StreamGraph,
        block: int,
        capacities: Optional[Dict[int, int]] = None,
        layout_order: Optional[Iterable[str]] = None,
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

        self._names = [mod.name for mod in graph.modules()]
        self._index = {name: i for i, name in enumerate(self._names)}
        self._channels = list(graph.channels())
        # per channel: producer, consumer, in and out rate, capacity, region
        # start, delay, pop and push range slot, pop and push check order
        chan = {
            ch.cid: [self._index[ch.src], self._index[ch.dst], ch.in_rate, ch.out_rate,
                     caps[ch.cid], self.layout.buffer_region(ch.cid).start, ch.delay,
                     0, 0, 0, 0]
            for ch in self._channels
        }
        # per module: first state block, state blocks, stream words in and
        # out, range slots per firing (the state, two per window, one per
        # stream), the two streams' slots, a bound on its touches
        mods: List[List[int]] = []
        sources, sinks = set(graph.sources()), set(graph.sinks())
        for name in self._names:
            region = self.layout.state_region(name)
            lo = region.start // block
            n_state = (region.end - 1) // block - lo + 1 if region.length else 0
            ins, outs = graph.in_channels(name), graph.out_channels(name)
            for rank, ch in enumerate(ins):
                chan[ch.cid][7], chan[ch.cid][9] = 1 + 2 * rank, rank
            for rank, ch in enumerate(outs, start=len(ins)):
                chan[ch.cid][8], chan[ch.cid][10] = 1 + 2 * rank, rank
            words_in = source_stream_words(graph, name) if name in sources else 0
            words_out = sink_stream_words(graph, name) if name in sinks else 0
            slot_in = 1 + 2 * len(ins + outs)
            slot_out = slot_in + bool(words_in)
            touches = n_state + sum(
                rate // block + 4 for rate in
                [ch.in_rate for ch in ins] + [ch.out_rate for ch in outs]
            ) + words_in // block + words_out // block + 4
            mods.append([lo, n_state, words_in, words_out, slot_out + bool(words_out),
                         slot_in, slot_out, touches])
        self._mod = np.array(mods, dtype=np.int64).reshape(-1, 8).T
        self._chan = np.array(list(chan.values()), dtype=np.int64).reshape(-1, 11).T
        # channel and stream state, reset by every :meth:`compile_chunks`
        self._heads = np.zeros(len(chan), dtype=np.int64)
        self._tokens = self._chan[6].copy()
        self._stream = [0, 0]
        # metadata of the most recent :meth:`compile_chunks` run; complete
        # once that generator is exhausted (:meth:`compile` reads it)
        self.last = TraceMetadata()

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
        is differentially pinned on.  A flat schedule is one run of firings
        for :meth:`_pass`; a looped one, one run per top-level loop and per
        stretch of module names between loops.  While chunking, runs are
        cut into slices of at most ``max(chunk_words, 2**16)`` accesses, so
        peak memory is O(that), never the trace length.

        A top-level :class:`~repro.runtime.looped.Loop` whose body leaves
        every token count as it found it has a period of ``p`` iterations:
        the lcm of ``cap / gcd(pops, cap)`` over the buffers (their heads
        return) and of ``B / gcd(words, B)`` over the two streams (their
        positions mod ``B`` return).  When ``p <= count // 2`` and, while
        chunking, the accesses held uncut plus one period stay below
        ``max(chunk_words, 2**16)``, the first ``p`` iterations compile as
        one run and every later whole period is their blocks plus a
        multiple of the per-access stream shift, written with numpy; the
        rest of the loop compiles as a run.  Output and metadata equal the
        flat expansion's, and ``last.period`` records the longest repeated
        run as ``(start, length, repeats)`` (see :class:`CompiledTrace`).

        Validates feasibility exactly like ``Executor.fire`` and raises
        :class:`~repro.errors.ScheduleError` with the executor's message at
        the first violation (a repeated period is feasible because its
        first copy was).  Every call starts from the channel delays and
        stream position 0.  Trace metadata (label, firings, per-module fire
        counts, source/sink fires, total accesses, period) is complete once
        the generator is exhausted, in :attr:`last`, a fresh
        :class:`TraceMetadata` per call.
        """
        if chunk_words is not None and chunk_words < 1:
            raise CacheConfigError(
                f"chunk_words must be >= 1, got {chunk_words}"
            )
        self.last = TraceMetadata(label=getattr(schedule, "label", "schedule"))
        self._heads = np.zeros_like(self._heads)
        self._tokens = self._chan[6].copy()
        self._stream = [0, 0]
        out = _TraceWriter(chunk_words)
        if isinstance(schedule, LoopedSchedule):
            run: List[str] = []
            for element in schedule.loops:
                if isinstance(element, Loop):
                    yield from self._run(run, out)
                    run = []
                    yield from self._compile_loop(element, out)
                else:
                    run.append(element)
            yield from self._run(run, out)
        else:
            yield from self._run(schedule.firings, out)
        self.last.accesses = out.emitted + out.pending
        yield from out.cut(final=True)

    def _indices(self, names: List[str]) -> Tuple[np.ndarray, Optional[str]]:
        """Module indices of ``names`` up to the first unknown name, and
        that name (``None`` when every name is known)."""
        try:
            return self._as_indices(names), None
        except KeyError as exc:
            (unknown,) = exc.args
        return self._as_indices(names[:names.index(unknown)]), unknown

    def _as_indices(self, names: List[str]) -> np.ndarray:
        return np.fromiter(
            map(self._index.__getitem__, names), dtype=np.int64, count=len(names)
        )

    def _run(
        self, names: Iterable[str], out: "_TraceWriter"
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile the firings ``names`` into ``out`` (one :meth:`_pass`
        when monolithic, one per slice while chunking), yielding every
        chunk that fills up on the way."""
        if out.chunk_words is None:
            slices: Iterable[List[str]] = (list(names),)
        else:
            # the per-module touch bound keeps each slice under the budget
            touches = int(self._mod[7].max(initial=1))
            per = max(1, max(out.chunk_words, _SLICE_WORDS) // touches)
            rest = iter(names)
            slices = iter(lambda: list(islice(rest, per)), [])
        for names_slice in slices:
            idx, unknown = self._indices(names_slice)
            if idx.shape[0]:
                out.add(*self._pass(idx))
            if unknown is not None:
                self.graph.module(unknown)  # raises GraphError with the usual message
            if out.threshold is not None and out.pending >= out.threshold:
                yield from out.cut()

    def _pass(self, idx: np.ndarray) -> _Chunk:
        """Blocks and phases of the firings ``idx`` (module indices): their
        block ranges (:meth:`_ranges`) expanded in place, so that no
        temporary of the range table outlives it."""
        lo, ln, code = self._ranges(idx)
        lo -= np.cumsum(ln)
        lo += ln  # less each range's output offset, which the arange adds back
        blocks = np.repeat(lo, ln)
        del lo
        blocks += np.arange(blocks.shape[0], dtype=np.int64)
        return blocks, np.repeat(code, ln)

    def _ranges(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First block, block count and phase code of each block range the
        firings ``idx`` touch, in trace order, from the channel and stream
        state on entry, which it then advances.

        Each (firing, range slot) is one range: the state, each window's
        part up to the region end and its wrapped remainder, and each
        external stream.  The k-th pop by ``v`` reads from ring slot
        ``(head + k * in_rate) mod cap``, the k-th push by ``u`` writes at
        ``(head + count + k * out_rate) mod cap``, and the tokens before a
        firing are the entry count plus ``u``'s pushes minus ``v``'s pops
        before it (one ``searchsorted`` against the firings grouped by
        module).  Nothing is sorted but that grouping.
        """
        B = self.block
        state_lo, state_n, words_in, words_out, slots, slot_in, slot_out, _t = self._mod
        src, dst, in_rate, out_rate, cap, base, _d, pop_slot, push_slot, pop_rank, push_rank = (
            self._chan
        )
        n = idx.shape[0]
        fires = np.bincount(idx, minlength=len(self._names))
        order = np.argsort(idx, kind="stable")
        first = np.cumsum(fires) - fires  # each module's firings in ``order``
        grouped = idx[order] * n + order  # ascending: module, then position
        per = slots[idx]
        range_at = np.cumsum(per) - per  # each firing's first range slot
        n_ranges = int(range_at[-1] + per[-1])
        lo = np.zeros(n_ranges, dtype=np.int64)
        ln = np.zeros(n_ranges, dtype=np.int64)
        code = np.full(n_ranges, _DATA, dtype=np.uint8)
        lo[range_at] = state_lo[idx]
        ln[range_at] = state_n[idx]
        code[range_at] = _STATE
        violations: List[Tuple[int, bool, int, int]] = []
        for pop in (True, False):
            mod, other = (dst, src) if pop else (src, dst)
            events = fires[mod]
            ch = np.repeat(np.arange(len(events), dtype=np.int64), events)
            k = np.arange(ch.shape[0], dtype=np.int64) - np.repeat(
                np.cumsum(events) - events, events
            )
            at = order[first[mod][ch] + k]
            # the other end's firings before each of this end's
            before = np.searchsorted(grouped, other[ch] * n + at) - first[other][ch]
            rate = (in_rate if pop else out_rate)[ch]
            if pop:
                tokens = self._tokens[ch] + out_rate[ch] * before - rate * k
                short = tokens < rate
                offset = self._heads[ch]
            else:
                tokens = self._tokens[ch] + rate * k - in_rate[ch] * before
                short = cap[ch] - tokens < rate
                offset = self._heads[ch] + self._tokens[ch]
            if short.any():  # the first in firing order, then in check order
                j = np.flatnonzero(short)
                rank = (pop_rank if pop else push_rank)[ch[j]]
                j = j[np.argmin(at[j] * len(cap) + rank)]
                violations.append((int(at[j]), not pop, int(ch[j]), int(tokens[j])))
            word = base[ch] + (offset + k * rate) % cap[ch]
            head = np.minimum(rate, cap[ch] + base[ch] - word)  # up to the region end
            r = range_at[at] + (pop_slot if pop else push_slot)[ch]
            lo[r] = word // B
            ln[r] = (word + head - 1) // B - word // B + 1
            wrap = np.flatnonzero(head < rate)
            lo[r[wrap] + 1] = base[ch[wrap]] // B
            ln[r[wrap] + 1] = (
                (base[ch[wrap]] + rate[wrap] - head[wrap] - 1) // B - base[ch[wrap]] // B + 1
            )
        if violations:
            at, push, c, tokens = min(violations)
            ch = self._channels[c]
            name = self._names[int(idx[at])]
            if push:
                require_output_space(name, ch.src, ch.dst, int(cap[c]) - tokens, ch.out_rate)
            else:
                require_input_tokens(name, ch.src, ch.dst, tokens, ch.in_rate)
        for side, (words_of, slot, arena) in enumerate((
            (words_in, slot_in, self._ext_in_base),
            (words_out, slot_out, self._ext_out_base),
        )):
            words = words_of[idx]
            ends = np.cumsum(words)
            f = np.flatnonzero(words)
            word = arena + self._stream[side] + ends[f] - words[f]
            r = range_at[f] + slot[idx[f]]
            lo[r] = word // B
            ln[r] = (word + words[f] - 1) // B - word // B + 1
            code[r] = _STREAM
            self._stream[side] += int(ends[-1])
        self._heads = (self._heads + fires[dst] * in_rate) % cap
        self._tokens = self._tokens + fires[src] * out_rate - fires[dst] * in_rate

        meta = self.last
        meta.firings += n
        meta.source_fires += int(fires[words_in > 0].sum())
        meta.sink_fires += int(fires[words_out > 0].sum())
        fired = np.flatnonzero(fires)
        counts = meta.fire_counts
        for m in fired[np.argsort(order[first[fired]])].tolist():  # first-firing order
            name = self._names[m]
            counts[name] = counts.get(name, 0) + int(fires[m])
        return lo, ln, code

    def _period(self, body: List[str], count: int) -> int:
        """Iterations of ``body`` after which every buffer's head and count
        and both stream positions mod ``B`` are back where they started, or
        0 when some channel's count drifts or the period exceeds ``count //
        2`` (it pays off only if a second whole copy follows)."""
        idx, unknown = self._indices(body)
        if unknown is not None:
            return 0
        src, dst, in_rate, out_rate, cap = self._chan[:5]
        fires = np.bincount(idx, minlength=len(self._names))
        pops = fires[dst] * in_rate
        if np.any(fires[src] * out_rate != pops):
            return 0
        p = math.lcm(*(cap // np.gcd(pops, cap)).tolist())
        for words in (self._mod[2] @ fires, self._mod[3] @ fires):
            p = math.lcm(p, self.block // math.gcd(int(words), self.block))
        return p if p <= count // 2 else 0

    def _compile_loop(
        self, loop: Loop, out: "_TraceWriter"
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile a top-level loop, repeating its period with numpy (see
        :meth:`compile_chunks`)."""
        body = list(Loop(1, loop.body).firings_iter())
        period = self._period(body, loop.count)
        done = 0
        if period:
            start = out.emitted + out.pending
            cuts, mark = out.cuts, len(out.held)
            meta = self.last
            firings, sources, sinks = meta.firings, meta.source_fires, meta.sink_fires
            counts = dict(meta.fire_counts)
            ext_in, ext_out = self._stream
            if out.chunk_words is not None:
                out.threshold = max(out.chunk_words, _SLICE_WORDS)
            yield from self._run(chain.from_iterable(repeat(body, period)), out)
            out.threshold = out.chunk_words
            done = period
            length = out.emitted + out.pending - start
            if out.cuts == cuts and length:
                blocks, phases = out.join(mark)
                repeats = loop.count // period
                in_step = self._stream[0] - ext_in
                out_step = self._stream[1] - ext_out
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
                    out.add(blocks, phases, shift, j, k)
                    yield from out.cut()
                    j += k
                more = repeats - 1
                meta.firings += more * (meta.firings - firings)
                meta.source_fires += more * (meta.source_fires - sources)
                meta.sink_fires += more * (meta.sink_fires - sinks)
                for name, n in meta.fire_counts.items():
                    meta.fire_counts[name] = n + more * (n - counts.get(name, 0))
                self._stream[0] += more * in_step
                self._stream[1] += more * out_step
                obs.add(obs_names.COMPILE_PERIOD_REPEATS, more)
                best = meta.period
                if best is None or length * repeats > best[1] * best[2]:
                    meta.period = (start, length, repeats)
                done = period * repeats
        if loop.count > done:
            yield from self._run(
                Loop(loop.count - done, loop.body).firings_iter(), out
            )

    def compile(self, schedule: Schedule) -> CompiledTrace:
        """Compile every firing of ``schedule`` (flat or looped) to a trace:
        one :meth:`compile_chunks` run with no chunking."""
        blocks, phases = next(self.compile_chunks(schedule, chunk_words=None))
        meta = self.last
        return CompiledTrace(
            label=meta.label,
            block=self.block,
            blocks=blocks,
            phases=phases,
            firings=meta.firings,
            fire_counts=dict(meta.fire_counts),
            source_fires=meta.source_fires,
            sink_fires=meta.sink_fires,
            period=meta.period,
        )


def compile_trace_uncached(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
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
            placement=placement,
            gaps=gaps,
        )
        trace = compiler.compile(schedule)
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, trace.accesses)
    return trace


def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> CompiledTrace:
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
    compiles unconditionally and touches no disk.  Out-of-core compilation
    is :func:`repro.runtime.streaming.compile_trace_chunked`.
    """
    from repro.runtime.trace_cache import cached_compile_trace

    trace, _key, _hit = cached_compile_trace(
        graph, schedule, block, capacities=capacities, layout_order=layout_order,
        placement=placement, gaps=gaps,
    )
    return trace


def _result_from_stats(
    meta: Union[CompiledTrace, "ChunkedTrace", TraceMetadata],
    misses: int,
    phase_counts: Optional[Sequence[int]],
) -> ExecutionResult:
    """Assemble one :class:`ExecutionResult` from reduced replay statistics
    (misses and per-phase miss counts — never per-access masks) and the
    metadata of a trace or of a compiler's last run."""
    phase_misses: Dict[str, int] = {}
    if phase_counts is not None and misses:
        phase_misses = {
            PHASE_NAMES[code]: int(c)
            for code, c in enumerate(phase_counts)
            if c and PHASE_NAMES[code]
        }
    return ExecutionResult(
        label=meta.label,
        firings=meta.firings,
        misses=misses,
        accesses=meta.accesses,
        phase_misses=phase_misses,
        fire_counts=dict(meta.fire_counts),
        source_fires=meta.source_fires,
        sink_fires=meta.sink_fires,
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
    classes = {i: geom.conflict_classes(policy) for i, geom in enumerate(geometries)}
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

    geoms = [geometries[i] for i in hyper]
    [(_h, head_masks)], [(_t, tail_masks)] = (
        replay_chunks([(part, None)], geoms, policy) for part in (head, tail)
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
    backend: Optional[str] = None,
    chunk_words: Optional[int] = None,
) -> List[ExecutionResult]:
    """Miss counts of ``policy`` at every geometry from one compiled trace.

    Replays the trace through ``policy``'s chunk kernel
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

    The replay runs in the calling process; ``backend`` accepts only
    ``"serial"`` or ``None`` (:func:`repro.runtime.backend.normalize_backend`).

    A trace that records a ``period`` (a compiled looped schedule) answers
    its ``mod``-indexed lru and direct geometries from two short slices
    first, in time proportional to one period (see :func:`_period_stats`
    for why that is exact and when it falls back); the other geometries
    take the replay above.
    """
    from repro.cache.policy import get_policy
    from repro.runtime.backend import default_chunk_words, normalize_backend
    from repro.runtime.replay import chunk_counts, replay_chunks
    from repro.runtime.streaming import ArrayChunkSource, ChunkedTrace

    normalize_backend(backend)
    # unknown names and wrong point types fail even when nothing is replayed
    check = get_policy(policy).check
    geometries = list(geometries)
    for geom in geometries:
        check(geom)
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
            chunks = replay_chunks(source, [geometries[i] for i in rest], policy)
            obs.add(obs_names.STREAM_CHUNKS, source.n_chunks)
            stats.update(zip(rest, chunk_counts(chunks, len(rest), len(PHASE_NAMES))))
    obs.add(obs_names.REPLAY_MISSES, sum(m for m, _c in stats.values()))
    return [_result_from_stats(trace, *stats[i]) for i in range(len(geometries))]


def measure_compiled(
    graph: StreamGraph,
    geometry: CacheGeometry,
    schedule: Schedule,
    layout_order: Optional[Iterable[str]] = None,
    policy: str = "lru",
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    chunk_words: Optional[int] = None,
) -> ExecutionResult:
    """Drop-in for ``Executor.measure``, via compilation: the same result,
    with no stepwise cache simulation.

    An ``lru`` or ``direct`` geometry of a flat schedule streams: the
    replay kernel reads the chunks :meth:`TraceCompiler.compile_chunks`
    yields as they come, under a recency carry trimmed to what the
    geometry can hold (:func:`~repro.runtime.replay.replay_chunks`), so the
    trace is never built and memory is O(chunk + cache blocks).  Chunks
    hold the configured default chunk size
    (:func:`repro.runtime.backend.configure`) or
    :data:`MEASURE_CHUNK_WORDS` accesses.  A configured trace
    cache (:func:`repro.runtime.trace_cache.configure`) is not consulted:
    no trace is built to keep.

    Every other case compiles the trace and replays it
    (:func:`simulate_trace`): ``opt`` and ``two_level``, whose kernels do
    not stream; a :class:`~repro.runtime.looped.LoopedSchedule`, whose
    period shortcut reads the compiled trace (:func:`compile_trace`); and
    an explicit ``chunk_words``, which compiles out of core into spilled
    segments (:func:`~repro.runtime.streaming.compile_trace_chunked`,
    O(``chunk_words``) peak memory).
    """
    layout = dict(layout_order=layout_order, placement=placement, gaps=gaps)
    if chunk_words is not None:
        from repro.runtime.streaming import compile_trace_chunked

        chunked = compile_trace_chunked(graph, schedule, geometry.block, chunk_words, **layout)
        return simulate_trace(chunked, [geometry], policy=policy)[0]
    if policy not in ("lru", "direct") or isinstance(schedule, LoopedSchedule):
        trace = compile_trace(graph, schedule, geometry.block, **layout)
        return simulate_trace(trace, [geometry], policy=policy)[0]
    from repro.runtime.backend import default_chunk_words
    from repro.runtime.replay import chunk_counts, replay_chunks

    compiler = TraceCompiler(
        graph, geometry.block, capacities=schedule.capacities, **layout
    )
    words = default_chunk_words() or MEASURE_CHUNK_WORDS
    chunks = replay_chunks(
        compiler.compile_chunks(schedule, chunk_words=words), [geometry], policy
    )
    obs.add(obs_names.REPLAY_GEOMETRIES, 1)
    with obs.span(obs_names.REPLAY, policy=policy):
        ((misses, counts),) = chunk_counts(chunks, 1, n_labels=len(PHASE_NAMES))
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, compiler.last.accesses)
    obs.add(obs_names.STREAM_CHUNKS, -(-compiler.last.accesses // words))
    obs.add(obs_names.REPLAY_MISSES, misses)
    return _result_from_stats(compiler.last, misses, counts.tolist())
