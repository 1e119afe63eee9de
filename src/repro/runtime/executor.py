"""The firing engine: executes schedules against the cache simulator.

This is the measurement instrument for every experiment.  Executing a firing
of module ``v`` does exactly what Section 2 prescribes:

1. *load state* — touch all ``s(v)`` words of ``v``'s state region ("the
   entire state of that module must be loaded into the cache");
2. *consume* — pop ``in(u, v)`` tokens from each input channel, touching the
   popped words in the channel's circular buffer;
3. *produce* — push ``out(v, w)`` tokens on each output channel, touching
   the written words.

Sources additionally read fresh words from an unbounded external input
stream and sinks write to an external output stream (monotonically
increasing addresses ⇒ one compulsory miss per ``B`` tokens).  A source
firing reads one external word per token it produces and a sink firing
writes one word per token it consumes (:func:`source_stream_words` /
:func:`sink_stream_words`), so multi-rate graphs pay the stream cost per
*data item*, not per firing.  This keeps the accounting identical across
schedulers — every schedule pays the same Θ(T/B) stream cost, matching the
paper's "per data item that enters the graph" normalization — and can be
disabled for experiments that charge only internal traffic.

Misses are attributed to phases (``state`` / ``data`` / ``stream``) so
experiments can decompose cost the way Lemma 4 and Lemma 8 do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.base import CacheGeometry, CacheModel
from repro.cache.lru import LRUCache
from repro.errors import ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import MemoryLayout, ObjectKey
from repro.runtime.buffers import ChannelBuffer
from repro.runtime.schedule import Schedule

__all__ = [
    "Executor",
    "ExecutionResult",
    "EXT_OUT_SPAN",
    "build_memory_plan",
    "require_input_tokens",
    "require_output_space",
    "source_stream_words",
    "sink_stream_words",
]

#: Words between the external input and output stream arenas.  Shared with
#: the placement remap (:mod:`repro.mem.placement`), which must reproduce
#: this arithmetic exactly to relocate stream blocks.
EXT_OUT_SPAN = 1 << 40


def require_input_tokens(name: str, src: str, dst: str, have: int, need: int) -> None:
    """Section 2 schedulability: a firing must find its input tokens.

    Shared by the executor and the trace compiler so the rule (and its
    diagnostic) cannot drift between the two paths.
    """
    if have < need:
        raise ScheduleError(
            f"firing {name!r}: channel {src}->{dst} has {have} tokens, needs {need}"
        )


def require_output_space(name: str, src: str, dst: str, free: int, need: int) -> None:
    """Section 2 schedulability: a firing must find room for its outputs."""
    if free < need:
        raise ScheduleError(
            f"firing {name!r}: channel {src}->{dst} lacks space "
            f"({free} free, needs {need})"
        )


def build_memory_plan(
    graph: StreamGraph,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> Tuple[Dict[int, int], MemoryLayout, int, int]:
    """Shared Executor / TraceCompiler memory setup.

    Returns ``(caps, layout, ext_in_base, ext_out_base)``: the minBuf-overlaid
    buffer capacities, the placed :class:`~repro.mem.layout.MemoryLayout`,
    and the block-aligned external stream arena bases.  Both execution paths
    build from this one function so their address spaces — and therefore
    their block traces — can never drift apart.

    ``layout_order`` keeps the state-first convention; ``placement`` fixes
    the complete object order (state regions and buffers interleaved) the
    way :meth:`repro.mem.layout.MemoryLayout.place_graph` documents —
    conflict-aware optimized layouts come through here.  ``gaps`` inserts
    deliberate block-granular padding before chosen objects (same
    semantics as ``place_graph(gaps=)``); the stream arenas shift with the
    padded footprint, which the placement remap reproduces to the word.
    """
    # Start from minBuf everywhere and overlay the caller's sizes, so a
    # scheduler may specify only the channels it enlarges (cross edges).
    caps = dict(min_buffers(graph))
    if capacities:
        caps.update(capacities)
    layout = MemoryLayout(block=block)
    layout.place_graph(graph, caps, order=layout_order, placement=placement, gaps=gaps)
    layout.check_disjoint()
    # External streams live beyond the layout footprint, in disjoint
    # half-open arenas that only ever grow forward.  Block-aligned so
    # stream traffic costs exactly one miss per B tokens.
    ext_in_base = (layout.footprint // block + 2) * block
    # far beyond any input position, and itself block-aligned
    ext_out_base = ext_in_base + (EXT_OUT_SPAN // block) * block
    return caps, layout, ext_in_base, ext_out_base


def source_stream_words(graph: StreamGraph, name: str) -> int:
    """External input words a source firing consumes.

    A source emitting ``k`` tokens per firing on a channel reads ``k`` fresh
    items; a source fanning out to several channels is treated as a
    duplicate splitter (the StreamIt broadcast convention), reading each
    item once however many branches receive it — hence the max over
    channels, not the sum.  An isolated module (no channels at all) still
    counts as one item per firing.
    """
    return max([ch.out_rate for ch in graph.out_channels(name)], default=1)


def sink_stream_words(graph: StreamGraph, name: str) -> int:
    """External output words a sink firing produces (mirror convention:
    ``k`` tokens consumed from a channel emit ``k`` items; fan-in branches
    are merged copies of one result stream, counted once)."""
    return max([ch.in_rate for ch in graph.in_channels(name)], default=1)


@dataclass
class ExecutionResult:
    """Outcome of running one schedule through the simulator."""

    label: str
    firings: int
    misses: int
    accesses: int
    phase_misses: Dict[str, int] = field(default_factory=dict)
    fire_counts: Dict[str, int] = field(default_factory=dict)
    source_fires: int = 0
    sink_fires: int = 0

    @property
    def misses_per_source_fire(self) -> float:
        """Amortized cache misses per input item — the paper's unit of cost.

        A run with zero misses costs 0.0 whether or not any source fired; a
        sourceless run that did miss has no per-input normalization and
        reports ``inf``.
        """
        if self.source_fires:
            return self.misses / self.source_fires
        return 0.0 if self.misses == 0 else float("inf")

    def summary(self) -> str:
        phases = ", ".join(f"{k}={v}" for k, v in sorted(self.phase_misses.items()))
        return (
            f"{self.label}: misses={self.misses} ({phases}) over {self.firings} firings, "
            f"{self.source_fires} inputs -> {self.misses_per_source_fire:.3f} misses/input"
        )


class Executor:
    """Binds a graph + buffer sizes + cache model into a runnable system.

    Parameters
    ----------
    graph:
        Stream graph to execute.
    geometry:
        Cache geometry (M, B).
    capacities:
        Channel id -> buffer capacity in tokens.  Defaults to ``minBuf`` on
        every channel (paper convention) — partition schedulers pass their
        enlarged cross-edge capacities instead.
    cache:
        Cache model instance; defaults to a fresh fully-associative LRU of
        ``geometry``.  Pass a :class:`repro.mem.trace.TracingCache` to record
        block traces.
    layout_order:
        Module placement order for the state arena (default topological);
        partition schedulers pass component-grouped orders.
    placement:
        Complete object placement (state + buffer keys, mutually exclusive
        with ``layout_order``) — optimized layouts from
        :mod:`repro.mem.placement`.
    gaps:
        Deliberate block-granular padding per object key (see
        :meth:`repro.mem.layout.MemoryLayout.place_graph`).

    Source input reads and sink output writes are always charged against
    the cache: every schedule pays the same external-stream cost per data
    item, as in the paper's model.
    """

    def __init__(
        self,
        graph: StreamGraph,
        geometry: CacheGeometry,
        capacities: Optional[Dict[int, int]] = None,
        cache: Optional[CacheModel] = None,
        layout_order: Optional[Iterable[str]] = None,
        placement: Optional[Sequence[ObjectKey]] = None,
        gaps: Optional[Dict[ObjectKey, int]] = None,
    ) -> None:
        self.graph = graph
        self.geometry = geometry
        self.cache = cache if cache is not None else LRUCache(geometry)
        caps, self.layout, self._ext_in_base, self._ext_out_base = build_memory_plan(
            graph, geometry.block, capacities=capacities, layout_order=layout_order,
            placement=placement, gaps=gaps,
        )
        self.capacities = caps
        self.buffers: Dict[int, ChannelBuffer] = {
            cid: ChannelBuffer(cid, self.layout.buffer_region(cid)) for cid in caps
        }
        for ch in graph.channels():
            if ch.delay:
                self.buffers[ch.cid].prefill(ch.delay)

        sources = graph.sources()
        sinks = graph.sinks()
        self._source_set = set(sources)
        self._sink_set = set(sinks)
        self._ext_in_pos = 0
        self._ext_out_pos = 0
        self._source_words = {n: source_stream_words(graph, n) for n in sources}
        self._sink_words = {n: sink_stream_words(graph, n) for n in sinks}

        self._fire_counts: Dict[str, int] = {}
        self._total_firings = 0
        self._source_fires = 0
        self._sink_fires = 0

    # ------------------------------------------------------------------
    def tokens(self) -> Dict[int, int]:
        """Current channel occupancies."""
        return {cid: buf.tokens for cid, buf in self.buffers.items()}

    def fire(self, name: str) -> None:
        """Execute one firing of ``name`` (validates feasibility)."""
        graph = self.graph
        mod = graph.module(name)
        cache = self.cache
        stats = cache.stats

        in_chs = graph.in_channels(name)
        out_chs = graph.out_channels(name)
        for ch in in_chs:
            require_input_tokens(name, ch.src, ch.dst, self.buffers[ch.cid].tokens, ch.in_rate)
        for ch in out_chs:
            require_output_space(name, ch.src, ch.dst, self.buffers[ch.cid].free, ch.out_rate)

        stats.set_phase("state")
        region = self.layout.state_region(name)
        if region.length:
            cache.access_range(region.start, region.length)

        stats.set_phase("data")
        for ch in in_chs:
            for start, length in self.buffers[ch.cid].pop_ranges(ch.in_rate):
                cache.access_range(start, length)
        for ch in out_chs:
            for start, length in self.buffers[ch.cid].push_ranges(ch.out_rate):
                cache.access_range(start, length)

        stats.set_phase("stream")
        if name in self._source_set:
            k = self._source_words[name]
            cache.access_range(self._ext_in_base + self._ext_in_pos, k)
            self._ext_in_pos += k
        if name in self._sink_set:
            k = self._sink_words[name]
            cache.access_range(self._ext_out_base + self._ext_out_pos, k)
            self._ext_out_pos += k
        stats.set_phase("")

        self._fire_counts[name] = self._fire_counts.get(name, 0) + 1
        self._total_firings += 1
        if name in self._source_set:
            self._source_fires += 1
        if name in self._sink_set:
            self._sink_fires += 1

    def run(self, schedule: Schedule) -> ExecutionResult:
        """Execute every firing of ``schedule`` and return the accounting.

        Accepts a flat :class:`Schedule` or a
        :class:`repro.runtime.looped.LoopedSchedule` (anything exposing
        ``firings_iter()`` or ``firings``) — iteration only, never indexing,
        so looped schedules run without being materialized."""
        it = (
            schedule.firings_iter()
            if hasattr(schedule, "firings_iter")
            else schedule.firings
        )
        for name in it:
            self.fire(name)
        return self.result(schedule.label)

    def result(self, label: str = "run") -> ExecutionResult:
        stats = self.cache.stats
        return ExecutionResult(
            label=label,
            firings=self._total_firings,
            misses=stats.misses,
            accesses=stats.accesses,
            phase_misses=dict(stats.phase_misses),
            fire_counts=dict(self._fire_counts),
            source_fires=self._source_fires,
            sink_fires=self._sink_fires,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def measure(
        graph: StreamGraph,
        geometry: CacheGeometry,
        schedule: Schedule,
        layout_order: Optional[Iterable[str]] = None,
        cache: Optional[CacheModel] = None,
        placement: Optional[Sequence[ObjectKey]] = None,
        gaps: Optional[Dict[ObjectKey, int]] = None,
    ) -> ExecutionResult:
        """One-shot convenience: build an executor with the schedule's own
        capacities, run it, return the result."""
        ex = Executor(
            graph,
            geometry,
            capacities=schedule.capacities,
            layout_order=layout_order,
            cache=cache,
            placement=placement,
            gaps=gaps,
        )
        return ex.run(schedule)
