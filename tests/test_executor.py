"""Tests for the firing engine (executor) — the measurement instrument."""

import pytest

from repro.cache.base import CacheGeometry
from repro.cache.lru import LRUCache
from repro.errors import ScheduleError
from repro.graphs.minbuf import min_buffers
from repro.graphs.sdf import StreamGraph
from repro.graphs.topologies import pipeline
from repro.mem.trace import TracingCache
from repro.runtime.executor import (
    Executor,
    sink_stream_words,
    source_stream_words,
)
from repro.runtime.schedule import Schedule


def make(graph, M=64, B=8, **kw):
    return Executor(graph, CacheGeometry(size=M, block=B), **kw)


class TestFire:
    def test_moves_tokens(self):
        g = pipeline([8, 8])
        ex = make(g)
        ex.fire("m0")
        assert ex.tokens()[0] == 1
        ex.fire("m1")
        assert ex.tokens()[0] == 0

    def test_insufficient_input_rejected(self):
        g = pipeline([8, 8])
        ex = make(g)
        with pytest.raises(ScheduleError):
            ex.fire("m1")

    def test_full_output_rejected(self):
        g = pipeline([8, 8])
        ex = make(g, capacities={0: 2})
        ex.fire("m0")
        ex.fire("m0")
        with pytest.raises(ScheduleError):
            ex.fire("m0")

    def test_state_touched_on_every_firing(self):
        g = pipeline([64, 0])
        ex = make(g, M=32, B=8)  # state 64 = 8 blocks > 4-frame cache
        ex.fire("m0")
        ex.fire("m0")
        # state cannot fit: every firing re-misses all 8 state blocks
        assert ex.cache.stats.phase_misses["state"] == 16

    def test_state_cached_when_fits(self):
        g = pipeline([16, 0])
        ex = make(g, M=64, B=8)
        for _ in range(10):
            ex.fire("m0")
            ex.fire("m1")
        assert ex.cache.stats.phase_misses["state"] == 2  # two cold blocks

    def test_external_stream_charged_per_block(self):
        g = pipeline([0, 0])
        ex = make(g, M=64, B=8)
        for _ in range(16):
            ex.fire("m0")
            ex.fire("m1")
        # 16 input words + 16 output words at 8 words/block = 2+2 misses
        assert ex.cache.stats.phase_misses["stream"] == 4

    def test_multirate_source_advances_stream_per_token(self):
        # source produces 4 tokens/firing: external input must advance by 4
        # words per firing, not 1 — the paper's per-data-item normalization
        g = StreamGraph("multirate")
        g.add_module("m0", state=0)
        g.add_module("m1", state=0)
        g.add_channel("m0", "m1", out_rate=4, in_rate=1)
        assert source_stream_words(g, "m0") == 4
        assert sink_stream_words(g, "m1") == 1
        ex = Executor(g, CacheGeometry(size=64, block=8))
        for _ in range(8):
            ex.fire("m0")
            for _ in range(4):
                ex.fire("m1")
        # 8 source firings x 4 words = 32 input words = 4 blocks; the sink
        # consumes 1/firing x 32 firings = 32 output words = 4 more blocks
        assert ex._ext_in_pos == 32
        assert ex._ext_out_pos == 32
        assert ex.cache.stats.phase_misses["stream"] == 8

    def test_multirate_sink_advances_stream_per_token(self):
        g = StreamGraph("downrate")
        g.add_module("m0", state=0)
        g.add_module("m1", state=0)
        g.add_channel("m0", "m1", out_rate=1, in_rate=4)
        assert source_stream_words(g, "m0") == 1
        assert sink_stream_words(g, "m1") == 4
        ex = Executor(g, CacheGeometry(size=64, block=8))
        for _ in range(4):
            for _ in range(4):
                ex.fire("m0")
            ex.fire("m1")
        assert ex._ext_in_pos == 16
        assert ex._ext_out_pos == 16

    def test_fanout_source_counts_broadcast_items_once(self):
        # duplicate-splitter convention: one item feeds every branch, so a
        # fan-out source reads max(out_rate), not the sum over channels
        g = StreamGraph("fanout")
        g.add_module("src", state=0)
        g.add_module("a", state=0)
        g.add_module("b", state=0)
        g.add_module("c", state=0)
        for branch in ("a", "b", "c"):
            g.add_channel("src", branch, out_rate=1, in_rate=1)
        assert source_stream_words(g, "src") == 1
        # mirror for a fan-in sink
        g2 = StreamGraph("fanin")
        g2.add_module("a", state=0)
        g2.add_module("b", state=0)
        g2.add_module("snk", state=0)
        g2.add_channel("a", "snk", out_rate=1, in_rate=2)
        g2.add_channel("b", "snk", out_rate=1, in_rate=1)
        assert sink_stream_words(g2, "snk") == 2

    def test_isolated_module_still_charges_one_word(self):
        g = StreamGraph("solo")
        g.add_module("m0", state=0)
        assert source_stream_words(g, "m0") == 1
        assert sink_stream_words(g, "m0") == 1

    def test_data_phase_counted(self):
        g = pipeline([0, 0])
        ex = make(g)
        ex.fire("m0")
        ex.fire("m1")
        assert ex.cache.stats.phase_misses.get("data", 0) >= 1


class TestRun:
    def test_run_returns_accounting(self):
        g = pipeline([8, 8, 8])
        sched = Schedule(["m0", "m1", "m2"] * 5, label="test")
        res = make(g).run(sched)
        assert res.label == "test"
        assert res.firings == 15
        assert res.source_fires == 5 and res.sink_fires == 5
        assert res.fire_counts == {"m0": 5, "m1": 5, "m2": 5}
        assert res.misses > 0
        assert res.misses_per_source_fire == res.misses / 5

    def test_misses_per_input_zero_when_nothing_happened(self):
        # no firings at all: zero misses cost zero, not inf
        g = pipeline([8, 8])
        res = make(g).result()
        assert res.misses_per_source_fire == 0.0

    def test_misses_per_input_inf_when_sourceless_misses(self):
        # misses without any source firing have no per-input normalization
        g = pipeline([8, 8])
        ex = make(g)
        ex.fire("m0")
        res = ex.result()
        res.source_fires = 0
        assert res.misses > 0
        assert res.misses_per_source_fire == float("inf")

    def test_summary_mentions_phases(self):
        g = pipeline([8, 8])
        res = make(g).run(Schedule(["m0", "m1"]))
        assert "misses" in res.summary()

    def test_measure_oneshot(self):
        g = pipeline([8, 8])
        res = Executor.measure(
            g, CacheGeometry(size=64, block=8), Schedule(["m0", "m1"], capacities={0: 4})
        )
        assert res.firings == 2

    def test_measure_with_tracing_cache(self):
        g = pipeline([8, 8])
        geo = CacheGeometry(size=64, block=8)
        cache = TracingCache(LRUCache(geo))
        Executor.measure(g, geo, Schedule(["m0", "m1"]), cache=cache)
        assert len(cache.recorder.blocks) > 0


class TestLayout:
    def test_capacities_merged_over_minbuf(self):
        g = pipeline([8, 8, 8])
        ex = make(g, capacities={0: 100})
        assert ex.capacities[0] == 100
        assert ex.capacities[1] == min_buffers(g)[1]

    def test_layout_order_changes_addresses(self):
        g = pipeline([8, 8])
        a = make(g)
        b = make(g, layout_order=["m1", "m0"])
        assert (
            a.layout.state_region("m0").start != b.layout.state_region("m0").start
        )

    def test_external_regions_disjoint_from_layout(self):
        g = pipeline([8, 8])
        ex = make(g)
        assert ex._ext_in_base >= ex.layout.footprint

    def test_layout_always_disjoint(self):
        g = pipeline([8, 8, 8])
        ex = make(g, capacities={0: 37, 1: 13})
        ex.layout.check_disjoint()


class TestCacheBehaviorEndToEnd:
    def test_small_graph_fits_no_steady_state_misses(self):
        g = pipeline([8, 8])
        ex = make(g, M=128, B=8)
        sched = ["m0", "m1"] * 50
        for name in sched:
            ex.fire(name)
        # after warmup, state and the 1-token buffers live in cache; the
        # only misses off the external streams are the cold ones
        stats = ex.cache.stats
        assert stats.misses - stats.phase_misses.get("stream", 0) <= 4

    def test_interleaved_large_graph_thrashes(self):
        n, s = 10, 32
        g = pipeline([s] * n)
        ex = make(g, M=64, B=8)
        per_pass = [f"m{i}" for i in range(n)]
        for _ in range(5):
            for name in per_pass:
                ex.fire(name)
        # every pass must reload essentially all state: 10 * 32/8 = 40/pass
        assert ex.cache.stats.misses >= 5 * (n * s // 8) * 0.8
