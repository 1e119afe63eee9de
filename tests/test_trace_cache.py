"""Acceptance tests for :mod:`repro.runtime.trace_cache`.

The cache is only safe if its keys are *stable* (same input → same digest
in any process, any session) and *sensitive* (any semantic change — one
firing, one gap block, a different placement order — changes the digest).
Both directions are pinned here, the stability direction across real
interpreter boundaries via subprocesses.  On-disk robustness gets the same
treatment: a corrupted, truncated, or wrong-version entry must read as a
miss that recompiles — never a crash, never stale data.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import interleaved_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.mem.layout import layout_objects
from repro.runtime import trace_cache as tc
from repro.runtime.compiled import compile_trace, compile_trace_uncached
from repro.runtime.schedule import Schedule
from repro.runtime.trace_cache import (
    TraceCache,
    cached_compile_trace,
    trace_digest,
)

B = 8
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def workload():
    g = fm_radio()
    sched = interleaved_schedule(g, n_iterations=2)
    return g, sched


# ----------------------------------------------------------------------
# digest stability
# ----------------------------------------------------------------------
_DIGEST_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.baselines import interleaved_schedule
from repro.graphs.apps import fm_radio
from repro.runtime.trace_cache import trace_digest

g = fm_radio()
sched = interleaved_schedule(g, n_iterations=2)
print(trace_digest(g, sched, {block}))
"""


def _digest_in_fresh_interpreter(block: int = B) -> str:
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT.format(src=SRC, block=block)],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


class TestDigestStability:
    def test_repeated_calls_agree(self, workload):
        g, sched = workload
        assert trace_digest(g, sched, B) == trace_digest(g, sched, B)

    def test_digest_is_lowercase_sha256_hex(self, workload):
        g, sched = workload
        key = trace_digest(g, sched, B)
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_stable_across_interpreter_sessions(self, workload):
        # two *separate* fresh interpreters and this one must all agree —
        # the digest may not depend on hash seeds, id()s, or dict order
        g, sched = workload
        here = trace_digest(g, sched, B)
        assert _digest_in_fresh_interpreter() == here
        assert _digest_in_fresh_interpreter() == here

    def test_rebuilt_equal_inputs_agree_in_process(self):
        g1, s1 = fm_radio(), None
        s1 = interleaved_schedule(g1, n_iterations=2)
        g2 = fm_radio()
        s2 = interleaved_schedule(g2, n_iterations=2)
        assert trace_digest(g1, s1, B) == trace_digest(g2, s2, B)


class TestDigestSensitivity:
    def test_one_firing_changes_the_key(self, workload):
        g, sched = workload
        base = trace_digest(g, sched, B)
        longer = sched.extended([sched.firings[0]])
        dropped = Schedule(
            sched.firings[:-1], capacities=sched.capacities, label=sched.label
        )
        swapped = list(sched.firings)
        i = next(k for k in range(len(swapped) - 1) if swapped[k] != swapped[k + 1])
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        reordered = Schedule(swapped, capacities=sched.capacities, label=sched.label)
        assert len({base, trace_digest(g, longer, B),
                    trace_digest(g, dropped, B),
                    trace_digest(g, reordered, B)}) == 4

    def test_block_size_changes_the_key(self, workload):
        g, sched = workload
        assert trace_digest(g, sched, B) != trace_digest(g, sched, 2 * B)

    def test_capacities_change_the_key(self, workload):
        g, sched = workload
        caps = {cid: 64 for cid in sched.capacities}
        bumped = dict(caps)
        bumped[0] = 128
        assert trace_digest(g, sched, B, capacities=caps) != trace_digest(
            g, sched, B, capacities=bumped
        )

    def test_layout_order_changes_the_key(self, workload):
        g, sched = workload
        names = [m.name for m in g.modules()]
        assert trace_digest(g, sched, B, layout_order=names) != trace_digest(
            g, sched, B, layout_order=list(reversed(names))
        )

    def test_count_external_changes_the_key(self, workload):
        g, sched = workload
        assert trace_digest(g, sched, B, count_external=True) != trace_digest(
            g, sched, B, count_external=False
        )

    def test_placement_order_and_one_gap_block_change_the_key(self, workload):
        g, sched = workload
        objs = layout_objects(g)
        base = trace_digest(g, sched, B, placement=objs)
        flipped = trace_digest(g, sched, B, placement=list(reversed(objs)))
        one_gap = trace_digest(g, sched, B, placement=objs, gaps={objs[0]: 1})
        two_gap = trace_digest(g, sched, B, placement=objs, gaps={objs[0]: 2})
        assert len({base, flipped, one_gap, two_gap}) == 4

    def test_gap_dict_order_does_not_matter(self, workload):
        g, sched = workload
        objs = layout_objects(g)
        a = {objs[0]: 1, objs[1]: 2}
        b = {objs[1]: 2, objs[0]: 1}
        assert trace_digest(g, sched, B, placement=objs, gaps=a) == trace_digest(
            g, sched, B, placement=objs, gaps=b
        )


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
def _compile(workload, block=B, **kwargs):
    g, sched = workload
    return compile_trace_uncached(g, sched, block, **kwargs)


class TestTraceCacheStore:
    def test_roundtrip_preserves_every_field(self, workload, tmp_path):
        g, sched = workload
        cache = TraceCache(tmp_path)
        key = trace_digest(g, sched, B)
        trace = _compile(workload)
        cache.put(key, trace)
        got = cache.get(key)
        assert got is not None
        assert np.array_equal(got.blocks, trace.blocks)
        assert got.phases is not None and np.array_equal(got.phases, trace.phases)
        assert got.label == trace.label
        assert got.block == trace.block
        assert got.firings == trace.firings
        assert got.fire_counts == trace.fire_counts
        assert got.source_fires == trace.source_fires
        assert got.sink_fires == trace.sink_fires
        assert cache.counters.hits == 1 and cache.counters.misses == 0

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.get("ab" * 32) is None
        assert cache.counters.misses == 1 and cache.counters.corrupt == 0

    @pytest.mark.parametrize("bad", ["", "XYZ", "AB" * 32, "../../etc/passwd", "g" * 64])
    def test_non_hex_keys_rejected(self, tmp_path, bad):
        cache = TraceCache(tmp_path)
        with pytest.raises(CacheConfigError, match="hex"):
            cache.get(bad)

    def test_nonpositive_cap_rejected(self, tmp_path):
        with pytest.raises(CacheConfigError, match="max_bytes"):
            TraceCache(tmp_path, max_bytes=0)

    def test_len_total_bytes_clear(self, workload, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("aa" * 32, _compile(workload))
        cache.put("bb" * 32, _compile(workload, block=2 * B))
        assert len(cache) == 2
        assert cache.total_bytes() > 0
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes() == 0


class TestCorruptionRecovery:
    def _seeded(self, workload, tmp_path):
        cache = TraceCache(tmp_path)
        key = "cd" * 32
        cache.put(key, _compile(workload))
        return cache, key, cache._entry_path(key)

    def test_truncated_entry_recompiles_not_crashes(self, workload, tmp_path):
        cache, key, entry = self._seeded(workload, tmp_path)
        entry.write_bytes(entry.read_bytes()[:40])
        assert cache.get(key) is None
        assert cache.counters.corrupt == 1 and cache.counters.misses == 1
        assert not entry.exists()  # poisoned entry removed, not retried forever

    def test_garbage_entry_recompiles_not_crashes(self, workload, tmp_path):
        cache, key, entry = self._seeded(workload, tmp_path)
        entry.write_bytes(b"not an npz archive at all")
        assert cache.get(key) is None
        assert cache.counters.corrupt == 1

    def test_wrong_format_version_reads_as_corrupt(self, workload, tmp_path, monkeypatch):
        cache, key, entry = self._seeded(workload, tmp_path)
        monkeypatch.setattr(tc, "FORMAT_VERSION", tc.FORMAT_VERSION + 1)
        assert cache.get(key) is None
        assert cache.counters.corrupt == 1

    def test_key_mismatch_reads_as_corrupt(self, workload, tmp_path):
        cache, key, entry = self._seeded(workload, tmp_path)
        other = "ef" * 32
        os.replace(entry, cache._entry_path(other))  # entry filed under wrong key
        assert cache.get(other) is None
        assert cache.counters.corrupt == 1

    def test_cached_compile_recovers_from_corruption(self, workload, tmp_path):
        g, sched = workload
        cache = TraceCache(tmp_path)
        trace, key, hit = cached_compile_trace(g, sched, B, cache=cache)
        assert not hit
        cache._entry_path(key).write_bytes(b"\x00" * 16)
        again, key2, hit2 = cached_compile_trace(g, sched, B, cache=cache)
        assert key2 == key and not hit2  # recompiled, silently
        assert np.array_equal(again.blocks, trace.blocks)
        # and the rewritten entry is healthy again
        _third, _k, hit3 = cached_compile_trace(g, sched, B, cache=cache)
        assert hit3


class TestLRUEviction:
    def _put_sized(self, cache, key, workload, block):
        cache.put(key, _compile(workload, block=block))
        return cache._entry_path(key).stat().st_size

    def test_least_recently_used_goes_first(self, workload, tmp_path):
        cache = TraceCache(tmp_path, max_bytes=10**9)
        a, b, c = "aa" * 32, "bb" * 32, "cc" * 32
        size = self._put_sized(cache, a, workload, B)
        self._put_sized(cache, b, workload, 2 * B)
        # age the entries deterministically (mtime is the LRU clock), then
        # touch `a` through a hit so `b` becomes the oldest
        os.utime(cache._entry_path(a), (1000, 1000))
        os.utime(cache._entry_path(b), (2000, 2000))
        assert cache.get(a) is not None
        cache.max_bytes = int(2.2 * size)
        self._put_sized(cache, c, workload, 4 * B)
        assert not cache._entry_path(b).exists()
        assert cache._entry_path(a).exists() and cache._entry_path(c).exists()
        assert cache.counters.evictions == 1

    def test_put_never_evicts_its_own_payload(self, workload, tmp_path):
        cache = TraceCache(tmp_path, max_bytes=1)  # cap below any entry
        cache.put("aa" * 32, _compile(workload))
        assert len(cache) == 1  # oversized entry stored, and is the only one
        cache.put("bb" * 32, _compile(workload, block=2 * B))
        assert len(cache) == 1
        assert cache._entry_path("bb" * 32).exists()
        assert cache.counters.evictions == 1

    def test_under_cap_never_evicts(self, workload, tmp_path):
        cache = TraceCache(tmp_path)
        for key in ("aa" * 32, "bb" * 32, "cc" * 32):
            cache.put(key, _compile(workload))
        assert len(cache) == 3 and cache.counters.evictions == 0


# ----------------------------------------------------------------------
# the front door + configured default
# ----------------------------------------------------------------------
class TestCachedCompile:
    def test_no_cache_no_key_is_plain_compile(self, workload):
        g, sched = workload
        trace, key, hit = cached_compile_trace(g, sched, B)
        assert key == "" and not hit
        assert np.array_equal(trace.blocks, _compile(workload).blocks)

    def test_precomputed_key_is_trusted(self, workload, tmp_path):
        g, sched = workload
        cache = TraceCache(tmp_path)
        key = trace_digest(g, sched, B)
        _t, k1, h1 = cached_compile_trace(g, sched, B, cache=cache, key=key)
        assert k1 == key and not h1
        _t2, k2, h2 = cached_compile_trace(g, sched, B, cache=cache, key=key)
        assert k2 == key and h2

    def test_hit_returns_fresh_arrays(self, workload, tmp_path):
        # cached traces must be safe to remap/slice without aliasing
        g, sched = workload
        cache = TraceCache(tmp_path)
        cached_compile_trace(g, sched, B, cache=cache)
        t1, _k, _h = cached_compile_trace(g, sched, B, cache=cache)
        t2, _k, _h = cached_compile_trace(g, sched, B, cache=cache)
        t1.blocks[0] = -999
        assert t2.blocks[0] != -999

    def test_compile_trace_consults_configured_default(self, workload, tmp_path):
        g, sched = workload
        cache = TraceCache(tmp_path)
        prev = tc.configure(cache)
        try:
            cold = compile_trace(g, sched, B)
            warm = compile_trace(g, sched, B)
        finally:
            tc.configure(prev)
        assert cache.counters.misses == 1 and cache.counters.hits == 1
        assert np.array_equal(cold.blocks, warm.blocks)
        assert len(cache) == 1

    def test_configure_accepts_paths_and_restores(self, tmp_path):
        prev = tc.configure(tmp_path / "cachedir")
        try:
            installed = tc.default_cache()
            assert isinstance(installed, TraceCache)
            assert installed.path == tmp_path / "cachedir"
        finally:
            tc.configure(prev)
        assert tc.default_cache() is prev
