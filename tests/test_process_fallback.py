"""A chunked process sweep that loses a worker recomputes serially and says
so; any other worker error reaches the caller.

:func:`repro.runtime.streaming.simulate_stream` fans lru/direct chunks of a
:class:`~repro.runtime.streaming.ChunkedTrace` over a process pool.  Only a
broken pool (a worker that died) falls back to the sequential stream — with
the same answer, counted as ``replay.process_fallback`` — while an error
raised inside a worker propagates like any other.
"""

import os

import pytest

import repro.runtime.backend as backend_mod
from repro.cache.base import CacheGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.compiled import simulate_trace
from repro.runtime.streaming import compile_trace_chunked
from repro.runtime.trace_cache import TraceCache

B = 8

GEOMS = [
    CacheGeometry(size=8 * B, block=B, ways=1),
    CacheGeometry(size=16 * B, block=B, ways=2),
]


def _die(task):
    """A chunk worker that kills its own process."""
    os._exit(3)


def _boom(task):
    """A chunk worker that raises an ordinary error."""
    raise ValueError("boom in chunk worker")


@pytest.fixture
def chunked(tmp_path):
    g = pipeline([12, 20, 6, 28, 10])
    sched = single_appearance_schedule(g, n_iterations=12)
    cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
    return compile_trace_chunked(g, sched, B, chunk_words=157, cache=cache)


def test_dead_worker_falls_back_and_is_counted(chunked, monkeypatch):
    want = simulate_trace(chunked, GEOMS, policy="lru", backend="serial")
    monkeypatch.setattr(backend_mod, "_stream_chunk_worker", _die)
    with obs.capture(enabled=True) as cap:
        got = simulate_trace(
            chunked, GEOMS, policy="lru", backend="process", workers=2
        )
    assert got == want
    assert cap.snapshot["counters"][obs_names.REPLAY_PROCESS_FALLBACK] == 1


def test_worker_error_raises(chunked, monkeypatch):
    monkeypatch.setattr(backend_mod, "_stream_chunk_worker", _boom)
    with obs.capture(enabled=True) as cap:
        with pytest.raises(ValueError, match="boom in chunk worker"):
            simulate_trace(
                chunked, GEOMS, policy="lru", backend="process", workers=2
            )
    assert obs_names.REPLAY_PROCESS_FALLBACK not in cap.snapshot["counters"]
