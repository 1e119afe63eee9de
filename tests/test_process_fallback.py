"""A process sweep that loses a worker recomputes in process and says so;
any other worker error reaches the caller.

:func:`repro.runtime.backend.replay_stats` runs the process backend for a
:class:`~repro.runtime.streaming.ChunkedTrace` (lru/direct chunks with
parent-built carries) and for an in-memory
:class:`~repro.runtime.compiled.CompiledTrace` (geometry slices).  On both,
only a broken pool (a worker that died) falls back to the in-process replay
— with the same answer, counted as ``replay.process_fallback`` — while an
error raised inside a worker propagates like any other.

The placement scorer's pool has no fallback: a lost worker raises
``BrokenProcessPool`` from ``score_per``, and closing the scorer still
unlinks the shared-memory segment it published.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import pytest

import repro.runtime.backend as backend_mod
from repro.cache.base import CacheGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.compiled import compile_trace, simulate_trace
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


def _workload():
    g = pipeline([12, 20, 6, 28, 10])
    return g, single_appearance_schedule(g, n_iterations=12)


@pytest.fixture
def chunked(tmp_path):
    g, sched = _workload()
    cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
    return compile_trace_chunked(g, sched, B, chunk_words=157, cache=cache)


@pytest.fixture
def in_memory():
    g, sched = _workload()
    return compile_trace(g, sched, B)


def test_dead_worker_falls_back_and_is_counted(chunked, monkeypatch):
    want = simulate_trace(chunked, GEOMS, policy="lru", backend="serial")
    monkeypatch.setattr(backend_mod, "_replay_task", _die)
    with obs.capture(enabled=True) as cap:
        got = simulate_trace(
            chunked, GEOMS, policy="lru", backend="process", workers=2
        )
    assert got == want
    assert cap.snapshot["counters"][obs_names.REPLAY_PROCESS_FALLBACK] == 1


def test_worker_error_raises(chunked, monkeypatch):
    monkeypatch.setattr(backend_mod, "_replay_task", _boom)
    with obs.capture(enabled=True) as cap:
        with pytest.raises(ValueError, match="boom in chunk worker"):
            simulate_trace(
                chunked, GEOMS, policy="lru", backend="process", workers=2
            )
    assert obs_names.REPLAY_PROCESS_FALLBACK not in cap.snapshot["counters"]


@pytest.mark.parametrize("policy", ["lru", "opt"])
def test_in_memory_dead_worker_falls_back_and_is_counted(
    in_memory, monkeypatch, policy
):
    want = simulate_trace(in_memory, GEOMS, policy=policy, backend="serial")
    monkeypatch.setattr(backend_mod, "_replay_task", _die)
    with obs.capture(enabled=True) as cap:
        got = simulate_trace(
            in_memory, GEOMS, policy=policy, backend="process", workers=2
        )
    assert got == want
    assert cap.snapshot["counters"][obs_names.REPLAY_PROCESS_FALLBACK] == 1


def test_in_memory_worker_error_raises(in_memory, monkeypatch):
    monkeypatch.setattr(backend_mod, "_replay_task", _boom)
    with obs.capture(enabled=True) as cap:
        with pytest.raises(ValueError, match="boom in chunk worker"):
            simulate_trace(
                in_memory, GEOMS, policy="lru", backend="process", workers=2
            )
    assert obs_names.REPLAY_PROCESS_FALLBACK not in cap.snapshot["counters"]


def test_scorer_lost_worker_raises_and_unlinks(monkeypatch):
    from repro.mem.placement import _placed_starts, build_instance, normalize_targets
    from repro.runtime.backend import CandidateScorer

    created = []
    real = shared_memory.SharedMemory

    class Recording(real):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                created.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
    monkeypatch.setattr(backend_mod, "_score_candidate_remote", _die)
    g, sched = _workload()
    instance = build_instance(g, sched, B)
    targets = normalize_targets([(GEOMS[0], "direct", 1.0)], block=B)
    starts = _placed_starts(instance, list(range(instance.n_objects)))
    with CandidateScorer(instance, targets, backend="process", workers=2) as scorer:
        began = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            scorer.score_per([starts, starts])
        # raises at once (about 0.1 s here); the bound only rules out a hang
        assert time.monotonic() - began < 30
    assert len(created) == 1
    with pytest.raises(FileNotFoundError):
        real(name=created[0])
