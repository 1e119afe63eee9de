"""Acceptance tests for :mod:`repro.runtime.backend`.

The backend contract has three load-bearing clauses, each pinned here:

* **Resolution** — two backends, ``serial`` and ``process``; a process
  backend with no width gets every core, whoever chose it.
* **Ordering** — the process fan-out returns each geometry's counts in
  input order, even when completion order is adversarial (earlier slices
  finish last); the serial backend builds no pool at all.
* **Clamping** — pool width is ``min(workers, len(items), cpu_count)``;
  zero/negative/``None`` means width 1.
* **Bit-identity** — ``backend="process"`` answers are byte-for-byte the
  serial answers for *every registered policy*.
  The serial side is itself anchored to the stepwise engines with
  :func:`~repro.testing.harness.differential_grid`, so the chain
  stepwise oracle == serial replay == process replay holds per access.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.core.baselines import interleaved_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.mem.placement import build_instance, normalize_targets, swap_refine
from repro.runtime import backend as backend_mod
from repro.runtime.backend import (
    BACKENDS,
    CandidateScorer,
    SharedArrays,
    configure,
    effective_workers,
    normalize_backend,
    process_sweep,
    resolve,
)
from repro.runtime.compiled import compile_trace, simulate_trace
from repro.runtime.replay import replay_miss_masks
from repro.runtime.streaming import ArrayChunkSource
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle

B = 8


# -- module-level worker (the process pool looks it up by name) ---------
def _slow_echo_replay(task):
    """A replay worker whose first geometry slice finishes last; each
    geometry's "misses" is its own size, so a misplaced result shows."""
    _chunk, _carry, geometries, _policy = task
    if geometries[0].size == 32:
        time.sleep(0.2)
    return [(g.size, np.zeros(1, dtype=np.int64)) for g in geometries]


@pytest.fixture(scope="module")
def workload():
    g = fm_radio()
    sched = interleaved_schedule(g, n_iterations=2)
    trace = compile_trace(g, sched, B)
    return g, sched, trace


# ----------------------------------------------------------------------
# clamping + resolution
# ----------------------------------------------------------------------
class TestEffectiveWorkers:
    @pytest.mark.parametrize("workers", [None, 0, -1, 1])
    def test_none_zero_negative_one_mean_serial(self, workers):
        assert effective_workers(workers, 100) == 1

    def test_clamps_to_items_and_cores(self, monkeypatch):
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 4)
        assert effective_workers(8, 3) == 3      # item-bound
        assert effective_workers(64, 100) == 4   # core-bound
        assert effective_workers(2, 100) == 2    # request-bound

    def test_zero_items_floors_at_one(self, monkeypatch):
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 4)
        assert effective_workers(8, 0) == 1


class TestResolve:
    def test_unknown_backend_names_value_and_choices(self):
        with pytest.raises(CacheConfigError, match=r"'warp'"):
            normalize_backend("warp")
        with pytest.raises(CacheConfigError, match=r"serial.*process"):
            resolve("mpi", 2, 8)
        # the thread backend is gone: its name is as unknown as any other
        assert BACKENDS == ("serial", "process")
        with pytest.raises(CacheConfigError, match=r"'thread'"):
            resolve("thread", 2, 8)

    def test_default_preserves_historical_workers_contract(self):
        # backend=None, workers=None: no pool, ever — the pre-backend deal
        assert resolve(None, None, 64) == ("serial", 1)

    def test_serial_ignores_workers(self):
        assert resolve("serial", 16, 64) == ("serial", 1)

    def test_process_honoured_at_width_one(self):
        # differential tests rely on crossing a real process boundary even
        # on a one-core machine
        assert resolve("process", 1, 64) == ("process", 1)

    def test_explicit_process_defaults_to_all_cores(self, monkeypatch):
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 4)
        assert resolve("process", None, 64) == ("process", 4)

    def test_configured_process_defaults_to_all_cores(self, monkeypatch):
        # what `--backend process` without `--workers` installs: every
        # core, clamped — not a one-worker pool
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 4)
        prev = configure("process", None)
        try:
            assert resolve(None, None, 64) == ("process", 4)
            assert resolve(None, None, 3) == ("process", 3)
        finally:
            configure(*prev)

    def test_configure_installs_and_restores(self):
        prev = configure("process", 3)
        try:
            assert prev == ("serial", None, None)
            name, _width = resolve(None, None, 8)
            assert name == "process"
        finally:
            configure(*prev)
        assert resolve(None, None, 8) == ("serial", 1)


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
class TestFanOutOrdering:
    def test_serial_is_a_plain_map(self, workload, monkeypatch):
        # the serial backend replays in the calling process: no pool
        _g, _s, trace = workload
        grid = [CacheGeometry(size=s, block=B) for s in (64, 128)]
        want = simulate_trace(trace, grid, policy="lru")

        def no_pool(*args, **kwargs):
            raise AssertionError("the serial backend built a process pool")

        monkeypatch.setattr(backend_mod, "_process_pool", no_pool)
        got = simulate_trace(trace, grid, policy="lru", backend="serial", workers=4)
        assert got == want

    def test_process_order_survives_adversarial_completion(
        self, workload, monkeypatch
    ):
        _g, _s, trace = workload
        grid = [CacheGeometry(size=s, block=B) for s in (32, 64, 128, 256, 512, 1024)]
        monkeypatch.setattr(backend_mod, "_replay_task", _slow_echo_replay)
        source = ArrayChunkSource(trace.blocks, trace.phases, chunk_words=trace.accesses)
        stats = process_sweep(source, grid, "lru", workers=3)
        assert [m for m, _c in stats] == [g.size for g in grid]


# ----------------------------------------------------------------------
# shared-memory trace shipping
# ----------------------------------------------------------------------
class TestSharedTrace:
    """A compiled trace published through :class:`SharedArrays`, the one
    publisher both process pools use."""

    def test_roundtrip_blocks_and_phases(self):
        from multiprocessing import shared_memory

        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 50, size=257).astype(np.int64)
        phases = rng.integers(0, 4, size=257).astype(np.uint8)
        with SharedArrays(blocks=blocks, phases=phases) as shared:
            assert shared.layout == [
                ("blocks", "<i8", 257, 0), ("phases", "|u1", 257, 257 * 8)
            ]
            shm = shared_memory.SharedMemory(name=shared.name)
            try:
                view_b = np.ndarray((257,), dtype=np.int64, buffer=shm.buf)
                view_p = np.ndarray(
                    (257,), dtype=np.uint8, buffer=shm.buf, offset=257 * 8
                )
                assert np.array_equal(view_b, blocks)
                assert np.array_equal(view_p, phases)
                del view_b, view_p
            finally:
                shm.close()

    def test_unlinked_on_exit(self):
        from multiprocessing import shared_memory

        with SharedArrays(blocks=np.arange(4, dtype=np.int64)) as shared:
            name = shared.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_empty_trace_is_legal(self):
        with SharedArrays(
            blocks=np.zeros(0, dtype=np.int64), phases=None
        ) as shared:
            assert shared.layout == [("blocks", "<i8", 0, 0)]


# ----------------------------------------------------------------------
# the acceptance criterion: process == serial, per policy
# ----------------------------------------------------------------------
def _grids():
    """One geometry grid per policy worth sweeping, keyed ``(policy,
    "mod")``: every geometry indexes sets by ``block % sets``."""
    return {
        ("lru", "mod"): [
            CacheGeometry(size=64, block=B),
            CacheGeometry(size=128, block=B),
            CacheGeometry(size=256, block=B, ways=4),
            CacheGeometry(size=128, block=B, ways=2),
        ],
        ("direct", "mod"): [
            CacheGeometry(size=s, block=B, ways=1) for s in (64, 128, 256)
        ],
        ("opt", "mod"): [CacheGeometry(size=s, block=B) for s in (64, 128, 256)],
        ("two_level", "mod"): [
            TwoLevelGeometry(
                CacheGeometry(size=64, block=B), CacheGeometry(size=256, block=B)
            ),
            TwoLevelGeometry(
                CacheGeometry(size=64, block=B, ways=2),
                CacheGeometry(size=512, block=B, ways=4),
            ),
        ],
    }


_GRID_CASES = sorted(_grids().keys())


class TestProcessBackendBitIdentity:
    @pytest.mark.parametrize("policy,scheme", _GRID_CASES)
    def test_serial_matches_stepwise_oracle(self, workload, policy, scheme):
        # anchor one end of the chain: serial replay == stepwise engine,
        # per access, on the real compiled workload trace
        _g, _s, trace = workload
        grid = _grids()[(policy, scheme)]
        differential_grid(
            replay_kernel(policy), stepwise_oracle(policy), grid, trace.blocks[:1500]
        )

    @pytest.mark.parametrize("policy,scheme", _GRID_CASES)
    def test_process_matches_serial_bit_for_bit(self, workload, policy, scheme):
        _g, _s, trace = workload
        grid = _grids()[(policy, scheme)]
        serial = simulate_trace(trace, grid, policy=policy, backend="serial")
        proc = simulate_trace(trace, grid, policy=policy, backend="process", workers=2)
        assert len(serial) == len(proc) == len(grid)
        for s, p in zip(serial, proc):
            assert p.misses == s.misses
            assert p.accesses == s.accesses
            assert p.phase_misses == s.phase_misses
            assert p.firings == s.firings
            assert p.fire_counts == s.fire_counts

    def test_process_sweep_chunking_covers_every_geometry(self, workload):
        # more workers than geometries, width 3 over 5 items: chunk bounds
        # must partition the grid in order
        _g, _s, trace = workload
        grid = [CacheGeometry(size=s, block=B) for s in (32, 64, 128, 256, 512)]
        source = ArrayChunkSource(trace.blocks, trace.phases, chunk_words=trace.accesses)
        stats = process_sweep(source, grid, "lru", workers=3)
        masks = replay_miss_masks(trace.blocks, grid, policy="lru")
        assert [m for m, _c in stats] == [int(np.count_nonzero(m)) for m in masks]

    def test_unknown_policy_fails_in_parent(self, workload):
        _g, _s, trace = workload
        grid = [CacheGeometry(size=64, block=B)]
        with pytest.raises(CacheConfigError, match="zap"):
            simulate_trace(trace, grid, policy="zap", backend="process", workers=2)

    def test_empty_geometry_list(self, workload):
        _g, _s, trace = workload
        assert simulate_trace(trace, [], backend="process", workers=2) == []

    def test_process_sweep_without_geometries_builds_no_pool(self):
        source = ArrayChunkSource(np.arange(10, dtype=np.int64), None, chunk_words=10)
        assert process_sweep(source, [], "lru", 2) == []


# ----------------------------------------------------------------------
# placement scoring across backends
# ----------------------------------------------------------------------
class TestCandidateScorer:
    @pytest.fixture(scope="class")
    def instance(self):
        g = fm_radio()
        sched = interleaved_schedule(g)
        return build_instance(g, sched, B)

    @pytest.fixture(scope="class")
    def targets(self):
        return normalize_targets(
            [
                (CacheGeometry(size=128, block=B, ways=1), "direct", 1.0),
                (CacheGeometry(size=256, block=B), "lru", 0.5),
            ],
            block=B,
        )

    def _candidates(self, instance):
        # a handful of start vectors: seed order plus rotations of it
        from repro.mem.placement import _placed_starts

        n = instance.n_objects
        ids = list(range(n))
        return [
            _placed_starts(instance, ids),
            _placed_starts(instance, ids[1:] + ids[:1]),
            _placed_starts(instance, ids[::-1]),
        ]

    def test_serial_and_process_scores_agree(self, instance, targets):
        cands = self._candidates(instance)
        with CandidateScorer(instance, targets, backend="serial") as serial:
            want = serial.score_per(cands)
        with CandidateScorer(
            instance, targets, backend="process", workers=2
        ) as proc:
            got = proc.score_per(cands)
        assert got == want
        assert all(isinstance(m, int) for per in want for m in per)

    def test_swap_refine_trajectory_is_backend_invariant(self, instance, targets):
        order = list(instance.objects)
        kw = dict(targets=targets, budget=40, batch=4, gap_budget=2)
        serial = swap_refine(instance, order, backend="serial", **kw)
        proc = swap_refine(instance, order, backend="process", workers=2, **kw)
        s_order, s_gaps, s_cost, s_evals = serial
        p_order, p_gaps, p_cost, p_evals = proc
        assert p_order == s_order
        assert p_gaps == s_gaps
        assert p_cost == s_cost
        assert p_evals == s_evals

    def test_batched_search_never_worse_than_seed(self, instance, targets):
        order = list(instance.objects)
        from repro.mem.placement import placement_costs

        seed_cost = sum(
            w * m
            for (_g, _p, w), m in zip(
                targets, placement_costs(instance, order, targets)
            )
        )
        _o, _g, cost, _e = swap_refine(
            instance, order, targets=targets, budget=40, batch=3
        )
        assert cost <= seed_cost
