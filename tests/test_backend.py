"""Acceptance tests for :mod:`repro.runtime.backend` and the serial replay.

* **Runtime defaults** — :func:`configure` installs the replay chunk size
  and hands back the previous triple for ``configure(*previous)``.
* **Compatibility keywords** — ``configure``, ``simulate_trace`` and
  ``multiswap_refine`` accept ``backend="serial"`` (and ``configure``
  ``workers=None``) and change nothing; any other value, ``"process"``
  included, raises :class:`~repro.errors.CacheConfigError`.
* **Bit-identity** — the replay kernels agree with the stepwise engines
  per access for *every registered policy*, via
  :func:`~repro.testing.harness.differential_grid` on the compiled
  workload trace.
"""

from __future__ import annotations

import pytest

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.core.baselines import interleaved_schedule
from repro.errors import CacheConfigError
from repro.graphs.apps import fm_radio
from repro.mem.facility import multiswap_refine
from repro.mem.placement import build_instance
from repro.runtime.backend import configure, default_chunk_words, normalize_backend
from repro.runtime.compiled import compile_trace, simulate_trace
from repro.testing.harness import differential_grid, replay_kernel, stepwise_oracle

B = 8


@pytest.fixture(scope="module")
def workload():
    g = fm_radio()
    sched = interleaved_schedule(g, n_iterations=2)
    trace = compile_trace(g, sched, B)
    return g, sched, trace


# ----------------------------------------------------------------------
# runtime defaults
# ----------------------------------------------------------------------
class TestResolve:
    def test_unknown_backend_names_value_and_choices(self):
        for bogus in ("warp", "mpi", "thread", "process"):
            with pytest.raises(CacheConfigError, match=rf"'{bogus}'.*'serial'"):
                normalize_backend(bogus)
        assert normalize_backend(None) == normalize_backend("serial") == "serial"

    def test_configure_installs_and_restores(self):
        prev = configure(chunk_words=64)
        try:
            assert prev == ("serial", None, None)
            assert default_chunk_words() == 64
        finally:
            configure(*prev)
        assert default_chunk_words() is None


# ----------------------------------------------------------------------
# the compatibility keywords
# ----------------------------------------------------------------------
class TestCompatibilityKeywords:
    @pytest.fixture(scope="class")
    def search(self):
        g = fm_radio()
        instance = build_instance(g, interleaved_schedule(g), B)
        geom = CacheGeometry(size=128, block=B, ways=1)
        return instance, geom

    def test_process_is_rejected_by_every_entry_point(self, workload, search):
        _g, _s, trace = workload
        instance, geom = search
        with pytest.raises(CacheConfigError, match="'process'"):
            configure(backend="process")
        with pytest.raises(CacheConfigError, match="'process'"):
            simulate_trace(trace, [geom], policy="direct", backend="process")
        with pytest.raises(CacheConfigError, match="'process'"):
            multiswap_refine(
                instance, list(instance.objects), [(geom, "direct", 1.0)], budget=4,
                backend="process",
            )
        assert default_chunk_words() is None  # nothing was installed

    def test_configure_rejects_workers(self):
        with pytest.raises(CacheConfigError, match="workers=2"):
            configure(backend="serial", workers=2)
        assert default_chunk_words() is None

    def test_serial_changes_nothing(self, workload, search):
        _g, _s, trace = workload
        instance, geom = search
        grid = [CacheGeometry(size=s, block=B) for s in (64, 128)]
        prev = configure(backend="serial", workers=None, chunk_words=None)
        try:
            assert simulate_trace(trace, grid, backend="serial") == simulate_trace(
                trace, grid
            )
            start, target = list(instance.objects), [(geom, "direct", 1.0)]
            assert multiswap_refine(
                instance, start, target, budget=12, backend="serial"
            ) == multiswap_refine(instance, start, target, budget=12)
        finally:
            configure(*prev)


# ----------------------------------------------------------------------
# serial replay == stepwise engine, per policy
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


class TestSerialReplayBitIdentity:
    @pytest.mark.parametrize("policy,scheme", _GRID_CASES)
    def test_serial_matches_stepwise_oracle(self, workload, policy, scheme):
        # serial replay == stepwise engine, per access, on the real
        # compiled workload trace
        _g, _s, trace = workload
        grid = _grids()[(policy, scheme)]
        differential_grid(
            replay_kernel(policy), stepwise_oracle(policy), grid, trace.blocks[:1500]
        )

    def test_empty_geometry_list(self, workload):
        _g, _s, trace = workload
        for policy, _scheme in _GRID_CASES:
            assert simulate_trace(trace, [], policy=policy) == []
            assert simulate_trace(trace, [], policy=policy, backend="serial") == []
