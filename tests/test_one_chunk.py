"""A one-chunk replay does no work meant for a next chunk.

Every in-memory replay is its kernel over one chunk with an empty carry, so
it must cost what a whole-trace pass costs: no carry folded after the last
chunk, and — for OPT — no temporary directory for next-use spills (chunk 0
keeps its next uses in memory).  Both calls are made to raise here; a
two-chunk replay shows they are really reached when a next chunk exists.
"""

import tempfile

import numpy as np
import pytest

import repro.runtime.replay as replay
from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.runtime.compiled import CompiledTrace, simulate_trace
from repro.runtime.streaming import ArrayChunkSource
from repro.testing.harness import stepwise_oracle

B = 8

GRIDS = {
    "lru": [
        CacheGeometry(size=4 * B, block=B),
        CacheGeometry(size=8 * B, block=B, ways=2),
        CacheGeometry(size=16 * B, block=B, ways=4),
    ],
    "direct": [
        CacheGeometry(size=8 * B, block=B, ways=1),
        CacheGeometry(size=16 * B, block=B, ways=1),
    ],
    "opt": [
        CacheGeometry(size=4 * B, block=B),
        CacheGeometry(size=8 * B, block=B, ways=2),
    ],
    "two_level": [
        TwoLevelGeometry(
            CacheGeometry(size=2 * B, block=B),
            CacheGeometry(size=16 * B, block=B, ways=2),
        ),
        TwoLevelGeometry(
            CacheGeometry(size=4 * B, block=B, ways=1),
            CacheGeometry(size=32 * B, block=B, ways=4),
        ),
    ],
}


def _forbidden(*args, **kwargs):
    raise AssertionError("a one-chunk replay did work meant for a next chunk")


@pytest.fixture
def trace():
    rng = np.random.default_rng(11)
    return (rng.zipf(1.3, size=500) % 40).astype(np.int64)


def test_every_registered_policy_is_covered():
    assert sorted(GRIDS) == sorted(replay.available_replay_policies())


@pytest.mark.parametrize("policy", sorted(GRIDS))
def test_one_chunk_folds_no_carry_and_spills_nothing(trace, policy, monkeypatch):
    geoms = GRIDS[policy]
    oracle = stepwise_oracle(policy)
    want = [list(oracle(trace, g)) for g in geoms]
    monkeypatch.setattr(replay, "recency_carry", _forbidden)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", _forbidden)
    masks = replay.replay_miss_masks(trace, geoms, policy)
    assert [m.tolist() for m in masks] == want
    one = ArrayChunkSource(trace, chunk_words=len(trace))
    assert replay.replay_misses(one, geoms, policy) == [sum(w) for w in want]
    results = simulate_trace(
        CompiledTrace(label="t", block=B, blocks=trace), geoms, policy=policy
    )
    assert [r.misses for r in results] == [sum(w) for w in want]


@pytest.mark.parametrize("policy", sorted(GRIDS))
def test_two_chunks_do_reach_the_carry(trace, policy, monkeypatch):
    monkeypatch.setattr(replay, "recency_carry", _forbidden)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", _forbidden)
    two = ArrayChunkSource(trace, sizes=[250, 250])
    with pytest.raises(AssertionError, match="next chunk"):
        replay.replay_misses(two, GRIDS[policy], policy)
