"""The policy table names the type of sweep point each policy takes, and
every engine rejects a point of the wrong type with an error naming the
policy and that type — the replay before it reads any chunk."""

import numpy as np
import pytest

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.policy import POLICIES, get_policy, stepwise_trace_misses
from repro.errors import CacheConfigError
from repro.runtime.compiled import CompiledTrace, simulate_trace
from repro.runtime.replay import replay_chunks, replay_misses

B = 8
TRACE = np.asarray([0, 1, 2, 0, 3, 1], dtype=np.int64)


class _Unreadable:
    """A chunk source that fails the test if anything reads it."""

    def __iter__(self):
        raise AssertionError("a chunk was read")

    def __getattr__(self, name):
        raise AssertionError(f"the source's {name} was read")


ENTRY_POINTS = {
    "replay_chunks": lambda point, policy: replay_chunks(_Unreadable(), [point], policy),
    "replay_misses": lambda point, policy: replay_misses(TRACE, [point], policy),
    "simulate_trace": lambda point, policy: simulate_trace(
        CompiledTrace(label="t", block=B, blocks=TRACE), [point], policy=policy
    ),
    "stepwise_trace_misses": lambda point, policy: stepwise_trace_misses(
        TRACE.tolist(), point, policy
    ),
    "make_model": lambda point, policy: get_policy(policy).make_model(point),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("policy", POLICIES)
def test_wrong_point_type_is_named(entry, policy):
    level = CacheGeometry(size=4 * B, block=B)
    if policy == "two_level":
        point, takes = level, "TwoLevelGeometry"
    else:
        point, takes = TwoLevelGeometry(level, level), "CacheGeometry"
    with pytest.raises(CacheConfigError, match=f"policy '{policy}' sweeps {takes} points"):
        ENTRY_POINTS[entry](point, policy)
