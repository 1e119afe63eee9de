"""Testing substrate: hypothesis strategies for random stream graphs /
geometries / placements, independent reference implementations (oracles)
used by differential tests, the reusable differential-grid harness
that diffs a vectorized kernel against its stepwise oracle per access, and
the list of every schedule producer for properties that must hold of all
of them.

Exposed as a public subpackage so downstream users extending the library
(new schedulers, new partitioners, new cache models, new replay kernels)
can reuse the same generators, oracles, and harness to validate their code
against the reference semantics."""

from repro.testing.harness import (
    differential_grid,
    format_divergence,
    replay_kernel,
    stepwise_oracle,
)
from repro.testing.oracles import (
    NaiveLRU,
    bruteforce_pipeline_partition,
    reference_token_replay,
)
from repro.testing.producers import SCHEDULE_PRODUCERS, Producer
from repro.testing.strategies import (
    geometry_strategy,
    placement_strategy,
    rate_matched_pipelines,
    small_dags,
)

__all__ = [
    "NaiveLRU",
    "Producer",
    "SCHEDULE_PRODUCERS",
    "bruteforce_pipeline_partition",
    "differential_grid",
    "format_divergence",
    "geometry_strategy",
    "placement_strategy",
    "rate_matched_pipelines",
    "reference_token_replay",
    "replay_kernel",
    "small_dags",
    "stepwise_oracle",
]
