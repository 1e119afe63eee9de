"""Every schedule producer, for properties that must hold of all of them.

:data:`SCHEDULE_PRODUCERS` lists each scheduler of :mod:`repro.core`, plus
:func:`~repro.runtime.deadlock.demand_driven_schedule`, as a
:class:`Producer`: a name, the graphs it accepts, and one calling
convention, ``build(graph, geometry, partition, rounds)``.  ``rounds``
scales the run: iterations of the baselines, batches of the partition
schedulers, demand rounds of ``demand_driven``, and
:data:`OUTPUTS_PER_ROUND` sink outputs per round of the dynamic
schedulers.  A property walks the list, so a new scheduler is covered by
adding one entry (``tests/test_schedule_producers.py``: every schedule
of a delayed graph validates or raises
:class:`~repro.errors.DeadlockError`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from repro.cache.base import CacheGeometry
from repro.core.baselines import (
    interleaved_schedule,
    kohli_greedy_schedule,
    phased_schedule,
    sermulins_scaled_schedule,
    single_appearance_schedule,
)
from repro.core.dynamic_dag import dynamic_dag_schedule
from repro.core.partition import Partition
from repro.core.partition_sched import (
    homogeneous_partition_schedule,
    inhomogeneous_partition_schedule,
    pipeline_dynamic_schedule,
)
from repro.graphs.minbuf import min_buffers
from repro.graphs.repetition import repetition_vector
from repro.graphs.sdf import StreamGraph
from repro.runtime.deadlock import demand_driven_schedule
from repro.runtime.schedule import Schedule

__all__ = ["OUTPUTS_PER_ROUND", "Producer", "SCHEDULE_PRODUCERS"]

#: sink outputs per round asked of the schedulers that run to an output
#: target
OUTPUTS_PER_ROUND = 16

Build = Callable[[StreamGraph, CacheGeometry, Partition, int], Schedule]


class Producer(NamedTuple):
    """One schedule producer under the common calling convention."""

    name: str
    #: ``"any"`` graph, ``"pipeline"`` only, or ``"unit_rate"`` only (one
    #: token per firing on both ends of every channel)
    accepts: str
    build: Build

    def applies_to(self, graph: StreamGraph) -> bool:
        if self.accepts == "pipeline":
            return graph.is_pipeline()
        if self.accepts == "unit_rate":
            return graph.is_homogeneous()
        return True


def _demand_driven(
    graph: StreamGraph, _geometry: CacheGeometry, _partition: Partition, rounds: int
) -> Schedule:
    caps = min_buffers(graph)
    targets = {name: rounds * r for name, r in repetition_vector(graph).items()}
    return Schedule(demand_driven_schedule(graph, targets, caps), capacities=caps)


SCHEDULE_PRODUCERS: Tuple[Producer, ...] = (
    Producer("single_appearance", "any",
             lambda g, _m, _p, k: single_appearance_schedule(g, n_iterations=k)),
    Producer("interleaved", "any",
             lambda g, _m, _p, k: interleaved_schedule(g, n_iterations=k)),
    Producer("phased", "any", lambda g, _m, _p, k: phased_schedule(g, n_iterations=k)),
    Producer("sermulins_scaled", "any",
             lambda g, m, _p, k: sermulins_scaled_schedule(g, m, n_macro_iterations=k)),
    Producer("kohli_greedy", "pipeline",
             lambda g, m, _p, k: kohli_greedy_schedule(g, m, k * OUTPUTS_PER_ROUND)),
    Producer("pipeline_dynamic", "pipeline",
             lambda g, m, p, k: pipeline_dynamic_schedule(
                 g, p, m, target_outputs=k * OUTPUTS_PER_ROUND)),
    Producer("demand_driven", "any", _demand_driven),
    Producer("dynamic_dag[fifo]", "unit_rate",
             lambda g, m, p, k: dynamic_dag_schedule(
                 g, p, m, target_outputs=k * OUTPUTS_PER_ROUND, policy="fifo")),
    Producer("dynamic_dag[topo]", "unit_rate",
             lambda g, m, p, k: dynamic_dag_schedule(
                 g, p, m, target_outputs=k * OUTPUTS_PER_ROUND, policy="topo")),
    Producer("homogeneous", "unit_rate",
             lambda g, m, p, k: homogeneous_partition_schedule(g, p, m, n_batches=k)),
    Producer("inhomogeneous", "any",
             lambda g, m, p, k: inhomogeneous_partition_schedule(g, p, m, n_batches=k)),
)
