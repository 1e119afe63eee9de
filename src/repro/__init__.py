"""repro — reproduction of *Cache-Conscious Scheduling of Streaming
Applications* (Agrawal, Fineman, Krage, Leiserson, Toledo; SPAA 2012).

Public API tour
---------------
Build a stream graph::

    from repro import StreamGraph, GraphBuilder
    g = (GraphBuilder("demo").source(state=8)
         .chain(6, state=32).sink().build())

Partition it and schedule it (pipeline case)::

    from repro import CacheGeometry, theorem5_partition, pipeline_dynamic_schedule
    geom = CacheGeometry(size=128, block=8)
    part = theorem5_partition(g, geom.size)
    sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=1000)

Execute through the I/O-model cache simulator and read the cost::

    from repro import Executor
    result = Executor.measure(g, geom, sched)
    print(result.summary())

Compare against the Theorem 3 lower bound::

    from repro import pipeline_lower_bound
    lb = pipeline_lower_bound(g, geom.size)
    print(result.misses, ">=", float(lb.misses(result.source_fires, geom)))

Or compile the schedule once and sweep whole geometry families — any
registered policy, including two-level hierarchies — with the vectorized
replay::

    from repro import TwoLevelGeometry, compile_trace, simulate_trace
    trace = compile_trace(g, sched, geom.block)
    tg = TwoLevelGeometry(geom, CacheGeometry(size=4 * geom.size, block=geom.block))
    print(simulate_trace(trace, [tg], policy="two_level")[0].misses)

Subpackages: :mod:`repro.graphs` (SDF substrate), :mod:`repro.cache`
(DAM-model simulators), :mod:`repro.mem` (layout / conflict-aware
placement / trace), :mod:`repro.runtime`
(execution engine), :mod:`repro.core` (the paper's algorithms),
:mod:`repro.analysis` (experiment drivers E1–E15, A1–A8, and reporting).
The layered map of all of it lives in ``docs/ARCHITECTURE.md``; the replay
engine's per-policy algorithms in ``docs/REPLAY.md``.
"""

from repro.errors import (
    BufferOverflowError,
    CacheConfigError,
    CycleError,
    DeadlockError,
    GraphError,
    LayoutError,
    NotWellOrderedError,
    PartitionError,
    RateMismatchError,
    ReproError,
    ScheduleError,
    SourceSinkError,
    StateTooLargeError,
)
from repro.graphs import (
    Channel,
    CsdfGraph,
    expand_csdf,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    to_dot,
    GraphBuilder,
    Module,
    StreamGraph,
    compute_gains,
    min_buffer,
    min_buffers,
    repetition_vector,
    validate_graph,
)
from repro.cache import (
    CacheGeometry,
    CacheStats,
    DirectMappedCache,
    LRUCache,
    OPTCache,
    ReplacementPolicy,
    TwoLevelCache,
    TwoLevelGeometry,
    available_policies,
    get_policy,
    register_policy,
    simulate_opt,
    simulate_opt_misses,
)
from repro.mem import (
    MemoryLayout,
    PlacementInstance,
    PlacementResult,
    Region,
    TraceRecorder,
    TracingCache,
    build_instance,
    conflict_graph,
    layout_objects,
    optimize_instance,
    placement_costs,
    remap_trace,
)
from repro.runtime import (
    ChannelBuffer,
    CompiledTrace,
    Loop,
    LoopedSchedule,
    compile_trace,
    ExecutionResult,
    Executor,
    measure_compiled,
    replay_miss_masks,
    replay_misses,
    Schedule,
    simulate_trace,
    demand_driven_schedule,
    fireable_modules,
    validate_schedule,
)
from repro.core import (
    BatchPlan,
    ParallelResult,
    WorkerStats,
    dynamic_dag_schedule,
    multilevel_partition,
    parallel_dynamic_simulation,
    DagLowerBound,
    Partition,
    PipelineLowerBound,
    augmented_geometry,
    choose_batch,
    component_layout_order,
    cross_capacities,
    required_geometry,
    dag_lower_bound,
    exact_min_bandwidth_partition,
    greedy_topological_partition,
    homogeneous_partition_schedule,
    inhomogeneous_partition_schedule,
    interleaved_schedule,
    interval_dp_partition,
    kohli_greedy_schedule,
    min_bandwidth,
    optimal_pipeline_partition,
    phased_schedule,
    pipeline_dynamic_schedule,
    pipeline_lower_bound,
    refine_partition,
    sermulins_scaled_schedule,
    single_appearance_schedule,
    singleton_partition,
    theorem5_partition,
    whole_graph_partition,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "GraphError", "CycleError", "RateMismatchError",
    "SourceSinkError", "StateTooLargeError", "PartitionError",
    "NotWellOrderedError", "ScheduleError", "DeadlockError",
    "BufferOverflowError", "CacheConfigError", "LayoutError",
    # graphs
    "Module", "Channel", "StreamGraph", "GraphBuilder", "CsdfGraph",
    "expand_csdf", "compute_gains",
    "repetition_vector", "min_buffer", "min_buffers", "validate_graph",
    # cache
    "CacheGeometry", "CacheStats", "LRUCache", "DirectMappedCache",
    "OPTCache", "simulate_opt", "simulate_opt_misses", "TwoLevelCache",
    "TwoLevelGeometry",
    "ReplacementPolicy", "register_policy", "get_policy", "available_policies",
    # mem
    "MemoryLayout", "Region", "TraceRecorder", "TracingCache",
    "layout_objects", "PlacementInstance", "PlacementResult",
    "build_instance", "conflict_graph", "placement_costs", "remap_trace",
    "optimize_instance",
    # runtime
    "ChannelBuffer", "Schedule", "validate_schedule", "Executor",
    "ExecutionResult", "fireable_modules", "demand_driven_schedule",
    "Loop", "LoopedSchedule",
    "CompiledTrace", "compile_trace", "simulate_trace", "measure_compiled",
    "replay_miss_masks", "replay_misses",
    # core
    "Partition", "singleton_partition", "whole_graph_partition",
    "theorem5_partition", "optimal_pipeline_partition",
    "exact_min_bandwidth_partition", "greedy_topological_partition",
    "interval_dp_partition", "min_bandwidth", "refine_partition",
    "PipelineLowerBound", "DagLowerBound", "pipeline_lower_bound",
    "dag_lower_bound", "homogeneous_partition_schedule",
    "inhomogeneous_partition_schedule", "pipeline_dynamic_schedule",
    "component_layout_order", "single_appearance_schedule",
    "interleaved_schedule", "sermulins_scaled_schedule",
    "kohli_greedy_schedule", "phased_schedule", "BatchPlan", "choose_batch",
    "cross_capacities", "augmented_geometry", "required_geometry",
    "dynamic_dag_schedule", "parallel_dynamic_simulation", "ParallelResult",
    "WorkerStats", "multilevel_partition",
    "graph_to_dict", "graph_from_dict", "save_graph", "load_graph", "to_dot",
    "__version__",
]
