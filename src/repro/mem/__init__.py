"""Memory layout (address assignment), access-trace recording, and
conflict-aware placement optimization."""

from repro.mem.facility import multiswap_refine, smoothed_search
from repro.mem.layout import MemoryLayout, ObjectKey, Region, layout_objects
from repro.mem.placement import (
    PlacementInstance,
    PlacementResult,
    RefineStats,
    STRATEGIES,
    build_instance,
    conflict_graph,
    greedy_color_order,
    normalize_targets,
    optimize_instance,
    placement_costs,
    remap_blocks,
    remap_trace,
    swap_refine,
)
from repro.mem.trace import TraceRecorder, TracingCache

__all__ = [
    "MemoryLayout",
    "ObjectKey",
    "Region",
    "layout_objects",
    "TraceRecorder",
    "TracingCache",
    "PlacementInstance",
    "PlacementResult",
    "RefineStats",
    "STRATEGIES",
    "build_instance",
    "conflict_graph",
    "greedy_color_order",
    "normalize_targets",
    "optimize_instance",
    "placement_costs",
    "remap_blocks",
    "remap_trace",
    "swap_refine",
    "multiswap_refine",
    "smoothed_search",
]
