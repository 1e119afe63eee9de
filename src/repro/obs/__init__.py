"""``repro.obs`` — zero-dependency observability: metrics, spans, manifests.

The instrumentation subsystem for the whole compile -> cache -> replay ->
search service path.  Three pieces:

* a thread-safe **metrics registry** (counters, gauges, histograms,
  series) — :mod:`repro.obs.registry`;
* nestable **spans** (``with obs.span("replay", policy="lru"):``) that
  aggregate wall/CPU per phase — :mod:`repro.obs.core`;
* **run manifests**: a JSON-lines event log plus a final JSON summary
  (stable run ID, git describe, config digest, per-phase times, metric
  snapshot) per CLI invocation — :mod:`repro.obs.manifest`, rendered by
  ``python -m repro obs-report`` (:mod:`repro.obs.report`).

Disabled by default; the disabled hot path is one boolean check per
emitter (gated <= 1.02x by the ``obs_overhead`` bench metric).  Every
name passed to an emitter must come from :mod:`repro.obs.names` — lint
rule R6 enforces the vocabulary and keeps this package free of numpy
imports at load time.

Usage (see docs/OBSERVABILITY.md for the full tour)::

    from repro import obs
    from repro.obs import names

    obs.enable()
    with obs.span(names.REPLAY, policy="lru"):
        obs.add(names.REPLAY_GEOMETRIES, 9)
    obs.snapshot()["counters"][names.REPLAY_GEOMETRIES]  # -> 9
"""

from repro.obs import names
from repro.obs.core import (
    add,
    capture,
    disable,
    enable,
    gauge,
    is_enabled,
    observe,
    reset,
    series,
    set_event_sink,
    snapshot,
    span,
)
from repro.obs.registry import SERIES_CAP, MetricsRegistry

__all__ = [
    "names",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "add",
    "gauge",
    "observe",
    "series",
    "snapshot",
    "reset",
    "capture",
    "set_event_sink",
    "MetricsRegistry",
    "SERIES_CAP",
]
