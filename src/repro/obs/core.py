"""Global instrumentation state: the enable switch, spans, and capture.

Observability is **off by default** and the disabled path is engineered
to cost almost nothing: every emitter checks one boolean and returns, and
:func:`span` hands back a shared no-op context manager without touching a
clock.  ``benchmarks/bench_trace_engine.py`` measures the enabled/disabled
ratio of a full geometry sweep as ``obs_overhead`` and
``check_bench_trends.py`` gates it at <= 1.02x.

When enabled (:func:`enable`), emitters record into one process-global
:class:`~repro.obs.registry.MetricsRegistry`.  Spans are nestable context
managers that aggregate wall and CPU time per key; attributes fold into
the key (``span("replay", policy="lru")`` -> ``replay[policy=lru]``), so
aggregation is flat: a monolithic and a chunked sweep produce the same
keys.

:class:`capture` swaps in a fresh registry for a scope and exposes the
scope's delta as ``.snapshot`` on exit.  That is how the CLI's run
manifests scope one invocation.

An optional **event sink** (:func:`set_event_sink`) receives one
``(kind, payload)`` call per completed span — the run-manifest writer
streams these to a JSON-lines event log.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.registry import MetricsRegistry

__all__ = [
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
]

EventSink = Callable[[str, Dict[str, Any]], None]


class _ObsState:
    __slots__ = ("enabled", "registry", "sink")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.sink: Optional[EventSink] = None


_STATE = _ObsState()


# ---------------------------------------------------------------- switch
def enable() -> bool:
    """Turn instrumentation on; returns the previous state."""
    previous = _STATE.enabled
    _STATE.enabled = True
    return previous


def disable() -> bool:
    """Turn instrumentation off; returns the previous state."""
    previous = _STATE.enabled
    _STATE.enabled = False
    return previous


def is_enabled() -> bool:
    """Whether emitters currently record anything."""
    return _STATE.enabled


# ----------------------------------------------------------------- spans
class _NullSpan:
    """The span handed out while disabled: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: measures wall + CPU between enter and exit, then folds
    the pair into the active registry under its key and notifies the event
    sink (if one is installed)."""

    __slots__ = ("key", "_wall0", "_cpu0")

    def __init__(self, key: str) -> None:
        self.key = key

    def __enter__(self) -> "_Span":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        _STATE.registry.record_span(self.key, wall, cpu)
        if _STATE.sink is not None:
            _STATE.sink(
                "span", {"name": self.key, "wall_s": wall, "cpu_s": cpu}
            )
        return False


def _span_key(name: str, attrs: Dict[str, Any]) -> str:
    if not attrs:
        return name
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{name}[{inner}]"


def span(name: str, **attrs: Any) -> Any:
    """A context manager timing one phase under ``name`` (plus attrs).

    Disabled: returns a shared no-op object — no clock reads, no
    allocation beyond the kwargs dict.  Enabled: wall and CPU deltas
    aggregate under ``name[attr=value,...]`` and the event sink (if any)
    gets one ``span`` event on exit.  Nesting is just lexical: inner spans
    record under their own keys.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _Span(_span_key(name, attrs))


# -------------------------------------------------------------- emitters
def add(name: str, value: int = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.add(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Fold ``value`` into histogram ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.observe(name, value)


def series(name: str, value: float) -> None:
    """Append ``value`` to series ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.series(name, value)


# -------------------------------------------------------------- snapshot
def snapshot() -> Dict[str, Dict[str, Any]]:
    """Snapshot of the active registry (works even while disabled)."""
    return _STATE.registry.snapshot()


def reset() -> None:
    """Clear the active registry."""
    _STATE.registry.reset()


class capture:
    """Scope a fresh registry: ``with capture(enabled=True) as cap: ...``.

    On enter, the global registry is swapped for an empty one (and the
    enable switch forced to ``enabled`` when given); on exit both are
    restored and the scope's measurements are available as
    ``cap.snapshot``, a plain JSON-able dict.  Measurements inside the
    scope land *only* in the snapshot, never in the outer registry.
    """

    __slots__ = ("_force", "_saved", "snapshot")

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self._force = enabled
        self.snapshot: Optional[Dict[str, Dict[str, Any]]] = None

    def __enter__(self) -> "capture":
        self._saved = (_STATE.enabled, _STATE.registry)
        _STATE.registry = MetricsRegistry()
        if self._force is not None:
            _STATE.enabled = bool(self._force)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.snapshot = _STATE.registry.snapshot()
        _STATE.enabled, _STATE.registry = self._saved
        return False


# ------------------------------------------------------------ event sink
def set_event_sink(sink: Optional[EventSink]) -> Optional[EventSink]:
    """Install (or clear, with ``None``) the span event sink; returns the
    previous sink so callers can restore it."""
    previous = _STATE.sink
    _STATE.sink = sink
    return previous
