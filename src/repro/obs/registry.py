"""Thread-safe metrics registry: counters, gauges, histograms, series, spans.

One :class:`MetricsRegistry` holds every kind of measurement the
instrumentation layer produces, keyed by names from
:mod:`repro.obs.names`:

* **counters** — monotone integer sums (``add``);
* **gauges** — last-written values (``gauge``), e.g. the most recent pool
  width;
* **histograms** — ``count/total/min/max`` summaries of observed values
  (``observe``), enough for means and ranges without storing samples;
* **series** — append-only value lists (``series``), e.g. the per-round
  cost trajectory of a placement search (capped at
  :data:`SERIES_CAP` points to bound memory);
* **spans** — ``count/wall_s/cpu_s`` aggregates per span key
  (``record_span``), written by the context managers in
  :mod:`repro.obs.core`.

Everything mutates under one lock, so any thread of the process can
record into the shared registry directly.  Process-pool workers record
into a private registry and ship a :meth:`snapshot` (a plain JSON-able
dict) back with their reduced stats; the parent folds it in with
:meth:`merge`.
Merging is commutative for counters/histograms/spans and order-preserving
for series, so "serial totals == merged process totals" holds whenever
the underlying work is identical.

This module must not import numpy or any ``repro`` runtime module at load
time (lint rule R6): the registry is plain Python on purpose, so
importing it costs nothing and workers can use it before heavy modules
load.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping

__all__ = ["SERIES_CAP", "MetricsRegistry"]

#: hard cap on points retained per series (oldest kept; the trajectory's
#: head is the interesting part — budgets bound rounds long before this)
SERIES_CAP = 4096

#: snapshot type: plain dicts/lists/numbers only, safe to pickle or JSON
Snapshot = Dict[str, Dict[str, Any]]


class MetricsRegistry:
    """One process-local store for every metric kind; see module docs."""

    __slots__ = ("_lock", "_counters", "_gauges", "_hists", "_series", "_spans")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, List[float]] = {}  # [count, total, min, max]
        self._series: Dict[str, List[float]] = {}
        self._spans: Dict[str, List[float]] = {}  # [count, wall_s, cpu_s]

    # ------------------------------------------------------------ write
    def add(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        v = float(value)
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                self._hists[name] = [1, v, v, v]
            else:
                h[0] += 1
                h[1] += v
                h[2] = min(h[2], v)
                h[3] = max(h[3], v)

    def series(self, name: str, value: float) -> None:
        """Append ``value`` to series ``name`` (bounded by SERIES_CAP)."""
        with self._lock:
            points = self._series.setdefault(name, [])
            if len(points) < SERIES_CAP:
                points.append(float(value))

    def record_span(self, key: str, wall_s: float, cpu_s: float) -> None:
        """Fold one completed span into the per-key aggregate."""
        with self._lock:
            s = self._spans.get(key)
            if s is None:
                self._spans[key] = [1, wall_s, cpu_s]
            else:
                s[0] += 1
                s[1] += wall_s
                s[2] += cpu_s

    # ------------------------------------------------------------- read
    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Snapshot:
        """A deep-copied, JSON-able view of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {"count": int(h[0]), "total": h[1], "min": h[2], "max": h[3]}
                    for name, h in self._hists.items()
                },
                "series": {name: list(v) for name, v in self._series.items()},
                "spans": {
                    key: {"count": int(s[0]), "wall_s": s[1], "cpu_s": s[2]}
                    for key, s in self._spans.items()
                },
            }

    # ------------------------------------------------------------ merge
    def merge(self, snap: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters, histograms and spans add; gauges take the snapshot's
        value (last write wins); series extend in order.  Merging worker
        deltas chunk-by-chunk in submission order therefore reproduces
        exactly what a serial run would have recorded — the property
        ``tests/test_obs.py`` pins across backends.
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, h in snap.get("histograms", {}).items():
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = [
                        int(h["count"]), float(h["total"]),
                        float(h["min"]), float(h["max"]),
                    ]
                else:
                    mine[0] += int(h["count"])
                    mine[1] += float(h["total"])
                    mine[2] = min(mine[2], float(h["min"]))
                    mine[3] = max(mine[3], float(h["max"]))
            for name, points in snap.get("series", {}).items():
                dest = self._series.setdefault(name, [])
                room = SERIES_CAP - len(dest)
                if room > 0:
                    dest.extend(float(p) for p in points[:room])
            for key, s in snap.get("spans", {}).items():
                mine = self._spans.get(key)
                if mine is None:
                    self._spans[key] = [
                        int(s["count"]), float(s["wall_s"]), float(s["cpu_s"])
                    ]
                else:
                    mine[0] += int(s["count"])
                    mine[1] += float(s["wall_s"])
                    mine[2] += float(s["cpu_s"])

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._series.clear()
            self._spans.clear()
