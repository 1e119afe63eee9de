#!/usr/bin/env python
"""Fail when tracked benchmark metrics regress against their history.

``benchmarks/bench_trace_engine.py`` and ``benchmarks/bench_placement.py``
each append one summary per run to the ``history`` array of their JSON
record (``BENCH_trace_engine.json`` / ``BENCH_placement.json``).  This
script compares the latest entry against the previous one, per file, and
exits non-zero when any tracked metric fell by more than the tolerated
fraction (default 30%).  Some metrics carry *absolute* floors instead
(:data:`FLOORS_BY_FILE`) that hold from the very first run: the trace
cache's ``warm_speedup`` must be >= 5x.  Lower-is-better metrics get
absolute *ceilings* (:data:`CEILINGS_BY_FILE`): ``obs_overhead``
(the enabled/disabled instrumentation wall-time ratio) must stay <= 1.02x,
``streaming_overhead`` (chunked over monolithic replay wall time)
<= 1.25x, and ``streaming_rss_ratio`` (chunked over monolithic subprocess
peak RSS) <= 1.0 — all from the very first run.  Floor and ceiling
metrics are deliberately *not* in the relative trend gate: a falling
ratio is an improvement for a ceiling metric, and ``warm_speedup``'s cold
side is one compile timed once.  With fewer than two history entries
there is nothing to compare yet and the check passes (that is the "once
history exists" contract: the first run of a fresh clone seeds the
baseline).

Before comparing, every record is validated against the explicit schema
(:func:`validate_record`): ``history`` must be a list of dicts, each entry
must carry a numeric non-decreasing ``ts``, and every tracked metric that
is present must be numeric.  Older entries may legitimately *lack* newer
metrics (``multi_gain`` and ``facility_gain`` post-date the placement
record's first runs) — absence is fine, a wrong type or a time-travelling
timestamp is a named error, never a traceback.

Usage::

    python benchmarks/check_bench_trends.py                  # both defaults
    python benchmarks/check_bench_trends.py BENCH_placement.json
    python benchmarks/check_bench_trends.py --tolerance 0.3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: metrics tracked per benchmark record (non-metric keys like ``ts`` ignored)
METRICS_BY_FILE = {
    # every trace-engine ratio and rate is gated on host-scaled times
    # (perfbench.clock.Clock); the raw values are recorded beside them,
    # ungated
    "BENCH_trace_engine.json": (
        "sweep_scaled", "single_scaled", "direct_scaled", "opt_scaled",
        "set_assoc_scaled", "two_level_scaled",
        "looped_compile_scaled_accesses_per_s", "looped_replay_scaled_accesses_per_s",
        "lru_replay_scaled_accesses_per_s", "set_assoc_replay_scaled_accesses_per_s",
        "flat_compile_scaled_accesses_per_s", "measure_scaled_accesses_per_s",
        "measure_stream_scaled_accesses_per_s", "schedule_scaled_firings_per_s",
    ),
    "BENCH_placement.json": (
        "score", "swap_gain", "color_gain", "multi_gain", "facility_gain",
        "evals_per_s",
    ),
}
DEFAULT_JSONS = [_ROOT / name for name in METRICS_BY_FILE]

#: absolute floors on the *latest* entry: ``(metric, floor)`` for
#: higher-is-better metrics.  Unlike the relative trend gate these hold
#: from the very first run.
FLOORS_BY_FILE = {
    "BENCH_trace_engine.json": (
        # a trace-cache hit against one cold compile of the bench's trace
        ("warm_speedup", 5.0),
    ),
}

#: absolute ceilings on the *latest* entry: ``(metric, ceiling)`` for
#: lower-is-better metrics.  Like the floors they hold from the very first
#: run; unlike the tracked metrics they are excluded from the relative
#: trend gate, where a *drop* (an improvement, for a ratio like
#: ``obs_overhead``) would be misread as a regression.
CEILINGS_BY_FILE = {
    "BENCH_trace_engine.json": (
        ("obs_overhead", 1.02),
        ("streaming_overhead", 1.25),
        ("streaming_rss_ratio", 1.0),
    ),
    "BENCH_placement.json": (
        # minimax's worst per-target miss ratio vs the seed: the
        # never-worse contract, held from the very first recorded run
        ("minimax_worst", 1.0),
    ),
}

#: keys every history entry must carry; everything else is optional
REQUIRED_ENTRY_KEYS = ("ts",)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_record(record: object, name: str, metrics: tuple) -> list:
    """Schema-check one benchmark record; return a list of named errors.

    Every message names the offending key (and entry index), so a corrupt
    record fails with ``history[3].ts: expected a number, got str`` instead
    of a ``KeyError`` five frames deep in the comparison loop.
    """
    errors = []
    if not isinstance(record, dict):
        return [f"{name}: top level must be a JSON object, got {type(record).__name__}"]
    history = record.get("history")
    if history is None:
        return [f"{name}: required key 'history' is missing"]
    if not isinstance(history, list):
        return [f"{name}: 'history' must be a list, got {type(history).__name__}"]
    prev_ts = None
    for i, entry in enumerate(history):
        where = f"{name}: history[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object, got {type(entry).__name__}")
            continue
        for key in REQUIRED_ENTRY_KEYS:
            if key not in entry:
                errors.append(f"{where}.{key}: required key is missing")
            elif not _is_number(entry[key]):
                errors.append(
                    f"{where}.{key}: expected a number, "
                    f"got {type(entry[key]).__name__}"
                )
        ts = entry.get("ts")
        if _is_number(ts):
            if prev_ts is not None and ts < prev_ts:
                errors.append(
                    f"{where}.ts: timestamps must be non-decreasing "
                    f"({ts} after {prev_ts})"
                )
            prev_ts = ts
        # tracked metrics are optional per entry (older records predate
        # newer metrics) but must be numeric when present
        for metric in metrics:
            if metric in entry and not _is_number(entry[metric]):
                errors.append(
                    f"{where}.{metric}: expected a number, "
                    f"got {type(entry[metric]).__name__}"
                )
    return errors


def check(path: Path, tolerance: float) -> int:
    if not path.exists():
        print(f"trend check: {path} does not exist yet - nothing to compare")
        return 0
    try:
        record = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"trend check: cannot parse {path}: {exc}")
        return 1
    known_metrics = METRICS_BY_FILE.get(path.name, ()) + tuple(
        metric
        for limits in (FLOORS_BY_FILE, CEILINGS_BY_FILE)
        for metric, _limit in limits.get(path.name, ())
    )
    schema_errors = validate_record(record, path.name, known_metrics)
    if schema_errors:
        for err in schema_errors:
            print(f"trend check: schema error - {err}")
        return 1
    history = record.get("history", [])
    if len(history) < 2:
        print(
            f"trend check: {len(history)} history entr"
            f"{'y' if len(history) == 1 else 'ies'} in {path.name} - "
            "need two runs before regressions can be detected"
        )
        # the absolute floors and ceilings hold from the very first run
        failed = check_floors(path.name, history) + check_ceilings(
            path.name, history
        )
        return 1 if failed else 0
    prev, last = history[-2], history[-1]
    metrics = METRICS_BY_FILE.get(path.name)
    if metrics is None:
        # unknown record: track every numeric summary key except timestamps
        metrics = tuple(
            k for k, v in last.items()
            if k != "ts" and isinstance(v, (int, float)) and not isinstance(v, bool)
        )
    failures = []
    print(f"{path.name}:")
    for metric in metrics:
        if metric not in prev or metric not in last:
            continue
        floor = prev[metric] * (1.0 - tolerance)
        status = "ok" if last[metric] >= floor else "REGRESSED"
        print(
            f"  {metric:10s} {prev[metric]:8.2f}x -> {last[metric]:8.2f}x "
            f"(floor {floor:.2f}x)  {status}"
        )
        if last[metric] < floor:
            failures.append(metric)
    floor_failures = check_floors(path.name, history)
    ceiling_failures = check_ceilings(path.name, history)
    if failures:
        print(
            f"trend check: FAIL - {', '.join(failures)} fell more than "
            f"{tolerance:.0%} below the previous run"
        )
        return 1
    if floor_failures or ceiling_failures:
        return 1
    print(f"trend check: ok ({len(history)} runs tracked)")
    return 0


def check_floors(name: str, history: list) -> list:
    """Absolute floors on the newest entry; returns failed metric names."""
    floors = FLOORS_BY_FILE.get(name)
    if not floors or not history or not isinstance(history[-1], dict):
        return []
    last = history[-1]
    failures = []
    for metric, floor in floors:
        value = last.get(metric)
        if not _is_number(value):
            continue
        status = "ok" if value >= floor else "BELOW FLOOR"
        print(f"  {metric:14s} {value:8.2f}x  (absolute floor {floor:.2f}x)  {status}")
        if value < floor:
            failures.append(metric)
    if failures:
        print(
            f"trend check: FAIL - {', '.join(failures)} below the absolute "
            f"floor for {name}"
        )
    return failures


def check_ceilings(name: str, history: list) -> list:
    """Absolute ceilings on the newest entry; returns failed metric names.

    Lower is better for these metrics, so the check is ``value <=
    ceiling``; entries that predate a metric pass (absence is fine, same
    contract as the floors).
    """
    ceilings = CEILINGS_BY_FILE.get(name)
    if not ceilings or not history or not isinstance(history[-1], dict):
        return []
    last = history[-1]
    failures = []
    for metric, ceiling in ceilings:
        value = last.get(metric)
        if not _is_number(value):
            continue
        status = "ok" if value <= ceiling else "ABOVE CEILING"
        print(
            f"  {metric:14s} {value:8.3f}x  (absolute ceiling "
            f"{ceiling:.2f}x)  {status}"
        )
        if value > ceiling:
            failures.append(metric)
    if failures:
        print(
            f"trend check: FAIL - {', '.join(failures)} above the absolute "
            f"ceiling for {name}"
        )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "json_paths",
        nargs="*",
        default=[str(p) for p in DEFAULT_JSONS],
        help="benchmark records to check (default: every known BENCH_*.json)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="tolerated fractional drop vs the previous run (default 0.30)",
    )
    args = ap.parse_args(argv)
    return max(check(Path(p), args.tolerance) for p in args.json_paths)


if __name__ == "__main__":
    sys.exit(main())
