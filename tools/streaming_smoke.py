#!/usr/bin/env python
"""Out-of-core smoke test: a ~10^7-access schedule under an RSS ceiling.

The streaming engine's reason to exist is a trace that does not fit in
memory; this script proves it holds, end to end, on a real schedule.  Two
subprocesses run the same workload under the same address-space ceiling
(``resource.setrlimit(RLIMIT_AS)`` — ``RLIMIT_RSS`` is not enforced on
Linux), calibrated at runtime to the interpreter's post-import footprint
plus a fixed margin far below the trace's own size:

* the **chunked** child (``compile_trace_chunked`` + ``simulate_trace``)
  must finish: its peak is O(chunk_words + carried state), the trace lives
  on disk as content-addressed segments.  Its 2-way ``mod`` geometry is
  answered from two slices of the periodic trace, so the child also
  replays the same geometry with ``index_scheme="xor"``, which the period
  shortcut does not cover: that one streams every segment through the
  carried kernels.  The child's counters must show both paths ran
  (``replay.period_geometries == 1``, ``compile.period_repeats > 0``);
* the **monolithic** child (``compile_trace`` + ``simulate_trace``) must
  die with ``MemoryError``: the block trace alone (int64 blocks + uint8
  phases, ~9 bytes/access) exceeds the margin before replay even starts.

CI runs this as the ``streaming-smoke`` job::

    PYTHONPATH=src python tools/streaming_smoke.py

Exit status 0 means both halves behaved: streamed result produced under
the ceiling, monolithic path provably over it.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: total accesses the looped schedule expands to (>= 10^7)
TARGET_ACCESSES = 12_000_000
#: address-space headroom granted over the post-import footprint: above
#: the streaming path's O(chunk) needs (the vectorized stack-distance pass
#: allocates several int64 temporaries per chunk), below the ~108 MB the
#: monolithic trace arrays alone require
MARGIN_MB = 96
#: streaming chunk size (accesses per segment)
CHUNK_WORDS = 1 << 16


def _workload():
    """A looped schedule expanding to >= TARGET_ACCESSES accesses over a
    bounded working set (so the carried state stays small)."""
    from repro.core.baselines import interleaved_schedule
    from repro.graphs.topologies import pipeline
    from repro.runtime.looped import Loop, LoopedSchedule

    g = pipeline([24, 16, 32, 8, 40, 16], name="smoke6")
    one = interleaved_schedule(g, n_iterations=1)
    from repro.runtime.compiled import compile_trace_uncached

    per_iter = compile_trace_uncached(g, one, 8, capacities=one.capacities).accesses
    reps = -(-TARGET_ACCESSES // per_iter)  # ceil
    sched = LoopedSchedule(
        loops=(Loop(count=reps, body=tuple(one.firings)),),
        capacities=one.capacities,
        label=f"smoke-x{reps}",
    )
    return g, sched


def _apply_ceiling(margin_mb: int) -> int:
    """Clamp this process's address space to its current VmSize plus
    ``margin_mb``; returns the limit in bytes."""
    import resource

    vm_kb = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                vm_kb = int(line.split()[1])
                break
    limit = vm_kb * 1024 + margin_mb * (1 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return limit


def _run_child(mode: str, margin_mb: int) -> int:
    import tempfile

    from repro.cache.base import CacheGeometry

    g, sched = _workload()
    geom = CacheGeometry(size=16 * 8, block=8, ways=2)
    limit = _apply_ceiling(margin_mb)
    print(f"[{mode}] ceiling: {limit / (1 << 20):.0f} MB of address space",
          flush=True)
    from repro import obs
    from repro.obs import names as obs_names
    from repro.runtime.compiled import compile_trace, simulate_trace

    if mode == "chunked":
        from repro.runtime.streaming import compile_trace_chunked
        from repro.runtime.trace_cache import TraceCache

        xor = CacheGeometry(size=16 * 8, block=8, ways=2, index_scheme="xor")
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp, \
                obs.capture(enabled=True) as cap:
            cache = TraceCache(tmp, max_bytes=1 << 31)
            trace = compile_trace_chunked(
                g, sched, 8, chunk_words=CHUNK_WORDS, cache=cache
            )
            result, streamed = simulate_trace(trace, [geom, xor], policy="lru")
        counters = cap.snapshot["counters"]
        sliced = counters.get(obs_names.REPLAY_PERIOD_GEOMETRIES, 0)
        repeats = counters.get(obs_names.COMPILE_PERIOD_REPEATS, 0)
        print(f"[{mode}] xor misses={streamed.misses} streamed over "
              f"{trace.n_chunks} segments; period_geometries={sliced} "
              f"period_repeats={repeats}", flush=True)
        if sliced != 1 or repeats <= 0:
            print(f"[{mode}] FAIL: expected one geometry answered from the "
                  "period and a compile that repeated periods", flush=True)
            return 1
    else:
        trace = compile_trace(g, sched, 8)
        result = simulate_trace(trace, [geom], policy="lru")[0]
    print(f"[{mode}] OK accesses={result.accesses} misses={result.misses}",
          flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=("chunked", "monolithic"))
    parser.add_argument("--margin-mb", type=int, default=MARGIN_MB)
    args = parser.parse_args(argv)
    if args.child:
        return _run_child(args.child, args.margin_mb)

    def spawn(mode: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", mode,
             "--margin-mb", str(args.margin_mb)],
            cwd=ROOT, capture_output=True, text=True, timeout=1800,
        )

    chunked = spawn("chunked")
    sys.stdout.write(chunked.stdout)
    if chunked.returncode != 0:
        sys.stderr.write(chunked.stderr)
        print("FAIL: streaming run did not survive the memory ceiling")
        return 1
    mono = spawn("monolithic")
    sys.stdout.write(mono.stdout)
    if mono.returncode == 0:
        print("FAIL: monolithic run survived a ceiling meant to exclude it "
              "(raise TARGET_ACCESSES or lower MARGIN_MB)")
        return 1
    if "MemoryError" not in mono.stderr:
        sys.stderr.write(mono.stderr)
        print("FAIL: monolithic run died, but not from the memory ceiling")
        return 1
    print(f"[monolithic] exceeded the ceiling as expected (MemoryError)")
    print("streaming smoke: ok")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
