"""Trace-engine benchmark: compiled single-pass sweeps vs the stepwise
paths they replaced, on the geometry-sweep workload the engine was built
for — now per replacement policy.

Measurements, all asserted and all recorded in ``BENCH_trace_engine.json``
at the repo root (with a rolling ``history`` so
``benchmarks/check_bench_trends.py`` can fail on regressions):

* **sweep** (fully-associative LRU): answer N cache sizes for one
  partitioned schedule — the executor pays N full simulations, the engine
  one compile plus one vectorized stack-distance pass.  Acceptance: >= 5x.
* **single**: one geometry, drop-in ``measure_compiled`` vs
  ``Executor.measure`` — must not be slower than ~par (no regression for
  non-sweep callers).
* **direct**: the stepwise loop the E12/A6 rewiring replaced — a
  ``DirectMappedCache`` walked block by block per geometry — vs the
  per-frame last-block replay.  Acceptance: >= 5x on the sweep.
* **opt**: the stepwise loop the A3/E8 rewiring replaced — one heap-based
  ``simulate_opt`` per geometry — vs the single truncated priority-stack
  pass answering every capacity.  Acceptance: >= 5x on the sweep.
* **set_assoc**: a ways sweep at fixed set count through the stepwise
  set-associative ``LRUCache`` vs the shared set-grouped stack-distance
  pass.  New capability (no replaced path): recorded, sanity-bounded only.
* **two_level**: the stepwise loop the E12 hierarchy row replaced — a
  ``TwoLevelCache`` walked block by block per (L1, L2) pair — vs the
  hierarchical replay (one L1 pass per distinct L1, its miss sub-trace
  feeding one L2 pass per capacity).  Acceptance: >= 5x on the grid.
* **obs_overhead**: the LRU sweep with :mod:`repro.obs` instrumentation
  enabled vs disabled (best of N, interleaved) — the enabled/disabled
  wall-time *ratio*, lower is better.  Acceptance: <= 1.02x, enforced
  here and as an absolute ceiling by ``check_bench_trends.py``.
* **streaming_overhead**: the LRU sweep through the out-of-core streaming
  replay (``chunk_words = accesses // 8``) vs the monolithic replay
  (best of N, interleaved) — the chunked/monolithic wall-time *ratio*,
  lower is better.  Acceptance: <= 1.25x, enforced here and as an
  absolute ceiling by ``check_bench_trends.py``.
* **streaming_rss_ratio**: peak RSS of a subprocess that compiles +
  replays a looped ~2x10^6-access schedule chunked, over the same
  workload monolithic — lower is better, < 1.0 means the streaming path
  really is the smaller footprint.  The child reads its own high-water
  mark (``VmHWM``); Linux carries the spawning process's peak into a
  child's ``ru_maxrss`` across fork and exec, so that figure never reads
  below the benchmark process's own RSS.  Acceptance: <= 1.0 (ceiling in
  ``check_bench_trends.py``; ``tools/streaming_smoke.py`` proves the
  harder absolute claim under ``RLIMIT_AS`` in its own CI job).
* **looped_compile_accesses_per_s** / **looped_replay_accesses_per_s**:
  absolute throughput on the RSS probe's looped pipeline (~1.5x10^6
  accesses), best of 5 — a monolithic ``compile_trace`` (accesses
  compiled per second), and ``simulate_trace`` of that trace for the
  probe's 2-way lru geometry plus one direct geometry (accesses times
  geometries answered per second).  Trend-gated like the speedups.

Every path must agree miss-for-miss with its stepwise oracle at every size
(the oracle property, re-checked here on the benchmark workload itself).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.cache.base import CacheGeometry
from repro.cache.direct import DirectMappedCache
from repro.cache.hierarchy import TwoLevelCache, TwoLevelGeometry
from repro.cache.lru import LRUCache
from repro.cache.opt import simulate_opt
from repro.core.baselines import interleaved_schedule
from repro.core.partition_sched import component_layout_order, pipeline_dynamic_schedule
from repro.core.pipeline import optimal_pipeline_partition
from repro.graphs.topologies import pipeline, random_pipeline
from repro.runtime.compiled import (
    compile_trace,
    compile_trace_uncached,
    measure_compiled,
    simulate_trace,
)
from repro.runtime.executor import Executor
from repro.runtime.looped import Loop, LoopedSchedule

B = 8
SWEEP_SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
SET_ASSOC_WAYS = (1, 2, 4, 8, 16, 32)
SET_ASSOC_SETS = 16
TWO_LEVEL_L1 = (96, 128, 192)
TWO_LEVEL_L2 = (256, 512, 768, 1024)
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace_engine.json"
HISTORY_CAP = 50


#: the streaming RSS probe: a fresh interpreter compiles + replays a looped
#: ~1.5x10^6-access schedule and reports its own peak RSS.  Run once per
#: mode so neither pass inherits the other's high-water mark.
_RSS_CHILD = """\
import resource, sys, tempfile
from repro.cache.base import CacheGeometry
from repro.core.baselines import interleaved_schedule
from repro.graphs.topologies import pipeline
from repro.runtime.compiled import (
    compile_trace, compile_trace_uncached, simulate_trace,
)
from repro.runtime.looped import Loop, LoopedSchedule

mode = sys.argv[1]
g = pipeline([24, 16, 32, 8, 40, 16], name="bench-rss")
one = interleaved_schedule(g, n_iterations=1)
per_iter = compile_trace_uncached(g, one, 8, capacities=one.capacities).accesses
reps = -(-1_500_000 // per_iter)
sched = LoopedSchedule(
    loops=(Loop(count=reps, body=tuple(one.firings)),),
    capacities=one.capacities,
    label=f"bench-rss-x{reps}",
)
geom = CacheGeometry(size=16 * 8, block=8, ways=2)
if mode == "chunked":
    from repro.runtime.streaming import compile_trace_chunked
    from repro.runtime.trace_cache import TraceCache

    with tempfile.TemporaryDirectory(prefix="repro-bench-rss-") as tmp:
        cache = TraceCache(tmp, max_bytes=1 << 31)
        trace = compile_trace_chunked(g, sched, 8, chunk_words=1 << 15, cache=cache)
        result = simulate_trace(trace, [geom], policy="lru")[0]
else:
    trace = compile_trace(g, sched, 8)
    result = simulate_trace(trace, [geom], policy="lru")[0]
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:  # this process's own peak; ru_maxrss also counts the spawner's
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
print(result.misses, peak_kb)
"""


def _streaming_rss(mode):
    """(misses, peak RSS in KB) of a fresh interpreter running the looped
    RSS workload in ``mode`` ('chunked' | 'monolithic')."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, mode],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    misses, maxrss = out.stdout.split()
    return int(misses), int(maxrss)


def _looped_workload():
    """The RSS probe's looped pipeline, built in-process: ``(graph,
    schedule, [lru 2-way geometry, direct geometry])``."""
    g = pipeline([24, 16, 32, 8, 40, 16], name="bench-rss")
    one = interleaved_schedule(g, n_iterations=1)
    per_iter = compile_trace_uncached(g, one, 8, capacities=one.capacities).accesses
    reps = -(-1_500_000 // per_iter)
    sched = LoopedSchedule(
        loops=(Loop(count=reps, body=tuple(one.firings)),),
        capacities=one.capacities,
        label=f"bench-rss-x{reps}",
    )
    geoms = [
        CacheGeometry(size=16 * 8, block=8, ways=2),
        CacheGeometry(size=32 * 8, block=8, ways=1),
    ]
    return g, sched, geoms


def _looped_throughput():
    """Best-of-5 ``(compile accesses/s, replay accesses/s, accesses)`` on
    the looped workload; replay counts accesses times geometries."""
    g, sched, geoms = _looped_workload()
    t_compile = t_replay = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        trace = compile_trace(g, sched, B)
        t_compile = min(t_compile, time.perf_counter() - t0)
        t0 = time.perf_counter()
        simulate_trace(trace, geoms[:1], policy="lru")
        simulate_trace(trace, geoms[1:], policy="direct")
        t_replay = min(t_replay, time.perf_counter() - t0)
    n = trace.accesses
    return n / t_compile, n * len(geoms) / t_replay, n


def _workload(n_outputs=800):
    g = random_pipeline(18, 48, seed=11, rate_choices=((1, 1), (2, 1), (1, 2)))
    M = 128
    part = optimal_pipeline_partition(g, M, c=1.0)
    sched = pipeline_dynamic_schedule(
        g, part, CacheGeometry(size=M, block=B), target_outputs=n_outputs
    )
    return g, sched, component_layout_order(part)


def _model_sweep_misses(trace_blocks, make_model, geoms):
    """The stepwise loop: feed the whole trace through a fresh model per
    geometry (this is what the rewired sweeps used to pay)."""
    out = []
    for geom in geoms:
        model = make_model(geom)
        access = model.access_block
        for b in trace_blocks:
            access(b)
        out.append(model.stats.misses)
    return out


def test_trace_engine_speedup(show):
    g, sched, order = _workload()
    geoms = [CacheGeometry(size=s, block=B) for s in SWEEP_SIZES]

    t0 = time.perf_counter()
    ref = [
        Executor.measure(g, geom, sched, layout_order=order).misses for geom in geoms
    ]
    t_executor_sweep = time.perf_counter() - t0

    t0 = time.perf_counter()
    trace = compile_trace(g, sched, B, layout_order=order)
    fast = [r.misses for r in simulate_trace(trace, geoms)]
    t_compiled_sweep = time.perf_counter() - t0

    assert fast == ref, "compiled sweep diverged from stepwise executor"
    sweep_speedup = t_executor_sweep / t_compiled_sweep

    one = geoms[len(geoms) // 2]
    t0 = time.perf_counter()
    ref_one = Executor.measure(g, one, sched, layout_order=order)
    t_executor_one = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_one = measure_compiled(g, one, sched, layout_order=order)
    t_compiled_one = time.perf_counter() - t0
    assert fast_one.misses == ref_one.misses
    single_speedup = t_executor_one / t_compiled_one

    blocks_list = trace.blocks.tolist()

    # --- direct-mapped: stepwise model loop vs per-frame last-block replay
    t0 = time.perf_counter()
    dm_ref = _model_sweep_misses(blocks_list, DirectMappedCache, geoms)
    t_dm_step = time.perf_counter() - t0
    t0 = time.perf_counter()
    dm_fast = [r.misses for r in simulate_trace(trace, geoms, policy="direct")]
    t_dm_replay = time.perf_counter() - t0
    assert dm_fast == dm_ref, "direct-mapped replay diverged from stepwise model"
    dm_speedup = t_dm_step / t_dm_replay

    # --- OPT: one heap simulation per size vs one priority-stack pass
    t0 = time.perf_counter()
    opt_ref = [simulate_opt(blocks_list, geom).misses for geom in geoms]
    t_opt_step = time.perf_counter() - t0
    t0 = time.perf_counter()
    opt_fast = [r.misses for r in simulate_trace(trace, geoms, policy="opt")]
    t_opt_replay = time.perf_counter() - t0
    assert opt_fast == opt_ref, "OPT replay diverged from stepwise simulate_opt"
    opt_speedup = t_opt_step / t_opt_replay

    # --- set-associative LRU: ways sweep at fixed set count
    sa_geoms = [
        CacheGeometry(size=SET_ASSOC_SETS * w * B, block=B, ways=w)
        for w in SET_ASSOC_WAYS
    ]
    t0 = time.perf_counter()
    sa_ref = _model_sweep_misses(blocks_list, LRUCache, sa_geoms)
    t_sa_step = time.perf_counter() - t0
    t0 = time.perf_counter()
    sa_fast = [r.misses for r in simulate_trace(trace, sa_geoms, policy="lru")]
    t_sa_replay = time.perf_counter() - t0
    assert sa_fast == sa_ref, "set-associative replay diverged from stepwise LRU"
    sa_speedup = t_sa_step / t_sa_replay

    # --- two-level hierarchy: stepwise TwoLevelCache per (L1, L2) pair vs
    # the hierarchical replay (the E12 rewiring); the grid shares one L1
    # pass per L1 size, so the sweep amortizes exactly where the stepwise
    # loop cannot
    tl_geoms = [
        TwoLevelGeometry(
            CacheGeometry(size=l1, block=B), CacheGeometry(size=l2, block=B)
        )
        for l1 in TWO_LEVEL_L1
        for l2 in TWO_LEVEL_L2
    ]
    t0 = time.perf_counter()
    tl_ref = _model_sweep_misses(
        blocks_list, lambda tg: TwoLevelCache(tg.l1, tg.l2), tl_geoms
    )
    t_tl_step = time.perf_counter() - t0
    t0 = time.perf_counter()
    tl_fast = [r.misses for r in simulate_trace(trace, tl_geoms, policy="two_level")]
    t_tl_replay = time.perf_counter() - t0
    assert tl_fast == tl_ref, "two-level replay diverged from stepwise TwoLevelCache"
    tl_speedup = t_tl_step / t_tl_replay

    # --- obs overhead: instrumentation must be ~free.  Enabled-vs-disabled
    # is the stricter proxy for the disabled-cost contract: whatever the
    # full emitters cost, the one-boolean disabled path costs less.  Runs
    # interleave (off, on, off, on, ...) so clock drift cancels; best-of-N
    # on each side rejects scheduler noise.
    from repro import obs

    t_obs_off = t_obs_on = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        off_misses = [r.misses for r in simulate_trace(trace, geoms)]
        t_obs_off = min(t_obs_off, time.perf_counter() - t0)
        with obs.capture(enabled=True):
            t0 = time.perf_counter()
            on_misses = [r.misses for r in simulate_trace(trace, geoms)]
            t_obs_on = min(t_obs_on, time.perf_counter() - t0)
        assert on_misses == off_misses, "instrumentation changed the answers"
    obs_overhead = t_obs_on / t_obs_off

    # --- streaming: the out-of-core replay must stay near the monolithic
    # path's speed on an in-memory trace (same interleaved best-of-N
    # discipline as obs_overhead) and must beat it on peak footprint on a
    # large one (fresh subprocess per mode, its own peak RSS each).
    stream_words = max(1, trace.accesses // 8)
    t_stream_off = t_stream_on = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        mono_misses = [r.misses for r in simulate_trace(trace, geoms)]
        t_stream_off = min(t_stream_off, time.perf_counter() - t0)
        t0 = time.perf_counter()
        chunk_misses = [
            r.misses
            for r in simulate_trace(trace, geoms, chunk_words=stream_words)
        ]
        t_stream_on = min(t_stream_on, time.perf_counter() - t0)
        assert chunk_misses == mono_misses, "chunked replay changed the answers"
    streaming_overhead = t_stream_on / t_stream_off

    rss_chunk_misses, rss_chunked_kb = _streaming_rss("chunked")
    rss_mono_misses, rss_mono_kb = _streaming_rss("monolithic")
    assert rss_chunk_misses == rss_mono_misses, (
        "chunked RSS probe disagreed with the monolithic one on misses"
    )
    streaming_rss_ratio = rss_chunked_kb / rss_mono_kb

    looped_compile, looped_replay, looped_accesses = _looped_throughput()

    summary = {
        "ts": round(time.time(), 1),
        "sweep": round(sweep_speedup, 2),
        "single": round(single_speedup, 2),
        "direct": round(dm_speedup, 2),
        "opt": round(opt_speedup, 2),
        "set_assoc": round(sa_speedup, 2),
        "two_level": round(tl_speedup, 2),
        "obs_overhead": round(obs_overhead, 3),
        "streaming_overhead": round(streaming_overhead, 3),
        "streaming_rss_ratio": round(streaming_rss_ratio, 3),
        "looped_compile_accesses_per_s": round(looped_compile),
        "looped_replay_accesses_per_s": round(looped_replay),
    }
    history = []
    if JSON_PATH.exists():
        try:
            history = json.loads(JSON_PATH.read_text()).get("history", [])
        except (json.JSONDecodeError, OSError):
            history = []
    history = (history + [summary])[-HISTORY_CAP:]

    record = {
        "workload": {
            "graph": "random_pipeline(18, 48, seed=11)",
            "schedule": sched.label,
            "firings": trace.firings,
            "trace_accesses": trace.accesses,
            "sweep_sizes": list(SWEEP_SIZES),
            "set_assoc": {"sets": SET_ASSOC_SETS, "ways": list(SET_ASSOC_WAYS)},
            "two_level": {"l1": list(TWO_LEVEL_L1), "l2": list(TWO_LEVEL_L2)},
            "block": B,
        },
        "sweep": {
            "executor_s": round(t_executor_sweep, 4),
            "compiled_s": round(t_compiled_sweep, 4),
            "speedup": round(sweep_speedup, 2),
        },
        "single_geometry": {
            "executor_s": round(t_executor_one, 4),
            "compiled_s": round(t_compiled_one, 4),
            "speedup": round(single_speedup, 2),
        },
        "policies": {
            "direct": {
                "stepwise_s": round(t_dm_step, 4),
                "replay_s": round(t_dm_replay, 4),
                "speedup": round(dm_speedup, 2),
            },
            "opt": {
                "stepwise_s": round(t_opt_step, 4),
                "replay_s": round(t_opt_replay, 4),
                "speedup": round(opt_speedup, 2),
            },
            "set_assoc": {
                "stepwise_s": round(t_sa_step, 4),
                "replay_s": round(t_sa_replay, 4),
                "speedup": round(sa_speedup, 2),
            },
            "two_level": {
                "stepwise_s": round(t_tl_step, 4),
                "replay_s": round(t_tl_replay, 4),
                "speedup": round(tl_speedup, 2),
            },
        },
        "obs": {
            "disabled_s": round(t_obs_off, 4),
            "enabled_s": round(t_obs_on, 4),
            "obs_overhead": round(obs_overhead, 3),
        },
        "streaming": {
            "chunk_words": stream_words,
            "monolithic_s": round(t_stream_off, 4),
            "chunked_s": round(t_stream_on, 4),
            "streaming_overhead": round(streaming_overhead, 3),
            "rss_monolithic_kb": rss_mono_kb,
            "rss_chunked_kb": rss_chunked_kb,
            "streaming_rss_ratio": round(streaming_rss_ratio, 3),
        },
        "looped": {
            "schedule": "pipeline([24, 16, 32, 8, 40, 16]) interleaved, one Loop",
            "trace_accesses": looped_accesses,
            "geometries": ["lru 16 frames 2-way", "direct 32 frames"],
            "compile_accesses_per_s": round(looped_compile),
            "replay_accesses_per_s": round(looped_replay),
        },
        "history": history,
    }

    show(
        [
            {"path": "lru sweep (9 sizes)", "stepwise_s": round(t_executor_sweep, 3),
             "replay_s": round(t_compiled_sweep, 3), "speedup": round(sweep_speedup, 1)},
            {"path": "single geometry", "stepwise_s": round(t_executor_one, 3),
             "replay_s": round(t_compiled_one, 3), "speedup": round(single_speedup, 1)},
            {"path": "direct sweep (9 sizes)", "stepwise_s": round(t_dm_step, 3),
             "replay_s": round(t_dm_replay, 3), "speedup": round(dm_speedup, 1)},
            {"path": "opt sweep (9 sizes)", "stepwise_s": round(t_opt_step, 3),
             "replay_s": round(t_opt_replay, 3), "speedup": round(opt_speedup, 1)},
            {"path": "set-assoc ways sweep (6)", "stepwise_s": round(t_sa_step, 3),
             "replay_s": round(t_sa_replay, 3), "speedup": round(sa_speedup, 1)},
            {"path": "two-level grid (3x4)", "stepwise_s": round(t_tl_step, 3),
             "replay_s": round(t_tl_replay, 3), "speedup": round(tl_speedup, 1)},
            {"path": "obs on vs off (lru sweep)", "stepwise_s": round(t_obs_off, 3),
             "replay_s": round(t_obs_on, 3), "speedup": round(obs_overhead, 3)},
            {"path": "chunked vs mono (lru sweep)",
             "stepwise_s": round(t_stream_off, 3),
             "replay_s": round(t_stream_on, 3),
             "speedup": round(streaming_overhead, 3)},
            {"path": "chunked vs mono peak RSS (MB)",
             "stepwise_s": round(rss_mono_kb / 1024, 1),
             "replay_s": round(rss_chunked_kb / 1024, 1),
             "speedup": round(streaming_rss_ratio, 3)},
            {"path": "looped compile / replay (M accesses/s)",
             "stepwise_s": round(looped_compile / 1e6, 2),
             "replay_s": round(looped_replay / 1e6, 2),
             "speedup": ""},
        ],
        "trace engine: vectorized replay vs stepwise loops",
    )
    assert sweep_speedup >= 5.0, f"sweep speedup {sweep_speedup:.1f}x < 5x target"
    assert single_speedup >= 0.5, "compiled path regressed the single-geometry case"
    assert dm_speedup >= 5.0, f"direct-mapped sweep {dm_speedup:.1f}x < 5x target"
    assert opt_speedup >= 5.0, f"OPT sweep {opt_speedup:.1f}x < 5x target"
    assert sa_speedup >= 0.5, "set-associative replay should not be dramatically slower"
    assert tl_speedup >= 5.0, f"two-level grid {tl_speedup:.1f}x < 5x target"
    assert obs_overhead <= 1.02, (
        f"instrumentation overhead {obs_overhead:.3f}x > 1.02x ceiling"
    )
    assert streaming_overhead <= 1.25, (
        f"streaming replay overhead {streaming_overhead:.3f}x > 1.25x ceiling"
    )
    assert streaming_rss_ratio < 1.0, (
        f"streaming peak RSS {streaming_rss_ratio:.3f}x of monolithic — the "
        "out-of-core path should be the smaller footprint"
    )

    # record only after every gate passed, so a regressed run can never
    # become the trend check's next baseline
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
