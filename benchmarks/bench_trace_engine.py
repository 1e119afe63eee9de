"""Trace-engine benchmark: compiled single-pass sweeps vs the stepwise
paths they replaced, on the geometry-sweep workload the engine was built
for — now per replacement policy.

Measurements, all asserted and all recorded in ``BENCH_trace_engine.json``
at the repo root (with a rolling ``history`` so
``benchmarks/check_bench_trends.py`` can fail on regressions).  Each
stepwise-vs-replay ratio (sweep, single, direct, opt, set_assoc,
two_level) times 3 runs on both sides, each under a
:class:`perfbench.clock.Clock`: the stepwise Python loops alone vary about
2x from run to run on a shared host.  The ratio of the best wall times is
recorded under the ratio's name and held to its acceptance bound here;
``<name>_scaled``, the ratio of the median host-scaled times, is what the
trend gate compares.  Every absolute rate below is likewise recorded raw
and trend-gated on its host-scaled median (``*_scaled_*`` keys).

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
  pass.  New capability (no replaced path): sanity-bounded only.
* **two_level**: the stepwise loop the E12 hierarchy row replaced — a
  ``TwoLevelCache`` walked block by block per (L1, L2) pair — vs the
  hierarchical replay (one L1 pass per distinct L1, its miss sub-trace
  feeding one L2 pass per capacity).  Acceptance: >= 5x on the grid.
* **obs_overhead**: the LRU sweep with :mod:`repro.obs` instrumentation
  enabled vs disabled (best of 15, interleaved) — the enabled/disabled
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
  accesses) — monolithic ``compile_trace`` calls (accesses compiled per
  second), and ``simulate_trace`` of that trace for the probe's 2-way lru
  geometry plus one direct geometry (accesses times geometries answered
  per second).  A compile takes ~5 ms and a replay ~1-2 ms, so each of
  their 10 samples times back-to-back calls for at least
  ``MIN_SAMPLE_S`` (50 ms) and the best per-call time counts: a
  process's first sample runs ~1.5x slower than the rest.  Neighbours'
  load on a shared host can slow several samples in a row, so each
  sample also runs under a :class:`perfbench.clock.Clock`, which probes
  the host's speed before and after it;
  ``looped_compile_scaled_accesses_per_s`` and
  ``looped_replay_scaled_accesses_per_s``, from the median host-scaled
  times, are trend-gated, and the raw rates are recorded beside them.
* **schedule_firings_per_s**: absolute throughput of
  ``pipeline_dynamic_schedule`` on this benchmark's own input (firings
  returned per second), the best of 5 clocked samples of at least
  ``MIN_SAMPLE_S`` each.  ``schedule_scaled_firings_per_s``, from the
  median host-scaled time, is trend-gated; the raw rate is recorded
  beside it.
* **flat_compile_accesses_per_s**: absolute compile throughput on this
  benchmark's own flat schedule, monolithic ``compile_trace`` calls
  (accesses compiled per second), 10 clocked samples of at least
  ``MIN_SAMPLE_S`` each.
* **measure_accesses_per_s**: absolute single-geometry throughput on the
  same schedule, 5 clocked ``measure_compiled`` calls at the sweep's
  middle size — the streamed compile and replay the experiment drivers
  measure with (accesses measured per second).
* **measure_stream_accesses_per_s**: the same on a stream-heavy schedule,
  an interleaved ``pipeline([8, 8, 8, 8])`` whose distinct blocks are
  nearly all external-stream blocks (~6x10^5 accesses, one 32-frame fully
  associative geometry), checked against a monolithic compile and replay.
  It times the recency carry the streamed measure keeps across chunks.
* **warm_speedup**: the persistent trace cache's saving — one cold
  ``cached_compile_trace`` of this benchmark's own trace into a fresh
  ``TraceCache`` (digest, compile, store) over the best of 3 warm hits
  (digest, load) of the same input, the hit checked bit-equal to the
  compiled trace.  Acceptance: >= 5x, enforced here and as an absolute floor
  by ``check_bench_trends.py``; not trend-gated, because its cold side is
  one compile timed once.
* **lru_replay_accesses_per_s** / **set_assoc_replay_accesses_per_s**:
  absolute replay throughput on this benchmark's own trace, 5 clocked
  ``simulate_trace`` calls (replay only, the trace already compiled) —
  the fully associative LRU sweep over ``SWEEP_SIZES`` and the ways sweep
  over ``SET_ASSOC_WAYS``, accesses times geometries answered per second.
  The stack-distance pass sets both.

Every path must agree miss-for-miss with its stepwise oracle at every size
(the oracle property, re-checked here on the benchmark workload itself).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

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
from repro.runtime.trace_cache import TraceCache, cached_compile_trace

from perfbench.clock import Clock

B = 8
SWEEP_SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
SET_ASSOC_WAYS = (1, 2, 4, 8, 16, 32)
SET_ASSOC_SETS = 16
TWO_LEVEL_L1 = (96, 128, 192)
TWO_LEVEL_L2 = (256, 512, 768, 1024)
#: iterations of the stream-heavy measure's interleaved pipeline
STREAM_MEASURE_ITERATIONS = 50_000
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace_engine.json"
HISTORY_CAP = 50
#: runs per side of every stepwise-vs-replay ratio (best kept)
RATIO_RUNS = 3
#: shortest timed region of one throughput sample (seconds)
MIN_SAMPLE_S = 0.05


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


def _best_of(runs, run):
    """``(best wall time of runs calls of run(), the last call's result)``."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _clocked_best_of(runs, run):
    """``(best wall time, median host-scaled time, the last call's result)``
    of ``runs`` calls of ``run()``, each timed by one
    :class:`perfbench.clock.Clock`: it runs a fixed probe before and after
    every call and scales the call's wall time by the probe's reference
    time over their mean, so a host slowed by its neighbours reads as the
    same host.  The scaled side takes the median, as perfbench does: the
    minimum picks the call whose probe was slowed most, not its work."""
    clock = Clock()
    walls, scaled = [], []
    for _ in range(runs):
        result, wall, s = clock.time(run)
        walls.append(wall)
        scaled.append(s)
    return min(walls), statistics.median(scaled), result


def _best_per_call(samples, run, min_sample_s=MIN_SAMPLE_S):
    """``(best per-call wall time, median per-call host-scaled time, the
    last call's result)`` over ``samples`` clocked samples (as in
    :func:`_clocked_best_of`), each timing back-to-back calls of ``run()``
    for at least ``min_sample_s`` seconds — a call of a few milliseconds
    timed alone swings with the host more than the trend gate allows."""

    def sample():
        calls = 0
        t0 = time.perf_counter()
        while True:
            result = run()
            calls += 1
            if time.perf_counter() - t0 >= min_sample_s:
                return calls, result

    clock = Clock()
    walls, scaled = [], []
    for _ in range(samples):
        (calls, result), wall, s = clock.time(sample)
        walls.append(wall / calls)
        scaled.append(s / calls)
    return min(walls), statistics.median(scaled), result


def _looped_throughput():
    """``(compile accesses/s, host-scaled compile accesses/s, replay
    accesses/s, host-scaled replay accesses/s, accesses)`` on the looped
    workload, from 10 compile and 10 replay samples of at least
    ``MIN_SAMPLE_S`` each; replay counts accesses times geometries."""
    g, sched, geoms = _looped_workload()
    t_compile, t_compile_scaled, trace = _best_per_call(
        10, lambda: compile_trace(g, sched, B)
    )
    t_replay, t_replay_scaled, _ = _best_per_call(10, lambda: (
        simulate_trace(trace, geoms[:1], policy="lru"),
        simulate_trace(trace, geoms[1:], policy="direct"),
    ))
    n = trace.accesses
    answered = n * len(geoms)
    return (
        n / t_compile, n / t_compile_scaled,
        answered / t_replay, answered / t_replay_scaled, n,
    )


def _schedule_throughput():
    """``(firings/s, host-scaled firings/s)`` of
    ``pipeline_dynamic_schedule`` on :func:`_workload`'s input: best of 5
    samples of at least ``MIN_SAMPLE_S`` each."""
    g, part, geom, n_outputs = _workload_input()
    t_schedule, t_scaled, sched = _best_per_call(
        5, lambda: pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
    )
    return len(sched.firings) / t_schedule, len(sched.firings) / t_scaled


def _warm_cache_times(g, sched, order, trace):
    """``(cold s, best warm s)``: one ``cached_compile_trace`` into a
    fresh :class:`TraceCache` against the best of 3 hits on it; the last
    hit must return ``trace``'s exact blocks."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = TraceCache(tmp)
        t0 = time.perf_counter()
        _cold, key, hit = cached_compile_trace(
            g, sched, B, layout_order=order, cache=cache
        )
        t_cold = time.perf_counter() - t0
        assert not hit and len(cache) == 1
        t_warm, (warm, warm_key, warm_hit) = _best_of(3, lambda: cached_compile_trace(
            g, sched, B, layout_order=order, cache=cache
        ))
        assert warm_hit and warm_key == key
        assert np.array_equal(warm.blocks, trace.blocks), "cache hit changed the trace"
    return t_cold, t_warm


def _lru_replay_throughput(trace, geoms):
    """``(accesses/s, host-scaled accesses/s)`` of 5 clocked lru
    ``simulate_trace`` calls of ``geoms`` over a compiled ``trace``,
    counting accesses times geometries."""
    best, scaled, _ = _clocked_best_of(
        5, lambda: simulate_trace(trace, geoms, policy="lru")
    )
    answered = trace.accesses * len(geoms)
    return answered / best, answered / scaled


def _workload_input(n_outputs=800):
    """``(graph, partition, geometry, n_outputs)`` the workload schedules."""
    g = random_pipeline(18, 48, seed=11, rate_choices=((1, 1), (2, 1), (1, 2)))
    M = 128
    part = optimal_pipeline_partition(g, M, c=1.0)
    return g, part, CacheGeometry(size=M, block=B), n_outputs


def _workload():
    g, part, geom, n_outputs = _workload_input()
    sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
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

    t_executor_sweep, t_executor_sweep_scaled, ref = _clocked_best_of(RATIO_RUNS, lambda: [
        Executor.measure(g, geom, sched, layout_order=order).misses for geom in geoms
    ])

    def compiled_sweep():
        trace = compile_trace(g, sched, B, layout_order=order)
        return trace, [r.misses for r in simulate_trace(trace, geoms)]

    t_compiled_sweep, t_compiled_sweep_scaled, (trace, fast) = _clocked_best_of(
        RATIO_RUNS, compiled_sweep
    )
    assert fast == ref, "compiled sweep diverged from stepwise executor"
    sweep_speedup = t_executor_sweep / t_compiled_sweep
    sweep_scaled = t_executor_sweep_scaled / t_compiled_sweep_scaled

    one = geoms[len(geoms) // 2]
    t_executor_one, t_executor_one_scaled, ref_one = _clocked_best_of(
        RATIO_RUNS, lambda: Executor.measure(g, one, sched, layout_order=order)
    )
    t_compiled_one, t_compiled_one_scaled, fast_one = _clocked_best_of(
        RATIO_RUNS, lambda: measure_compiled(g, one, sched, layout_order=order)
    )
    assert fast_one.misses == ref_one.misses
    single_speedup = t_executor_one / t_compiled_one
    single_scaled = t_executor_one_scaled / t_compiled_one_scaled

    t_flat_compile, t_flat_compile_scaled, _ = _best_per_call(
        10, lambda: compile_trace(g, sched, B, layout_order=order)
    )
    flat_compile = trace.accesses / t_flat_compile
    flat_compile_scaled = trace.accesses / t_flat_compile_scaled
    t_measure, t_measure_scaled, _ = _clocked_best_of(
        5, lambda: measure_compiled(g, one, sched, layout_order=order)
    )
    measure_rate = trace.accesses / t_measure
    measure_scaled = trace.accesses / t_measure_scaled
    sg = pipeline([8, 8, 8, 8])
    stream_sched = interleaved_schedule(sg, n_iterations=STREAM_MEASURE_ITERATIONS)
    stream_geom = CacheGeometry(size=32 * B, block=B)
    t_measure_stream, t_measure_stream_scaled, stream_res = _clocked_best_of(
        5, lambda: measure_compiled(sg, stream_geom, stream_sched)
    )
    assert stream_res == simulate_trace(
        compile_trace(sg, stream_sched, B), [stream_geom]
    )[0], "streamed measure diverged from the monolithic replay"
    measure_stream_rate = stream_res.accesses / t_measure_stream
    measure_stream_scaled = stream_res.accesses / t_measure_stream_scaled
    t_cold_cache, t_warm_cache = _warm_cache_times(g, sched, order, trace)
    warm_speedup = t_cold_cache / t_warm_cache

    blocks_list = trace.blocks.tolist()

    def policy_misses(geoms, policy):
        return [r.misses for r in simulate_trace(trace, geoms, policy=policy)]

    # --- direct-mapped: stepwise model loop vs per-frame last-block replay
    t_dm_step, t_dm_step_scaled, dm_ref = _clocked_best_of(
        RATIO_RUNS, lambda: _model_sweep_misses(blocks_list, DirectMappedCache, geoms)
    )
    t_dm_replay, t_dm_replay_scaled, dm_fast = _clocked_best_of(
        RATIO_RUNS, lambda: policy_misses(geoms, "direct")
    )
    assert dm_fast == dm_ref, "direct-mapped replay diverged from stepwise model"
    dm_speedup = t_dm_step / t_dm_replay
    dm_scaled = t_dm_step_scaled / t_dm_replay_scaled

    # --- OPT: one heap simulation per size vs one priority-stack pass
    t_opt_step, t_opt_step_scaled, opt_ref = _clocked_best_of(
        RATIO_RUNS, lambda: [simulate_opt(blocks_list, geom).misses for geom in geoms]
    )
    t_opt_replay, t_opt_replay_scaled, opt_fast = _clocked_best_of(
        RATIO_RUNS, lambda: policy_misses(geoms, "opt")
    )
    assert opt_fast == opt_ref, "OPT replay diverged from stepwise simulate_opt"
    opt_speedup = t_opt_step / t_opt_replay
    opt_scaled = t_opt_step_scaled / t_opt_replay_scaled

    # --- set-associative LRU: ways sweep at fixed set count
    sa_geoms = [
        CacheGeometry(size=SET_ASSOC_SETS * w * B, block=B, ways=w)
        for w in SET_ASSOC_WAYS
    ]
    t_sa_step, t_sa_step_scaled, sa_ref = _clocked_best_of(
        RATIO_RUNS, lambda: _model_sweep_misses(blocks_list, LRUCache, sa_geoms)
    )
    t_sa_replay, t_sa_replay_scaled, sa_fast = _clocked_best_of(
        RATIO_RUNS, lambda: policy_misses(sa_geoms, "lru")
    )
    assert sa_fast == sa_ref, "set-associative replay diverged from stepwise LRU"
    sa_speedup = t_sa_step / t_sa_replay
    sa_scaled = t_sa_step_scaled / t_sa_replay_scaled

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
    t_tl_step, t_tl_step_scaled, tl_ref = _clocked_best_of(
        RATIO_RUNS, lambda: _model_sweep_misses(
            blocks_list, lambda tg: TwoLevelCache(tg.l1, tg.l2), tl_geoms
        )
    )
    t_tl_replay, t_tl_replay_scaled, tl_fast = _clocked_best_of(
        RATIO_RUNS, lambda: policy_misses(tl_geoms, "two_level")
    )
    assert tl_fast == tl_ref, "two-level replay diverged from stepwise TwoLevelCache"
    tl_speedup = t_tl_step / t_tl_replay
    tl_scaled = t_tl_step_scaled / t_tl_replay_scaled

    # --- obs overhead: instrumentation must be ~free.  Enabled-vs-disabled
    # is the stricter proxy for the disabled-cost contract: whatever the
    # full emitters cost, the one-boolean disabled path costs less.  Runs
    # interleave (off, on, off, on, ...) so clock drift cancels; best-of-N
    # on each side rejects scheduler noise.
    from repro import obs

    t_obs_off = t_obs_on = float("inf")
    for _ in range(15):
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

    (looped_compile, looped_compile_scaled, looped_replay, looped_replay_scaled,
     looped_accesses) = _looped_throughput()
    schedule_rate, schedule_scaled = _schedule_throughput()
    lru_replay, lru_replay_scaled = _lru_replay_throughput(trace, geoms)
    sa_replay, sa_replay_scaled = _lru_replay_throughput(trace, sa_geoms)

    summary = {
        "ts": round(time.time(), 1),
        "sweep": round(sweep_speedup, 2),
        "sweep_scaled": round(sweep_scaled, 2),
        "single": round(single_speedup, 2),
        "single_scaled": round(single_scaled, 2),
        "direct": round(dm_speedup, 2),
        "direct_scaled": round(dm_scaled, 2),
        "opt": round(opt_speedup, 2),
        "opt_scaled": round(opt_scaled, 2),
        "set_assoc": round(sa_speedup, 2),
        "set_assoc_scaled": round(sa_scaled, 2),
        "two_level": round(tl_speedup, 2),
        "two_level_scaled": round(tl_scaled, 2),
        "obs_overhead": round(obs_overhead, 3),
        "streaming_overhead": round(streaming_overhead, 3),
        "streaming_rss_ratio": round(streaming_rss_ratio, 3),
        "looped_compile_accesses_per_s": round(looped_compile),
        "looped_compile_scaled_accesses_per_s": round(looped_compile_scaled),
        "looped_replay_accesses_per_s": round(looped_replay),
        "looped_replay_scaled_accesses_per_s": round(looped_replay_scaled),
        "flat_compile_accesses_per_s": round(flat_compile),
        "flat_compile_scaled_accesses_per_s": round(flat_compile_scaled),
        "measure_accesses_per_s": round(measure_rate),
        "measure_scaled_accesses_per_s": round(measure_scaled),
        "measure_stream_accesses_per_s": round(measure_stream_rate),
        "measure_stream_scaled_accesses_per_s": round(measure_stream_scaled),
        "lru_replay_accesses_per_s": round(lru_replay),
        "lru_replay_scaled_accesses_per_s": round(lru_replay_scaled),
        "set_assoc_replay_accesses_per_s": round(sa_replay),
        "set_assoc_replay_scaled_accesses_per_s": round(sa_replay_scaled),
        "schedule_firings_per_s": round(schedule_rate),
        "schedule_scaled_firings_per_s": round(schedule_scaled),
        "warm_speedup": round(warm_speedup, 2),
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
                "stepwise_scaled_s": round(t_sa_step_scaled, 4),
                "replay_scaled_s": round(t_sa_replay_scaled, 4),
                "scaled_speedup": round(sa_scaled, 2),
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
            "compile_scaled_accesses_per_s": round(looped_compile_scaled),
            "replay_accesses_per_s": round(looped_replay),
            "replay_scaled_accesses_per_s": round(looped_replay_scaled),
        },
        "flat": {
            "compile_s": round(t_flat_compile, 4),
            "compile_accesses_per_s": round(flat_compile),
            "compile_scaled_accesses_per_s": round(flat_compile_scaled),
        },
        "measure": {
            "geometry_size": one.size,
            "measure_s": round(t_measure, 4),
            "measure_accesses_per_s": round(measure_rate),
            "measure_scaled_accesses_per_s": round(measure_scaled),
            "stream_accesses": stream_res.accesses,
            "stream_measure_s": round(t_measure_stream, 4),
            "stream_accesses_per_s": round(measure_stream_rate),
            "stream_scaled_accesses_per_s": round(measure_stream_scaled),
        },
        "replay": {
            "lru_accesses_per_s": round(lru_replay),
            "lru_scaled_accesses_per_s": round(lru_replay_scaled),
            "set_assoc_accesses_per_s": round(sa_replay),
            "set_assoc_scaled_accesses_per_s": round(sa_replay_scaled),
        },
        "schedule": {
            "scheduler": "pipeline_dynamic_schedule",
            "firings": trace.firings,
            "firings_per_s": round(schedule_rate),
            "scaled_firings_per_s": round(schedule_scaled),
        },
        "trace_cache": {
            "cold_s": round(t_cold_cache, 4),
            "warm_s": round(t_warm_cache, 4),
            "warm_speedup": round(warm_speedup, 2),
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
            {"path": "flat compile (M accesses/s)",
             "stepwise_s": "",
             "replay_s": round(flat_compile / 1e6, 2),
             "speedup": ""},
            {"path": "single-geometry measure (M accesses/s)",
             "stepwise_s": "",
             "replay_s": round(measure_rate / 1e6, 2),
             "speedup": ""},
            {"path": "stream-heavy measure (M accesses/s)",
             "stepwise_s": "",
             "replay_s": round(measure_stream_rate / 1e6, 2),
             "speedup": ""},
            {"path": "lru / set-assoc replay (M accesses/s)",
             "stepwise_s": round(lru_replay / 1e6, 2),
             "replay_s": round(sa_replay / 1e6, 2),
             "speedup": ""},
            {"path": "dynamic pipeline schedule (M firings/s)",
             "stepwise_s": "",
             "replay_s": round(schedule_rate / 1e6, 2),
             "speedup": ""},
            {"path": "trace cache cold vs warm hit",
             "stepwise_s": round(t_cold_cache, 4),
             "replay_s": round(t_warm_cache, 4),
             "speedup": round(warm_speedup, 1)},
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
    assert warm_speedup >= 5.0, (
        f"warm trace-cache speedup {warm_speedup:.2f}x < 5x floor"
    )
    assert streaming_rss_ratio < 1.0, (
        f"streaming peak RSS {streaming_rss_ratio:.3f}x of monolithic — the "
        "out-of-core path should be the smaller footprint"
    )

    # record only after every gate passed, so a regressed run can never
    # become the trend check's next baseline
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
