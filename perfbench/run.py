#!/usr/bin/env python3
"""Benchmark command for the partition → schedule → compile → replay → search
loop.

Timed run (end-to-end metrics)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Traced run (per-layer metrics, spans written to ``perfbench/out/``)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 1

Steadiness report (N runs per workload, each a fresh process and seed)::

    python3 perfbench/run.py --steadiness 10 [--workload W ...] [--sets 2]

Goldens (stepwise-oracle miss counts per workload and seed)::

    python3 perfbench/run.py --make-goldens 32 [--workload W ...]

The last line of a run is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every job's answer is checked against the
golden of its seed (``goldens.json``), or against the stepwise oracle when
the seed has none; a mismatch fails the run with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

#: environment every run executes under (set before the interpreter starts)
PINNED = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: set-ups per run; ``setup_s`` is their median plus the warm-up job
SETUP_REPS = 5
#: a run times at least this many jobs per phase, however long they take
MIN_JOBS = 3
DEFAULT_SEED = 0


def _pin_environment(argv: List[str]) -> None:
    """Re-execute this script under :data:`PINNED` unless already there
    (``exec`` replaces the process, so no child is left behind)."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    env = {**os.environ, **PINNED}
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and insist that
    ``repro`` comes from there."""
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}")
    origin = Path(repro.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not {ROOT / 'src'}")


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_goldens() -> Dict[str, Any]:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def recorded_golden(
    goldens: Dict[str, Any], wl: Any, seed: int, smoke: bool = False
) -> Optional[Dict[str, Any]]:
    """The golden record of ``seed``, or None when there is none for the
    workload's current parameters."""
    entry = goldens.get(wl.name)
    if not entry or entry.get("params") != wl.params(smoke):
        return None
    seeds = entry.get("seeds", {})
    rec = seeds.get(str(seed), seeds.get("*"))
    return None if rec is None else {"answer": rec, "accesses": entry.get("accesses")}


def tail_percentile(times: List[float]) -> Optional[tuple]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with too few samples."""
    n = len(times)
    if n <= 10:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(times)
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def _time_jobs(clock: Any, run: Any, seconds: float) -> tuple:
    """Run jobs for ``seconds`` (at least :data:`MIN_JOBS`); returns
    ``(scaled times, wall times, jobs, errors)``.  A job that raises
    counts as an error."""
    scaled: List[float] = []
    wall: List[float] = []
    jobs: List[Any] = []
    errors = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(jobs) + errors < MIN_JOBS:
        try:
            job, w, t = clock.time(run)
        except Exception:
            if not errors:
                traceback.print_exc()
            errors += 1
            continue
        scaled.append(t)
        wall.append(w)
        jobs.append(job)
    return scaled, wall, jobs, errors


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    smoke: bool = False,
    goldens: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One benchmark run of workload ``name``; returns the result object.

    ``goldens`` overrides ``goldens.json`` (``{workload: {"params": ...,
    "seeds": {seed: answer}}}``).  Smoke runs use tiny inputs and always
    check against the stepwise oracle unless ``goldens`` names their seed.
    """
    from repro.runtime import backend, trace_cache

    from perfbench import clock as hostclock
    from perfbench import tracing, workloads

    previous = backend.configure(backend="serial", workers=None, chunk_words=None)
    previous_cache = trace_cache.configure(None)
    spill_root = OUT / f"{name}-{os.getpid()}"
    wl = workloads.registry(spill_root)[name]
    spec = load_spec()
    try:
        clock = hostclock.Clock()
        setups = []
        for _ in range(SETUP_REPS):
            ctx, _wall, scaled = clock.time(lambda: wl.setup(seed, smoke))
            setups.append(scaled)
        first, _wall, scaled = clock.time(lambda: wl.job(ctx))
        setup_s = statistics.median(setups) + scaled

        budget = seconds / 2 if trace else seconds
        times, walls, jobs, errors = _time_jobs(clock, lambda: wl.job(ctx), budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        layer: Dict[str, float] = {}
        traced_jobs: List[Any] = []
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                with tracer.span("bench", "setup"):
                    tctx = wl.setup(seed, smoke)

                def traced_job() -> Any:
                    with tracer.span("bench", "job"):
                        return wl.job(tctx)

                traced_times, _walls, traced_jobs, traced_errors = _time_jobs(
                    clock, traced_job, budget
                )
            errors += traced_errors
            layer = tracing.layer_metrics(tracer.spans, [j.counts for j in traced_jobs])
            layer["trace_overhead"] = (
                statistics.median(traced_times) / statistics.median(times)
                if traced_times and times else 0.0
            )
            layer["host.job_wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
            layer["host.speed_factor"] = statistics.median(clock.factors)

        if goldens is None:
            goldens = {} if smoke else load_goldens()
        ref = recorded_golden(goldens, wl, seed, smoke)
        source = "golden"
        if ref is None:
            source = "oracle"
            ref = {"answer": wl.oracle(ctx, first), "accesses": None}
        if ref["accesses"] is None and first.accesses is None:
            ref["accesses"] = tracing.executor_accesses(lambda: wl.oracle(ctx, first))

        checked = [first, *jobs, *traced_jobs]
        wrong = sum(1 for j in checked if j.answer != ref["answer"])
        attempted = len(checked) + errors
        failed = wrong + errors
        if wrong:
            print(
                f"perfbench: {name} seed {seed}: {wrong} of {len(checked)} answers "
                f"differ from the {source}: expected {ref['answer']}, first job "
                f"gave {first.answer}",
                file=sys.stderr,
            )

        nan = float("nan")
        job_s = statistics.median(times) if times else nan
        wall_s = statistics.median(walls) if walls else nan
        accesses = first.accesses if first.accesses is not None else ref["accesses"]
        values: Dict[str, float] = {
            "setup_s": setup_s,
            "job_ms": job_s * 1e3,
            "sim_accesses_per_s": accesses / job_s,
            "peak_rss_mb": peak_rss_mb,
        }
        sections = ["end_to_end"]
        if trace:
            values = {**layer, "check.sim_misses": float(sum(ref["answer"]))}
            sections = ["per_layer"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for section in sections
            for m in spec[section]
        }
        tail = tail_percentile(times)
        print(
            f"perfbench {name} seed={seed}: {len(times)} timed jobs, job_ms median "
            f"{job_s * 1e3:.3f}" + (f", p{tail[0]} {tail[1] * 1e3:.3f}" if tail else "")
            + f" (wall {wall_s * 1e3:.3f}, host speed factor "
            f"{statistics.median(clock.factors):.3f}); setup_s {setup_s:.4f}; "
            f"checked {len(checked)} answers against the {source} (sim_misses "
            f"{sum(ref['answer'])}); failed_frac {failed / attempted:.3f}"
        )
        if trace:
            print(tracing.self_time_table(layer))
            OUT.mkdir(exist_ok=True)
            tracing.dump(OUT / f"trace-{name}-seed{seed}.json", tracer.spans, {"metrics": layer})
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)
        backend.configure(*previous)
        trace_cache.configure(previous_cache)


# ----------------------------------------------------------------------
def make_goldens(names: List[str], n_seeds: int) -> int:
    """Derive the golden answers of seeds ``0..n_seeds-1`` from the
    stepwise oracles and merge them into ``goldens.json``.  The fast path
    must agree with the oracle on every seed, or nothing is written."""
    from perfbench import tracing, workloads

    data = load_goldens()
    spill_root = OUT / f"goldens-{os.getpid()}"
    try:
        for name in names:
            wl = workloads.registry(spill_root)[name]
            entry: Dict[str, Any] = {"params": wl.params(False), "seeds": {}}
            seeds = ["*"] if name == "paper" else [str(s) for s in range(n_seeds)]
            for seed in seeds:
                ctx = wl.setup(0 if seed == "*" else int(seed), False)
                first = wl.job(ctx)
                ref = wl.oracle(ctx, first)
                if first.answer != ref:
                    print(f"{name} seed {seed}: fast {first.answer} != oracle {ref}",
                          file=sys.stderr)
                    return 1
                entry["seeds"][seed] = ref
                if first.accesses is None:
                    entry["accesses"] = tracing.executor_accesses(lambda: wl.oracle(ctx, first))
                print(f"{name} seed {seed}: {sum(ref)} misses", flush=True)
            data[name] = entry
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(names: List[str], n: int, seconds: float, sets: int, first_seed: int) -> int:
    """Run every workload ``n`` times per set (fresh process, seeds
    ``first_seed..``) and report each end-to-end metric's median,
    quartiles, IQR/median and (max-min)/median against its bound.  With
    two sets, also the shift of the second median against the first."""
    spec = load_spec()
    status = 0
    for name in names:
        per_set: List[Dict[str, List[float]]] = []
        for _ in range(sets):
            vals: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(first_seed, first_seed + n):
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, timeout=900, cwd=ROOT,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    print(f"{name} seed {seed}: run failed (exit {proc.returncode})")
                    return 1
                result = json.loads(lines[-1])
                for key in vals:
                    vals[key].append(result["metrics"][key]["value"])
            per_set.append(vals)
        print(f"\n{name}: {n} runs x {sets} set(s), {seconds:g} s each", flush=True)
        print(f"  {'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}"
              f"{'rng/med':>9}{'bound':>7}  flag")
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            medians = []
            for vals in per_set:
                v = vals[key]
                med = statistics.median(v)
                q1, q3 = _quartiles(v)
                iqr, rng = (q3 - q1) / med, (max(v) - min(v)) / med
                medians.append(med)
                flag = "ok"
                if key != "setup_s" and iqr > bound:
                    flag, status = "WIDE", 1
                elif key != "setup_s" and iqr > bound / 3:
                    flag = "wide>bound/3"
                print(f"  {key:<20}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{iqr:>9.4f}"
                      f"{rng:>9.4f}{bound:>7.2f}  {flag}")
                print(f"  {'':<20}runs: {' '.join(f'{x:.4g}' for x in v)}")
            if len(medians) > 1:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= bound else "SHIFT"
                status |= flag != "ok"
                print(f"  {key:<20} second set vs first: {worse:+.4f} (worse-direction)  {flag}")
        sys.stdout.flush()
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, oracle-checked")
    parser.add_argument("--steadiness", type=int, metavar="N", help="runs per workload")
    parser.add_argument("--sets", type=int, default=1, help="steadiness sets to compare")
    parser.add_argument("--make-goldens", type=int, metavar="SEEDS")
    args = parser.parse_args(argv)
    _pin_environment(argv)
    _import_repro()
    names = [w["name"] for w in load_spec()["workloads"]]
    chosen = args.workload or names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    if args.make_goldens:
        return make_goldens(chosen, args.make_goldens)
    if args.steadiness:
        return steadiness(chosen, args.steadiness, args.seconds, args.sets, args.seed)
    if len(chosen) != 1:
        parser.error("a run takes exactly one --workload")
    result = run_workload(chosen[0], args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
