"""Placement-subsystem benchmark: the block-remap cost model vs the
recompile-per-candidate path it avoids, plus the optimizer's actual wins.

Measurements, all asserted and recorded in ``BENCH_placement.json`` at the
repo root (with a rolling ``history`` so ``benchmarks/check_bench_trends.py``
can fail on regressions):

* **score** — scoring K candidate placements through
  :func:`repro.mem.placement.placement_cost` (one gather over the trace
  compiled once under the seed layout, then the direct-mapped replay
  kernel) vs compiling a fresh trace per candidate and replaying it.  The
  remap path must agree miss-for-miss and be >= 3x faster — it is the inner
  loop of the swap local search, so its speed bounds how far the search can
  look.
* **swap_gain** — seed direct-mapped misses / swap-refined misses on the A7
  DES workload.  The optimizer must strictly improve the seed (gain > 1);
  the trend gate catches a search regression that silently stops finding
  layouts.
* **color_gain** — same for the greedy set-coloring strategy alone
  (sanity-bounded only: >= 1.0 by the never-worse contract).
* **multi_gain** — weighted seed miss sum / multi-geometry-optimized sum
  over the A9 target set {direct, 2-way, 4-way}, with the hard A9 gate
  asserted alongside: the optimized layout is never worse than the seed at
  *any* individual target (the deployability contract).
* **facility_gain** — swap-refined misses / best facility-location search
  (:mod:`repro.mem.facility` multiswap or smoothed) on the fm_radio
  workload at the *same* eval budget, past FLIP's convergence point so the
  comparison measures search power, not budget.  Gated > 1.0: the
  k-object/smoothed searches must strictly beat FLIP at equal
  ``RefineStats.evals`` budget (the A12 claim, kept honest here).
* **minimax_worst** — the minimax strategy's worst per-target miss ratio
  vs the seed on the A9 target set (lower is better; the ceiling in
  ``check_bench_trends.py`` holds it <= 1.0, and the bench asserts it
  strictly beats the weighted-sum optimizer's worst ratio).
* **evals_per_s** — absolute candidate evals per second of a
  fixed-budget multiswap search on DES over the A9 target set, serial
  backend, batches of ``EVALS_BATCH``.  The trend gate holds it within
  30% of the previous run.  The same search on ``backend="process",
  workers=2`` is recorded beside it as ``process_evals_per_s``, ungated:
  it is the data for judging whether the scorer's process pool still
  pays against serial delta scoring.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.sweeps import des_partitioned_workload, fm_partitioned_workload
from repro.mem.facility import multiswap_refine, smoothed_search
from repro.mem.placement import (
    build_instance,
    conflict_graph,
    greedy_color_order,
    optimize_instance,
    placement_cost,
    swap_refine,
)
from repro.runtime.compiled import compile_trace, simulate_trace

B = 8
M = 256
N_CANDIDATES = 8
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_placement.json"
HISTORY_CAP = 50
FACILITY_BUDGET = 8000
EVALS_BUDGET = 200
EVALS_BATCH = 4


def _workload(inputs=256):
    g, sched, _part, run_geom = des_partitioned_workload(M=M, B=B, inputs=inputs)
    return g, sched, run_geom


def test_placement_cost_model_speedup(show):
    g, sched, run_geom = _workload()
    instance = build_instance(g, sched, B)

    rng = np.random.default_rng(17)
    candidates = []
    for _ in range(N_CANDIDATES):
        order = list(instance.objects)
        rng.shuffle(order)
        candidates.append(order)

    # --- recompile-per-candidate: what the cost model replaces
    t0 = time.perf_counter()
    ref = []
    for order in candidates:
        trace = compile_trace(g, sched, B, placement=order)
        ref.append(simulate_trace(trace, [run_geom], policy="direct")[0].misses)
    t_recompile = time.perf_counter() - t0

    # --- block-remap cost model over the one seed trace
    t0 = time.perf_counter()
    fast = [
        placement_cost(instance, order, run_geom, policy="direct")
        for order in candidates
    ]
    t_remap = time.perf_counter() - t0

    assert fast == ref, "remap cost model diverged from recompiled traces"
    score_speedup = t_recompile / t_remap

    # --- optimizer gains on the same workload
    t0 = time.perf_counter()
    swap = optimize_instance(instance, run_geom, strategy="swap", policy="direct", budget=300)
    t_swap = time.perf_counter() - t0
    color = optimize_instance(instance, run_geom, strategy="color", policy="direct")
    swap_gain = swap.seed_cost / swap.cost if swap.cost else float("inf")
    color_gain = color.seed_cost / color.cost if color.cost else float("inf")

    # fully-associative invariance on the optimized layout (oracle property)
    fa_seed = placement_cost(instance, list(instance.objects), run_geom, policy="lru")
    fa_swap = placement_cost(instance, swap.order, run_geom, policy="lru")
    assert fa_seed == fa_swap, "placement changed fully-associative misses"

    # --- A9 metrics: multi-geometry objective
    direct = run_geom.with_ways(1)
    targets = [
        (direct, "direct", 1.0),
        (run_geom.with_ways(2), "lru", 1.0),
        (run_geom.with_ways(4), "lru", 1.0),
    ]
    t0 = time.perf_counter()
    multi = optimize_instance(
        instance, strategy="swap", targets=targets, budget=300, gap_budget=8
    )
    t_multi = time.perf_counter() - t0
    # the deployability contract A9 gates on: never worse at ANY target
    for got, seed_m in zip(multi.per_target, multi.seed_per_target):
        assert got <= seed_m, (
            f"multi-target layout regressed a target: {multi.per_target} vs "
            f"seed {multi.seed_per_target}"
        )
    multi_gain = multi.seed_cost / multi.cost if multi.cost else float("inf")

    # --- A12 metrics: facility-location search vs FLIP at equal budget.
    # Budget sits past swap's convergence on both workloads (it exhausts its
    # move set around 4.4k/6.1k evals), so extra budget only helps searches
    # with richer moves — the comparison isolates search power.
    facility_rows = []
    facility_gain = float("inf")
    for name, (g_f, sched_f, _p, geom_f) in (
        ("des", des_partitioned_workload(M=M, B=B, inputs=256)),
        ("fm_radio", fm_partitioned_workload(M=M, B=B, inputs=512)),
    ):
        direct_f = geom_f.with_ways(1)
        inst_f = build_instance(g_f, sched_f, B)
        w_f = conflict_graph(inst_f)
        start_f = greedy_color_order(
            inst_f, direct_f, policy="direct", weights=w_f
        )
        t0 = time.perf_counter()
        _, _, swap_cost, swap_stats = swap_refine(
            inst_f, start_f, direct_f, policy="direct",
            budget=FACILITY_BUDGET, weights=w_f,
        )
        _, _, ms_cost, ms_stats = multiswap_refine(
            inst_f, start_f, direct_f, policy="direct",
            budget=FACILITY_BUDGET, weights=w_f,
        )
        _, _, sm_cost, sm_stats = smoothed_search(
            inst_f, direct_f, policy="direct", budget=FACILITY_BUDGET,
            restarts=2, noise=0.5, seed=0,
        )
        t_fac = time.perf_counter() - t0
        for st in (swap_stats, ms_stats, sm_stats):
            assert st.evals <= FACILITY_BUDGET, "search overspent its budget"
        best_cost = min(ms_cost, sm_cost)
        gain = swap_cost / best_cost if best_cost else float("inf")
        facility_gain = min(facility_gain, gain)
        facility_rows.append(
            {
                "workload": name,
                "swap_misses": swap_cost,
                "swap_evals": swap_stats.evals,
                "multiswap_misses": ms_cost,
                "multiswap_evals": ms_stats.evals,
                "smoothed_misses": sm_cost,
                "smoothed_evals": sm_stats.evals,
                "facility_gain": round(gain, 4),
                "search_s": round(t_fac, 4),
            }
        )

    # --- A12 minimax: worst per-target ratio vs seed on the A9 target set
    t0 = time.perf_counter()
    mmx = optimize_instance(
        instance, strategy="minimax", targets=targets, budget=300
    )
    t_mmx = time.perf_counter() - t0
    minimax_worst = max(
        (m / s if s else (0.0 if m == 0 else float("inf")))
        for m, s in zip(mmx.per_target, mmx.seed_per_target)
    )

    # --- candidate throughput: one fixed-budget multiswap search per backend
    evals_start = greedy_color_order(instance, direct, policy="direct")
    throughput = {}
    for backend, workers in (("serial", None), ("process", 2)):
        t0 = time.perf_counter()
        _, _, _, ev_stats = multiswap_refine(
            instance, evals_start, targets=targets, budget=EVALS_BUDGET,
            batch=EVALS_BATCH, backend=backend, workers=workers,
        )
        elapsed = time.perf_counter() - t0
        assert ev_stats.evals == EVALS_BUDGET, "search stopped short of its budget"
        throughput[backend] = ev_stats.evals / elapsed
    evals_per_s = throughput["serial"]
    process_evals_per_s = throughput["process"]

    summary = {
        "ts": round(time.time(), 1),
        "score": round(score_speedup, 2),
        "swap_gain": round(swap_gain, 2),
        "color_gain": round(color_gain, 2),
        "multi_gain": round(multi_gain, 2),
        "facility_gain": round(facility_gain, 4),
        "minimax_worst": round(minimax_worst, 4),
        "evals_per_s": round(evals_per_s, 2),
        "process_evals_per_s": round(process_evals_per_s, 2),
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
            "graph": "des_rounds(rounds=8, sbox_state=48)",
            "schedule": sched.label,
            "trace_accesses": instance.trace.accesses,
            "objects": instance.n_objects,
            "frames": run_geom.n_blocks,
            "candidates": N_CANDIDATES,
            "block": B,
        },
        "score": {
            "recompile_s": round(t_recompile, 4),
            "remap_s": round(t_remap, 4),
            "speedup": round(score_speedup, 2),
        },
        "gains": {
            "seed_direct_misses": swap.seed_cost,
            "swap_misses": swap.cost,
            "swap_gain": round(swap_gain, 2),
            "swap_search_s": round(t_swap, 4),
            "color_misses": color.cost,
            "color_gain": round(color_gain, 2),
        },
        "multi": {
            "targets": [
                f"{pol}@{tg.size}w" for tg, pol, _w in multi.targets
            ],
            "seed_per_target": list(multi.seed_per_target),
            "per_target": list(multi.per_target),
            "gap_blocks": multi.gap_blocks,
            "multi_gain": round(multi_gain, 2),
            "search_s": round(t_multi, 4),
        },
        "facility": {
            "budget": FACILITY_BUDGET,
            "workloads": facility_rows,
            "facility_gain": round(facility_gain, 4),
        },
        "minimax": {
            "targets": [f"{pol}@{tg.size}w" for tg, pol, _w in mmx.targets],
            "seed_per_target": list(mmx.seed_per_target),
            "per_target": list(mmx.per_target),
            "minimax_worst": round(minimax_worst, 4),
            "search_s": round(t_mmx, 4),
        },
        "evals": {
            "search": "multiswap over the A9 targets",
            "budget": EVALS_BUDGET,
            "batch": EVALS_BATCH,
            "evals_per_s": round(evals_per_s, 2),
            "process_workers": 2,
            "process_evals_per_s": round(process_evals_per_s, 2),
        },
        "history": history,
    }

    show(
        [
            {"path": f"score {N_CANDIDATES} candidates", "baseline_s": round(t_recompile, 3),
             "optimized_s": round(t_remap, 3), "ratio": round(score_speedup, 1)},
            {"path": "swap vs seed (misses)", "baseline_s": swap.seed_cost,
             "optimized_s": swap.cost, "ratio": round(swap_gain, 1)},
            {"path": "color vs seed (misses)", "baseline_s": color.seed_cost,
             "optimized_s": color.cost, "ratio": round(color_gain, 1)},
            {"path": "multi vs seed (weighted)", "baseline_s": round(multi.seed_cost, 1),
             "optimized_s": round(multi.cost, 1), "ratio": round(multi_gain, 1)},
            *(
                {"path": f"facility vs swap ({row['workload']})",
                 "baseline_s": row["swap_misses"],
                 "optimized_s": min(row["multiswap_misses"], row["smoothed_misses"]),
                 "ratio": row["facility_gain"]}
                for row in facility_rows
            ),
            {"path": "minimax worst target ratio", "baseline_s": 1.0,
             "optimized_s": round(minimax_worst, 4),
             "ratio": round(minimax_worst, 4)},
            {"path": "evals/s serial (process x2 beside)",
             "baseline_s": round(process_evals_per_s, 1),
             "optimized_s": round(evals_per_s, 1),
             "ratio": round(evals_per_s / process_evals_per_s, 2)},
        ],
        "placement: remap cost model and optimizer gains",
    )
    assert score_speedup >= 10.0, (
        f"cost model speedup {score_speedup:.1f}x < 10x target"
    )
    assert swap_gain > 1.0, "swap refinement must strictly beat the seed layout"
    assert color_gain >= 1.0, "strategies are never worse than the seed"
    assert multi_gain >= 1.0, "multi-target layout is never worse than the seed"
    assert facility_gain > 1.0, (
        f"facility search must beat swap at equal budget on every workload: "
        f"{facility_rows}"
    )
    assert minimax_worst <= 1.0, (
        f"minimax worst per-target ratio {minimax_worst:.4f} regressed the seed"
    )

    # record only after every gate passed, so a regressed run can never
    # become the trend check's next baseline
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
