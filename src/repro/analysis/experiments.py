"""Experiment drivers E1–E11 and ablations A1–A5.

The paper has no empirical tables or figures (it is a theory paper), so the
reproduction treats each theorem/corollary as an experiment; each driver's
section header names the claim it measures.  Every driver here returns a
list of uniform dict rows: ``python -m repro experiment ID`` prints them as
a table (:func:`repro.analysis.report.rows_to_table`), and
``tests/test_experiments.py`` checks each driver's rows for the shape the
paper predicts.

All drivers are deterministic (fixed seeds) and sized to run in seconds, so
the tier-1 tests run every one while still exhibiting the asymptotic shapes.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.analysis.model import predict_partition_cost
from repro.cache.base import CacheGeometry
from repro.core.baselines import (
    interleaved_schedule,
    kohli_greedy_schedule,
    sermulins_scaled_schedule,
    single_appearance_schedule,
)
from repro.core.dagpart import (
    exact_min_bandwidth_partition,
    greedy_topological_partition,
    interval_dp_partition,
    refine_partition,
)
from repro.core.lower_bound import dag_lower_bound, pipeline_lower_bound
from repro.core.partition import Partition
from repro.core.partition_sched import (
    component_layout_order,
    homogeneous_partition_schedule,
    inhomogeneous_partition_schedule,
    pipeline_dynamic_schedule,
)
from repro.core.pipeline import (
    gain_min_edge,
    greedy_state_blocks,
    optimal_pipeline_partition,
    pipeline_chain,
    theorem5_partition,
)
from repro.core.tuning import augmented_geometry, choose_batch, required_geometry
from repro.graphs.apps import beamformer, bitonic_sort, des_rounds, filter_bank, fm_radio, mp3_subband
from repro.graphs.repetition import compute_gains, repetition_vector
from repro.graphs.topologies import (
    butterfly,
    diamond,
    layered_random_dag,
    pipeline,
    random_pipeline,
    rate_matched_random_dag,
    split_join_tree,
)
from repro.runtime.compiled import compile_trace, measure_compiled, simulate_trace
from repro.runtime.schedule import validate_schedule

__all__ = [
    "experiment_e1_pipeline_optimality",
    "experiment_e2_miss_model",
    "experiment_e3_lower_bound",
    "experiment_e4_partition_quality",
    "experiment_e5_dag_optimality",
    "experiment_e6_inhomogeneous",
    "experiment_e7_vs_baselines",
    "experiment_e8_augmentation",
    "experiment_e9_block_size",
    "experiment_e10_crossover",
    "ablation_a1_cut_choice",
    "ablation_a2_cross_buffer_size",
    "ablation_a3_lru_vs_opt",
    "ablation_a4_degree_limits",
    "experiment_e11_parallel_scaling",
    "ablation_a5_multilevel",
]

#: Default block size for experiments (words per block).
DEFAULT_B = 8

MIXED_RATES = ((1, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3))


# ----------------------------------------------------------------------
# E1: pipelines are O(1)-competitive with O(1) augmentation (Thm 5 / Cor 6)
# ----------------------------------------------------------------------
def experiment_e1_pipeline_optimality(
    n_outputs: int = 1500, seed: int = 7
) -> List[Dict[str, Any]]:
    """Measured misses of the dynamic partitioned pipeline schedule vs the
    Theorem 3 lower bound.  The paper predicts a bounded ratio independent
    of pipeline length and cache size; the rows let one check exactly that.
    """
    rows: List[Dict[str, Any]] = []
    configs = [
        ("homog-n12", pipeline([16] * 12), 64, n_outputs),
        ("homog-n24", pipeline([24] * 24), 96, n_outputs),
        ("mixed-n16", random_pipeline(16, 40, seed=seed, rate_choices=MIXED_RATES), 128, n_outputs),
        ("mixed-n32", random_pipeline(32, 40, seed=seed + 1, rate_choices=MIXED_RATES), 128, n_outputs),
        (
            "heavy-n20",
            random_pipeline(20, 100, seed=seed + 2, rate_choices=((1, 1), (2, 1), (1, 2))),
            160,
            max(200, n_outputs // 8),
        ),
    ]
    for name, g, M, outs in configs:
        geom = CacheGeometry(size=M, block=DEFAULT_B)
        # c=3 matches the lower bound's 2M segment granularity more closely
        # than c=1 (fewer forced cuts); execution gets the matching 4x cache.
        part = optimal_pipeline_partition(g, M, c=3.0)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=outs)
        run_geom = required_geometry(part, geom)
        res = measure_compiled(
            g, run_geom, sched, layout_order=component_layout_order(part)
        )
        lb = pipeline_lower_bound(g, M)
        lb_misses = float(lb.misses(res.source_fires, geom))
        rows.append(
            {
                "pipeline": name,
                "n": g.n_modules,
                "M": M,
                "bandwidth": float(part.bandwidth()),
                "lb_bandwidth": float(lb.bandwidth),
                "measured_misses": res.misses,
                "lb_misses": lb_misses,
                "ratio_to_lb": res.misses / lb_misses if lb_misses else float("inf"),
                "misses_per_input": res.misses_per_source_fire,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E2: the analytic Lemma 4 model tracks simulation
# ----------------------------------------------------------------------
def experiment_e2_miss_model(seed: int = 11) -> List[Dict[str, Any]]:
    """Predicted (Lemma 4 algebra) vs simulated misses for batch-partitioned
    pipelines across batch counts.  The prediction should track simulation
    within a small constant factor (circular-buffer reuse makes simulation a
    bit cheaper than the write-once/read-once accounting).

    Each batch count is a different schedule (hence a different trace), so
    the sweep compiles one trace per row and evaluates it with the
    vectorized kernel instead of stepwise simulation."""
    rows: List[Dict[str, Any]] = []
    g = random_pipeline(18, 48, seed=seed, rate_choices=((1, 1), (2, 1), (1, 2)))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    part = optimal_pipeline_partition(g, M, c=1.0)
    plan = choose_batch(g, M, cross_cids=[ch.cid for ch in part.cross_channels()])
    for n_batches in (1, 2, 4, 8, 16):
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
        res = measure_compiled(
            g,
            required_geometry(part, geom),
            sched,
            layout_order=component_layout_order(part),
        )
        pred = predict_partition_cost(
            part, geom, source_fires=res.source_fires, batch_source_fires=plan.source_fires
        )
        rows.append(
            {
                "n_batches": n_batches,
                "inputs": res.source_fires,
                "measured": res.misses,
                "predicted": round(pred.total, 1),
                "ratio": res.misses / pred.total if pred.total else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E3: no schedule beats the lower bound (Thm 3)
# ----------------------------------------------------------------------
def experiment_e3_lower_bound(n_outputs: int = 1200, seed: int = 3) -> List[Dict[str, Any]]:
    """Run every scheduler (partitioned and all baselines) on the same
    pipeline and compare with the Theorem 3 lower bound: every row's
    ``measured >= lb`` must hold, and the partitioned row should be the
    closest to it."""
    g = random_pipeline(20, 64, seed=seed, rate_choices=((1, 1), (1, 1), (2, 1), (1, 2)))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    lb = pipeline_lower_bound(g, M)
    part = optimal_pipeline_partition(g, M, c=1.0)
    aug = required_geometry(part, geom)
    reps = repetition_vector(g)
    sink = g.pipeline_order()[-1]
    iters = max(1, n_outputs // reps[sink])

    schedules = [
        (
            pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs),
            component_layout_order(part),
        ),
        (single_appearance_schedule(g, n_iterations=iters), None),
        (interleaved_schedule(g, n_iterations=iters), None),
        (sermulins_scaled_schedule(g, geom, n_macro_iterations=iters), None),
        (kohli_greedy_schedule(g, geom, target_outputs=n_outputs), None),
    ]
    rows: List[Dict[str, Any]] = []
    for sched, order in schedules:
        res = measure_compiled(g, aug, sched, layout_order=order)
        lbm = float(lb.misses(res.source_fires, geom))
        rows.append(
            {
                "schedule": sched.label,
                "inputs": res.source_fires,
                "measured": res.misses,
                "lb": round(lbm, 1),
                "measured_over_lb": res.misses / lbm if lbm else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E4: DP-optimal vs Theorem-5 greedy partitions; both polynomial
# ----------------------------------------------------------------------
def experiment_e4_partition_quality(seed: int = 5) -> List[Dict[str, Any]]:
    """Bandwidth of the optimal DP partition vs the Theorem 5 construction
    across pipeline sizes, with wall-clock timings demonstrating polynomial
    scaling.  The paper: the optimal partition is never worse, but also not
    asymptotically better."""
    rows: List[Dict[str, Any]] = []
    M = 128
    for n in (16, 32, 64, 128, 256):
        g = random_pipeline(n, 48, seed=seed + n, rate_choices=MIXED_RATES)
        t0 = time.perf_counter()
        p_greedy = theorem5_partition(g, M)
        t_greedy = time.perf_counter() - t0
        t0 = time.perf_counter()
        # The Theorem 5 construction is 8M-bounded, so the apples-to-apples
        # optimum is the c=8 DP; the c=3 column shows the bandwidth price of
        # a tighter state bound.
        p_dp8 = optimal_pipeline_partition(g, M, c=8.0)
        t_dp = time.perf_counter() - t0
        p_dp3 = optimal_pipeline_partition(g, M, c=3.0)
        rows.append(
            {
                "n": n,
                "greedy_bw": float(p_greedy.bandwidth()),
                "dp8_bw": float(p_dp8.bandwidth()),
                "dp3_bw": float(p_dp3.bandwidth()),
                "greedy_over_dp8": (
                    float(p_greedy.bandwidth() / p_dp8.bandwidth())
                    if p_dp8.bandwidth()
                    else float("inf")
                ),
                "greedy_ms": round(t_greedy * 1e3, 2),
                "dp_ms": round(t_dp * 1e3, 2),
                "greedy_max_state": p_greedy.max_component_state(),
                "dp8_max_state": p_dp8.max_component_state(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E5: homogeneous dags — partition schedule vs exact minBW (Thm 7 / Lem 8)
# ----------------------------------------------------------------------
def experiment_e5_dag_optimality(seed: int = 13) -> List[Dict[str, Any]]:
    """Homogeneous dags small enough for the exact minBW_3 search: compare
    the partition schedule's measured misses with the Theorem 7 lower bound
    and record how close the heuristic partition's bandwidth is to optimal
    (Corollary 9's alpha)."""
    rows: List[Dict[str, Any]] = []
    configs = [
        ("diamond2x4", diamond(branch_len=4, ways=2, state=24), 48),
        ("diamond3x3", diamond(branch_len=3, ways=3, state=24), 48),
        ("tree-d1", split_join_tree(1, state=30), 40),
        ("butterfly2", butterfly(2, state=20), 40),
    ]
    for name, g, M in configs:
        geom = CacheGeometry(size=M, block=DEFAULT_B)
        exact = exact_min_bandwidth_partition(g, M, c=3.0, max_modules=16)
        heur = refine_partition(interval_dp_partition(g, M, c=3.0), M, c=3.0)
        sched = homogeneous_partition_schedule(g, heur, geom, n_batches=4)
        res = measure_compiled(
            g,
            required_geometry(heur, geom),
            sched,
            layout_order=component_layout_order(heur),
        )
        lb = dag_lower_bound(g, M, c=3.0, exact_limit=16)
        lbm = float(lb.misses(res.source_fires, geom))
        rows.append(
            {
                "dag": name,
                "n": g.n_modules,
                "minBW3": float(exact.bandwidth()),
                "heur_bw": float(heur.bandwidth()),
                "alpha": (
                    float(heur.bandwidth() / exact.bandwidth())
                    if exact.bandwidth()
                    else 1.0
                ),
                "measured": res.misses,
                "lb": round(lbm, 1),
                "ratio_to_lb": res.misses / lbm if lbm else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E6: inhomogeneous dag scheduling at T granularity
# ----------------------------------------------------------------------
def experiment_e6_inhomogeneous(seed: int = 17) -> List[Dict[str, Any]]:
    """Inhomogeneous (rate-changing) dags: the T-granularity scheduler is
    feasible (validated), its batch plan satisfies the Section 3 conditions,
    and it beats the single-appearance baseline on misses per input."""
    rows: List[Dict[str, Any]] = []
    configs = [
        ("filter-bank4", filter_bank(branches=4, taps=16), 128),
        ("mp3-4band", mp3_subband(subbands=4, taps=24), 128),
        ("rate-dag", rate_matched_random_dag(5, 3, 48, seed=seed, rate_choices=(1, 2)), 96),
    ]
    for name, g, M in configs:
        geom = CacheGeometry(size=M, block=DEFAULT_B)
        part = interval_dp_partition(g, M, c=2.0)
        plan = choose_batch(g, M, cross_cids=[ch.cid for ch in part.cross_channels()])
        n_batches = max(2, -(-512 // max(plan.source_fires, 1)))  # >= ~512 inputs
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
        validate_schedule(g, sched, require_drained=True)
        aug = required_geometry(part, geom)
        res = measure_compiled(g, aug, sched, layout_order=component_layout_order(part))
        reps = repetition_vector(g)
        src = g.sources()[0]
        base_iters = max(1, res.source_fires // reps[src])
        base = measure_compiled(g, aug, single_appearance_schedule(g, n_iterations=base_iters))
        rows.append(
            {
                "graph": name,
                "n": g.n_modules,
                "k_components": part.k,
                "partitioned_mpi": res.misses_per_source_fire,
                "single_app_mpi": base.misses_per_source_fire,
                "improvement": base.misses_per_source_fire / res.misses_per_source_fire
                if res.misses_per_source_fire
                else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E7: application graphs — partitioned vs every baseline
# ----------------------------------------------------------------------
def experiment_e7_vs_baselines(M: int = 256) -> List[Dict[str, Any]]:
    """The headline comparison on StreamIt-motivated applications.  Shape to
    check (paper Section 6 cites a >4x cache-miss reduction on a real app;
    our DAM simulation shows the same order): partitioned wins by a growing
    factor as total state / M grows."""
    rows: List[Dict[str, Any]] = []
    apps = [
        ("fm_radio", fm_radio(taps=48, bands=6)),
        ("filter_bank", filter_bank(branches=4, taps=24)),
        ("beamformer", beamformer(channels=6, beams=3, taps=32)),
        ("des_rounds", des_rounds(rounds=8, sbox_state=48)),
        ("mp3_subband", mp3_subband(subbands=4, taps=32)),
        ("bitonic", bitonic_sort(keys_log2=2, state=12)),
    ]
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    for name, g in apps:
        part = refine_partition(interval_dp_partition(g, M, c=2.0), M, c=2.0)
        plan = choose_batch(g, M, cross_cids=[ch.cid for ch in part.cross_channels()])
        n_batches = max(2, -(-1024 // max(plan.source_fires, 1)))
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
        aug = required_geometry(part, geom)
        res = measure_compiled(g, aug, sched, layout_order=component_layout_order(part))
        reps = repetition_vector(g)
        src = g.sources()[0]
        iters = max(1, res.source_fires // reps[src])
        sas = measure_compiled(g, aug, single_appearance_schedule(g, n_iterations=iters))
        ser = measure_compiled(g, aug, sermulins_scaled_schedule(g, geom, n_macro_iterations=iters))
        inter = measure_compiled(g, aug, interleaved_schedule(g, n_iterations=min(iters, 64)))
        rows.append(
            {
                "app": name,
                "n": g.n_modules,
                "state": g.total_state(),
                "state_over_M": round(g.total_state() / M, 2),
                "partitioned": round(res.misses_per_source_fire, 3),
                "single_app": round(sas.misses_per_source_fire, 3),
                "sermulins": round(ser.misses_per_source_fire, 3),
                "interleaved": round(inter.misses_per_source_fire, 3),
                "win_vs_single_app": round(
                    sas.misses_per_source_fire / res.misses_per_source_fire, 2
                )
                if res.misses_per_source_fire
                else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E8: cache-augmentation sweep (Cor 6 / Cor 9)
# ----------------------------------------------------------------------
def experiment_e8_augmentation(seed: int = 23, n_outputs: int = 1200) -> List[Dict[str, Any]]:
    """Build the partition for cache M, then execute on caches of size
    c' * M for c' in {1, 1.5, 2, 3, 4, 6}: misses should fall steeply until
    the components (plus working buffers) fit, then plateau — the
    constant-factor augmentation of Corollary 6 made visible.

    The schedule and layout are fixed across the sweep, so its block trace
    is compiled once and every augmented geometry is answered from the same
    stack-distance pass — the canonical single-pass geometry sweep.  The
    OPT columns replay the same trace under Belady's policy (one truncated
    priority-stack pass answers the whole augmentation sweep), showing how
    much of the augmentation need is LRU's, not the schedule's: the paper's
    bounds allow an omniscient policy, and LRU-at-c'M vs OPT-at-M is exactly
    the Sleator-Tarjan trade the ideal-cache assumption leans on."""
    g = random_pipeline(18, 56, seed=seed, rate_choices=((1, 1), (2, 1), (1, 2)))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    part = optimal_pipeline_partition(g, M, c=1.0)
    sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
    order = component_layout_order(part)
    factors = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
    trace = compile_trace(g, sched, DEFAULT_B, layout_order=order)
    geoms = [augmented_geometry(geom, factor) for factor in factors]
    lru_rows = simulate_trace(trace, geoms)
    opt_rows = simulate_trace(trace, geoms, policy="opt")
    rows: List[Dict[str, Any]] = []
    for factor, g_aug, res, opt in zip(factors, geoms, lru_rows, opt_rows):
        rows.append(
            {
                "augmentation": factor,
                "cache_words": g_aug.size,
                "misses": res.misses,
                "misses_per_input": res.misses_per_source_fire,
                "opt_misses": opt.misses,
                "lru_over_opt": round(res.misses / opt.misses, 3)
                if opt.misses
                else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E9: block-size sweep — every bound carries a 1/B factor
# ----------------------------------------------------------------------
def experiment_e9_block_size(seed: int = 29, n_outputs: int = 1200) -> List[Dict[str, Any]]:
    """Fix the graph, partition and schedule; sweep B.  Misses per input of
    the partitioned schedule should scale close to 1/B (until state loads,
    which also scale 1/B, leave only constant overheads).

    Block size changes the memory layout, so each B needs its own compiled
    trace; each row is still evaluated by the vectorized kernel rather than
    stepwise simulation."""
    g = random_pipeline(16, 48, seed=seed, rate_choices=((1, 1),))
    M = 128
    rows: List[Dict[str, Any]] = []
    base_mpi: Optional[float] = None
    for B in (1, 2, 4, 8, 16, 32):
        geom = CacheGeometry(size=M, block=B)
        part = optimal_pipeline_partition(g, M, c=1.0)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
        res = measure_compiled(
            g, required_geometry(part, geom), sched, layout_order=component_layout_order(part)
        )
        mpi = res.misses_per_source_fire
        if base_mpi is None:
            base_mpi = mpi
        rows.append(
            {
                "B": B,
                "misses": res.misses,
                "misses_per_input": mpi,
                "speedup_vs_B1": base_mpi / mpi if mpi else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E10: crossover — partitioning matters once state outgrows M
# ----------------------------------------------------------------------
def experiment_e10_crossover(n_outputs: int = 800) -> List[Dict[str, Any]]:
    """Sweep total state relative to M on a homogeneous pipeline.  When the
    whole graph fits in cache, all schedules are equally cheap; the
    partitioned schedule's advantage appears at state ~ M and grows
    linearly — the crossover the partitioning theory predicts."""
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    rows: List[Dict[str, Any]] = []
    for n_modules, per_state in ((6, 8), (6, 16), (8, 24), (12, 32), (16, 48), (24, 64)):
        g = pipeline([per_state] * n_modules)
        part = optimal_pipeline_partition(g, M, c=1.0)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
        aug = required_geometry(part, geom)
        res = measure_compiled(g, aug, sched, layout_order=component_layout_order(part))
        base = measure_compiled(g, aug, interleaved_schedule(g, n_iterations=n_outputs))
        rows.append(
            {
                "total_state": g.total_state(),
                "state_over_M": round(g.total_state() / M, 2),
                "partitioned_mpi": round(res.misses_per_source_fire, 3),
                "interleaved_mpi": round(base.misses_per_source_fire, 3),
                "advantage": round(
                    base.misses_per_source_fire / res.misses_per_source_fire, 2
                )
                if res.misses_per_source_fire
                else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def ablation_a1_cut_choice(seed: int = 31, n_outputs: int = 1000) -> List[Dict[str, Any]]:
    """Theorem 5 cuts each state block at its gain-MINIMIZING edge.  Cut at
    the gain-MAXIMIZING edge instead and both the partition bandwidth and
    the measured misses should degrade — the ablation isolating the one
    non-obvious choice in the construction."""
    g = random_pipeline(24, 48, seed=seed, rate_choices=((1, 1), (4, 1), (1, 4), (2, 1), (1, 2)))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    gains = compute_gains(g)
    order, chans = pipeline_chain(g)
    blocks = greedy_state_blocks(g, M)

    def build(cut_at_max: bool) -> Partition:
        cuts = []
        for lo, hi in blocks:
            if g.total_state(order[lo:hi]) <= 2 * M or hi - lo < 2:
                continue
            if cut_at_max:
                best_i, best_g = lo, gains.edge_gain(chans[lo].cid)
                for i in range(lo + 1, hi - 1):
                    gg = gains.edge_gain(chans[i].cid)
                    if gg > best_g:
                        best_i, best_g = i, gg
                cuts.append(best_i)
            else:
                i, _ = gain_min_edge(chans, gains, lo, hi - 1)
                cuts.append(i)
        comps, start = [], 0
        for cut in sorted(set(cuts)):
            comps.append(list(order[start : cut + 1]))
            start = cut + 1
        comps.append(list(order[start:]))
        return Partition(g, comps, gains=gains, label="cut-max" if cut_at_max else "cut-min")

    rows: List[Dict[str, Any]] = []
    for cut_at_max in (False, True):
        part = build(cut_at_max)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
        res = measure_compiled(
            g, required_geometry(part, geom), sched, layout_order=component_layout_order(part)
        )
        rows.append(
            {
                "cut_rule": "gain-max (ablated)" if cut_at_max else "gain-min (paper)",
                "bandwidth": float(part.bandwidth()),
                "misses": res.misses,
                "misses_per_input": round(res.misses_per_source_fire, 3),
            }
        )
    return rows


def ablation_a2_cross_buffer_size(seed: int = 37, n_outputs: int = 1000) -> List[Dict[str, Any]]:
    """Sweep the cross-edge buffer capacity of the dynamic pipeline
    scheduler from tiny to far beyond Θ(M).  Misses should fall as capacity
    approaches Θ(M) (components amortize their state loads over more
    firings) and then plateau — why Θ(M) buffers are the right size."""
    g = random_pipeline(16, 48, seed=seed, rate_choices=((1, 1),))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    part = optimal_pipeline_partition(g, M, c=1.0)
    order = component_layout_order(part)
    rows: List[Dict[str, Any]] = []
    for cap in (4, 16, 64, 128, 256, 512, 1024):
        sched = pipeline_dynamic_schedule(
            g, part, geom, target_outputs=n_outputs, cross_capacity=cap
        )
        res = measure_compiled(g, required_geometry(part, geom), sched, layout_order=order)
        rows.append(
            {
                "cross_capacity": cap,
                "cap_over_M": round(cap / M, 2),
                "misses": res.misses,
                "misses_per_input": round(res.misses_per_source_fire, 3),
            }
        )
    return rows


def ablation_a3_lru_vs_opt(seed: int = 41, n_outputs: int = 600) -> List[Dict[str, Any]]:
    """Replay the partitioned schedule's block trace under Belady's OPT:
    the LRU/OPT ratio is the constant the ideal-cache assumption hides
    (Sleator-Tarjan predicts a modest constant at equal size).

    The trace is compiled once (no stepwise simulation, no recorder) and
    both policies replay it vectorized — LRU via the Mattson pass, OPT via
    the priority-stack pass — so the ablation now runs entirely on the
    compiled-trace engine."""
    g = random_pipeline(14, 40, seed=seed, rate_choices=((1, 1), (2, 1), (1, 2)))
    M = 128
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    part = optimal_pipeline_partition(g, M, c=1.0)
    sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
    aug = required_geometry(part, geom)
    trace = compile_trace(
        g, sched, DEFAULT_B, layout_order=component_layout_order(part)
    )
    res = simulate_trace(trace, [aug])[0]
    opt_res = simulate_trace(trace, [aug], policy="opt")[0]
    return [
        {
            "policy": "LRU",
            "misses": res.misses,
            "accesses": res.accesses,
        },
        {
            "policy": "OPT (Belady)",
            "misses": opt_res.misses,
            "accesses": opt_res.accesses,
        },
        {
            "policy": "LRU/OPT ratio",
            "misses": round(res.misses / opt_res.misses, 3) if opt_res.misses else 0,
            "accesses": "",
        },
    ]


def ablation_a4_degree_limits(M: int = 192) -> List[Dict[str, Any]]:
    """Section 5's degree-limited condition on a high-fan-out app
    (beamformer): report each partitioner's worst component degree against
    the M/B limit alongside its measured cost.  Components whose degree
    exceeds M/B cannot keep one block per cross buffer resident, and the
    measured misses show it."""
    g = beamformer(channels=8, beams=4, taps=24)
    geom = CacheGeometry(size=M, block=16)
    limit = geom.size / geom.block
    rows: List[Dict[str, Any]] = []
    reference = refine_partition(interval_dp_partition(g, M, c=2.0), M, c=2.0)
    # Every candidate runs on the SAME cache, sized for the degree-limited
    # reference partition (one hot block per cross edge): partitions whose
    # degree exceeds the limit cannot keep their cross blocks resident and
    # pay for it in misses.
    aug = required_geometry(reference, geom, slack=1.05, cross_hot_blocks=1)
    candidates = [
        ("greedy", greedy_topological_partition(g, M, c=2.0)),
        ("interval-dp", interval_dp_partition(g, M, c=2.0)),
        ("interval-dp+refine", reference),
    ]
    for name, part in candidates:
        max_deg = max(part.component_degree(i) for i in range(part.k))
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=2)
        res = measure_compiled(g, aug, sched, layout_order=component_layout_order(part))
        rows.append(
            {
                "partitioner": name,
                "k": part.k,
                "bandwidth": float(part.bandwidth()),
                "max_degree": max_deg,
                "degree_limit_M_over_B": limit,
                "degree_limited": max_deg <= limit,
                "misses_per_input": round(res.misses_per_source_fire, 3),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E11: parallel dynamic scheduling (Section 7 future work, built out)
# ----------------------------------------------------------------------
def experiment_e11_parallel_scaling(target_outputs: int = 1024) -> List[Dict[str, Any]]:
    """Sweep worker count for the parallel dynamic component scheduler on a
    wide homogeneous dag.  Paper-predicted shape: throughput scales with P
    until the component graph's parallelism is exhausted, while total cache
    misses stay within a small factor of the P=1 schedule (the "load
    balancing vs misses" tension of Section 7)."""
    from repro.core.parallel_sched import parallel_dynamic_simulation
    from repro.graphs.topologies import diamond

    g = diamond(branch_len=5, ways=4, state=24)
    M = 96
    geom = CacheGeometry(size=M, block=DEFAULT_B)
    part = refine_partition(interval_dp_partition(g, M, c=2.0), M, c=2.0)
    rows: List[Dict[str, Any]] = []
    base_misses = None
    for p in (1, 2, 4, 8):
        res = parallel_dynamic_simulation(g, part, geom, n_workers=p, target_outputs=target_outputs)
        if base_misses is None:
            base_misses = res.total_misses
        rows.append(
            {
                "P": p,
                "makespan": res.makespan,
                "speedup": round(res.speedup, 2),
                "load_balance": round(res.load_balance, 2),
                "total_misses": res.total_misses,
                "miss_inflation_vs_P1": round(res.total_misses / base_misses, 2),
            }
        )
    return rows


# ----------------------------------------------------------------------
# A5: multilevel partitioner vs interval DP vs greedy
# ----------------------------------------------------------------------
def ablation_a5_multilevel(seed: int = 43) -> List[Dict[str, Any]]:
    """Compare the three practical partitioners the paper's Section 7
    mentions (exact/ILP being exponential): first-fit greedy, the interval
    DP over one topological order, and the multilevel coarsen/refine scheme
    (Hendrickson-Leland / METIS style, refs [10]/[14]).  Columns: bandwidth
    achieved and wall-clock, across topologies."""
    from repro.core.multilevel import multilevel_partition
    from repro.graphs.topologies import layered_random_dag

    configs = [
        ("pipeline-n128", random_pipeline(128, 24, seed=seed, rate_choices=MIXED_RATES), 64),
        ("layered-6x4", layered_random_dag(6, 4, 16, seed=seed), 64),
        ("beamformer", beamformer(channels=6, beams=3, taps=24), 192),
        ("des-16", des_rounds(rounds=16, sbox_state=48), 192),
    ]
    rows: List[Dict[str, Any]] = []
    for name, g, M in configs:
        results = {}
        timings = {}
        for label, fn in (
            ("greedy", lambda: greedy_topological_partition(g, M, c=2.0)),
            ("interval_dp", lambda: interval_dp_partition(g, M, c=2.0)),
            ("multilevel", lambda: multilevel_partition(g, M, c=2.0)),
        ):
            t0 = time.perf_counter()
            part = fn()
            timings[label] = (time.perf_counter() - t0) * 1e3
            results[label] = part
        rows.append(
            {
                "graph": name,
                "n": g.n_modules,
                "greedy_bw": float(results["greedy"].bandwidth()),
                "dp_bw": float(results["interval_dp"].bandwidth()),
                "ml_bw": float(results["multilevel"].bandwidth()),
                "greedy_ms": round(timings["greedy"], 2),
                "dp_ms": round(timings["interval_dp"], 2),
                "ml_ms": round(timings["multilevel"], 2),
            }
        )
    return rows
