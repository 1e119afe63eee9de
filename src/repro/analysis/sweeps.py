"""Robustness sweeps beyond the paper's model (E12/E13).

The theorems are stated for an ideal fully associative cache.  Two natural
robustness questions a practitioner asks before adopting the scheduler:

* **E12 — cache organization.**  Does the partitioned schedule's advantage
  survive a direct-mapped cache (conflict misses) or a two-level hierarchy?
  The schedule and layout are unchanged; only the simulator varies.  The
  paper's analysis suggests yes: the partition layout packs each component
  contiguously, so conflict misses stay rare, and a second level only
  filters further.

* **E13 — statistical robustness.**  The competitive-ratio experiments use
  fixed seeds; E13 re-runs the E1 pipeline measurement across many random
  pipelines and reports the distribution (mean/max) of measured/LB ratios.
  Shape: a tight band whose max does not explode — the O(1) constant is a
  real constant, not a lucky seed.

The layout ablations A6/A7 (does placement matter below full
associativity, and how much does conflict-aware placement recover) and the
hierarchy ablation A8 (how much of the L1 miss stream does an inclusive L2
absorb, and how close is the filtered L2 to one that sees everything) live
here too — every driver runs on compiled traces through the vectorized
replay, no stepwise simulation anywhere (see ``docs/REPLAY.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.core.baselines import single_appearance_schedule
from repro.core.lower_bound import pipeline_lower_bound
from repro.core.partition_sched import component_layout_order, pipeline_dynamic_schedule
from repro.core.pipeline import optimal_pipeline_partition
from repro.core.dagpart import interval_dp_partition
from repro.core.partition_sched import inhomogeneous_partition_schedule
from repro.core.tuning import choose_batch, required_geometry
from repro.graphs.apps import fm_radio
from repro.graphs.repetition import repetition_vector
from repro.graphs.topologies import random_pipeline
from repro.runtime.compiled import compile_trace, measure_compiled, simulate_trace

__all__ = [
    "experiment_e12_cache_models",
    "experiment_e13_seed_distribution",
    "ablation_a6_layout_order",
    "ablation_a7_placement",
    "ablation_a8_inclusion",
    "ablation_a9_cross_geometry",
    "ablation_a12_facility_search",
    "des_partitioned_workload",
    "fm_partitioned_workload",
    "fm_partitioned_traces",
]


def des_partitioned_workload(M: int = 256, B: int = 8, inputs: int = 768):
    """The canonical layout-sensitivity workload (A6/A7): the DES pipeline,
    interval-DP partitioned and batch-scheduled for an M-word cache.

    Shared by :func:`ablation_a6_layout_order`, :func:`ablation_a7_placement`,
    ``tests/test_placement.py``, ``benchmarks/bench_placement.py``, and
    ``examples/layout_tuning.py``, so they all measure the same thing.
    Returns ``(graph, schedule, partition, run_geometry)``.
    """
    from repro.graphs.apps import des_rounds

    g = des_rounds(rounds=8, sbox_state=48)
    geom = CacheGeometry(size=M, block=B)
    part = interval_dp_partition(g, M, c=2.0)
    plan = choose_batch(g, M, cross_cids=[c.cid for c in part.cross_channels()])
    n_batches = max(2, -(-inputs // max(plan.source_fires, 1)))
    sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
    return g, sched, part, required_geometry(part, geom)


def fm_partitioned_workload(M: int = 256, B: int = 8, inputs: int = 1024):
    """The fm_radio twin of :func:`des_partitioned_workload`: interval-DP
    partitioned and batch-scheduled for an M-word cache.  Returns ``(graph,
    schedule, partition, run_geometry)`` — the second workload of the A12
    placement-search comparison, and the source of
    :func:`fm_partitioned_traces`'s partitioned trace.
    """
    g = fm_radio(taps=48, bands=6)
    geom = CacheGeometry(size=M, block=B)
    part = interval_dp_partition(g, M, c=2.0)
    plan = choose_batch(g, M, cross_cids=[c.cid for c in part.cross_channels()])
    n_batches = max(2, -(-inputs // max(plan.source_fires, 1)))
    sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
    return g, sched, part, required_geometry(part, geom)


def fm_partitioned_traces(M: int = 256, B: int = 8):
    """The canonical cache-organization workload (E12/A8): fm_radio,
    interval-DP partitioned and batch-scheduled for an M-word cache, plus
    the matched single-appearance baseline — both compiled to block traces.

    Returns ``(part_trace, base_trace, geom, run_geom)``: the two compiled
    traces, the nominal M-word geometry, and the O(M) execution geometry
    the partition needs.  Shared by :func:`experiment_e12_cache_models` and
    :func:`ablation_a8_inclusion` so their rows measure the same thing.
    """
    g, sched, part, run_geom = fm_partitioned_workload(M=M, B=B)
    geom = CacheGeometry(size=M, block=B)
    order = component_layout_order(part)
    reps = repetition_vector(g)

    part_trace = compile_trace(g, sched, B, layout_order=order)
    iters = max(1, part_trace.source_fires // reps[g.sources()[0]])
    base_sched = single_appearance_schedule(g, n_iterations=iters)
    base_trace = compile_trace(g, base_sched, B)
    return part_trace, base_trace, geom, run_geom


def experiment_e12_cache_models(M: int = 256, B: int = 8) -> List[Dict[str, Any]]:
    """Partitioned vs single-appearance on fm_radio across cache models.

    Cache models: ideal LRU (the paper's), direct-mapped of the same size
    (worst-case associativity), 4-way set-associative in between, and a
    two-level hierarchy (L1 = M, L2 = the partition's O(M); misses counted
    at L2 = memory transfers).  Shape: the partitioned schedule wins under
    every organization; lower associativity adds conflict misses to both
    columns but does not change the verdict.

    Each schedule is compiled once; *every* row — the two-level hierarchy
    included (``policy="two_level"``) — is answered
    from the two compiled traces by the vectorized replay (policy dispatch
    in :func:`repro.runtime.compiled.simulate_trace`).  No stepwise
    simulation anywhere in this sweep.
    """
    part_trace, base_trace, geom, run_geom = fm_partitioned_traces(M=M, B=B)

    # 4-way organization of (at least) the same capacity
    ways = 4
    assoc_geom = run_geom.with_ways(ways)
    # L1 is the un-augmented M; L2 is the O(M) the partition needs.
    # Misses are counted at L2 (memory transfers): the partitioned
    # working set fits L2, the naive schedule's does not.
    two_level_geom = TwoLevelGeometry(
        CacheGeometry(size=geom.size, block=B),
        CacheGeometry(size=run_geom.size, block=B),
    )

    rows: List[Dict[str, Any]] = []
    replayed = [
        ("LRU (paper model)", "lru", run_geom),
        (f"{ways}-way LRU ({assoc_geom.size}w)", "lru", assoc_geom),
        ("direct-mapped", "direct", run_geom),
        ("two-level (L1=M, L2=O(M))", "two_level", two_level_geom),
    ]
    for label, policy, rg in replayed:
        res = simulate_trace(part_trace, [rg], policy=policy)[0]
        base = simulate_trace(base_trace, [rg], policy=policy)[0]
        rows.append(_e12_row(label, res, base))
    return rows


def _e12_row(label: str, res, base) -> Dict[str, Any]:
    return {
        "cache_model": label,
        "partitioned_mpi": round(res.misses_per_source_fire, 3),
        "single_app_mpi": round(base.misses_per_source_fire, 3),
        "win": round(base.misses_per_source_fire / res.misses_per_source_fire, 1)
        if res.misses_per_source_fire
        else float("inf"),
    }


def experiment_e13_seed_distribution(
    n_seeds: int = 16, n: int = 24, M: int = 96, n_outputs: int = 400,
) -> List[Dict[str, Any]]:
    """Distribution of measured/LB competitive ratios over random pipelines.

    One summary row per statistic; per-seed ratios are recomputed
    deterministically from the seed range, so the row set is stable.  Every
    measurement is the fully-associative LRU model, so the whole sweep runs
    through the compiled-trace engine instead of stepwise simulation.
    """
    geom = CacheGeometry(size=M, block=8)

    def run_seed(seed: int):
        # states in [20, 60]: total state (~24 * 40 words) always far
        # exceeds the O(M) execution cache, so no seed degenerates into the
        # everything-resident regime where all schedules tie.
        g = random_pipeline(
            n, 60, seed=seed, min_state=20,
            rate_choices=[(1, 1), (1, 1), (2, 1), (1, 2)],
        )
        part = optimal_pipeline_partition(g, M, c=3.0)
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=n_outputs)
        run_geom = required_geometry(part, geom)
        res = measure_compiled(
            g, run_geom, sched, layout_order=component_layout_order(part)
        )
        lb = pipeline_lower_bound(g, M)
        lbm = float(lb.misses(res.source_fires, geom))
        base = measure_compiled(
            g, run_geom, single_appearance_schedule(g, n_iterations=n_outputs)
        )
        ratio = res.misses / lbm if lbm > 0 else None
        win = (
            base.misses_per_source_fire / res.misses_per_source_fire
            if res.misses_per_source_fire > 0
            else None
        )
        return ratio, win

    per_seed = [run_seed(seed) for seed in range(n_seeds)]
    ratios = [r for r, _ in per_seed if r is not None]
    wins = [w for _, w in per_seed if w is not None]

    arr = np.array(ratios)
    warr = np.array(wins)
    return [
        {"statistic": "seeds", "ratio_to_lb": len(arr), "win_vs_single_app": len(warr)},
        {
            "statistic": "mean",
            "ratio_to_lb": round(float(arr.mean()), 2),
            "win_vs_single_app": round(float(warr.mean()), 2),
        },
        {
            "statistic": "median",
            "ratio_to_lb": round(float(np.median(arr)), 2),
            "win_vs_single_app": round(float(np.median(warr)), 2),
        },
        {
            "statistic": "max",
            "ratio_to_lb": round(float(arr.max()), 2),
            "win_vs_single_app": round(float(warr.max()), 2),
        },
        {
            "statistic": "min",
            "ratio_to_lb": round(float(arr.min()), 2),
            "win_vs_single_app": round(float(warr.min()), 2),
        },
    ]


def ablation_a6_layout_order(M: int = 256, B: int = 8) -> List[Dict[str, Any]]:
    """A6 — does memory layout matter?

    Two findings, one expected and one cautionary:

    * Under the paper's fully associative model, layout is provably
      irrelevant (only the *set* of blocks touched matters) — the LRU
      column must be identical across layouts, and is.  This justifies the
      library's freedom to choose layouts for other reasons.
    * Under a direct-mapped cache, conflict misses are large and
      layout-sensitive, but NOT monotonically in favour of grouping: the
      round-robin "strided" layout can beat the grouped one because
      conflicts depend on addresses modulo the frame count, not on
      contiguity.  The actionable lesson is that low-associativity targets
      need conflict-aware placement (colouring/skewing), which is outside
      the paper's model — the partitioned schedule still wins at every
      layout (compare E12), but its margin varies.

    Both columns come from one compiled trace per layout: LRU via the
    Mattson pass, direct-mapped via the per-frame last-block replay — no
    stepwise simulation anywhere in this sweep.
    """
    g, sched, part, run_geom = des_partitioned_workload(M=M, B=B, inputs=768)

    grouped = component_layout_order(part)
    topo = g.topological_order()
    # adversarial: round-robin across components so each component's state
    # is maximally scattered through the address space
    comps = [list(c) for c in part.components]
    strided: List[str] = []
    idx = 0
    while any(comps):
        comp = comps[idx % len(comps)]
        if comp:
            strided.append(comp.pop(0))
        idx += 1

    rows: List[Dict[str, Any]] = []
    for label, order in (("component-grouped", grouped), ("topological", topo), ("strided", strided)):
        trace = compile_trace(g, sched, B, layout_order=order)
        lru = simulate_trace(trace, [run_geom])[0]
        dm = simulate_trace(trace, [run_geom], policy="direct")[0]
        rows.append(
            {
                "layout": label,
                "lru_misses": lru.misses,
                "direct_mapped_misses": dm.misses,
                "dm_conflict_penalty": round(dm.misses / lru.misses, 2) if lru.misses else 0,
            }
        )
    return rows


def ablation_a7_placement(
    M: int = 256, B: int = 8, inputs: int = 256, budget: int = 300
) -> List[Dict[str, Any]]:
    """A7 — layout sensitivity: seed vs colored vs swap-refined placement.

    A6 diagnosed the disease (direct-mapped misses swing with layout in
    non-obvious ways); A7 measures the cure.  The conflict-aware placement
    subsystem (:mod:`repro.mem.placement`) optimizes the object order for
    the direct-mapped execution geometry — greedy set-coloring of the
    temporal-affinity conflict graph, then FLIP-style pairwise-swap local
    search scored by the exact block-remap cost model — and every candidate
    is evaluated across organizations from the *one* trace compiled under
    the seed layout.

    Shape: the ``direct`` column drops hard (the des workload loses well
    over 80% of its conflict misses to the swap-refined placement), and the
    ``fully_assoc`` column is bit-identical for every placement — the
    paper's model provably cannot see layout, which is exactly why the
    optimizer is free to choose it.  The ``2way``/``4way`` columns carry a
    caution: a placement tuned for the direct-mapped index can *regress*
    at other organizations (conflicts depend on addresses modulo the set
    count), so the target geometry must be the deployment geometry.  Those
    columns run at the nearest valid set indexing — ``with_ways`` snaps the
    frame count up — and every label carries its cache size in words so
    capacity effects are not mistaken for placement effects.
    """
    from repro.mem.placement import build_instance, optimize_instance, placement_costs

    g, sched, _part, run_geom = des_partitioned_workload(M=M, B=B, inputs=inputs)
    # with_ways snaps the frame count up to the nearest valid set indexing,
    # so these columns may run a slightly larger cache than run_geom — the
    # labels carry the word size to keep the comparison honest
    two_way = run_geom.with_ways(2)
    four_way = run_geom.with_ways(4)
    col_direct = f"direct_{run_geom.size}w"
    col_2way = f"2way_{two_way.size}w"
    col_4way = f"4way_{four_way.size}w"

    instance = build_instance(g, sched, B)
    others = [(two_way, "lru", 1.0), (four_way, "lru", 1.0), (run_geom, "lru", 1.0)]

    rows: List[Dict[str, Any]] = []
    for strategy in ("topo", "color", "swap"):
        res = optimize_instance(
            instance, [(run_geom, "direct", 1.0)], strategy=strategy, budget=budget
        )
        (direct,), (seed,) = res.per_target, res.seed_per_target
        lru_2way, lru_4way, fully_assoc = placement_costs(instance, res.order, others)
        rows.append(
            {
                "placement": "seed (topo)" if strategy == "topo" else strategy,
                col_direct: direct,
                col_2way: lru_2way,
                col_4way: lru_4way,
                "fully_assoc": fully_assoc,
                "direct_vs_seed": round(direct / seed, 3) if seed else 1.0,
            }
        )
    return rows


def ablation_a9_cross_geometry(
    M: int = 256, B: int = 8, inputs: int = 256, budget: int = 300,
    gap_budget: int = 8,
) -> List[Dict[str, Any]]:
    """A9 — deployable placements: single- vs multi-geometry objectives
    across the A7 workload's organizations.

    A7's caution was that a placement tuned for the direct-mapped index can
    *regress* at 2-way.  A9 measures the cure:

    * ``seed (topo)`` — the baseline layout;
    * ``swap@direct`` — the A7 optimizer, tuned only for the direct-mapped
      geometry (may regress at other targets: the disease);
    * ``swap@multi`` — the multi-geometry objective
      (:func:`repro.mem.placement.optimize_instance` with ``targets=`` over
      all three organizations, padding allowed via ``gap_budget``), which
      by contract is **never worse than the seed at any target**.

    All candidates are scored from the *one* seed-compiled trace via the
    block-remap cost model.  Columns carry cache sizes in words (``with_ways``
    snaps frame counts up) so capacity effects are not mistaken for
    placement effects; ``worst_vs_seed`` is the max over targets of
    (cost / seed cost) — the deployability number, ≤ 1.0 for ``swap@multi``.
    """
    from repro.mem.placement import build_instance, optimize_instance, placement_costs

    g, sched, _part, run_geom = des_partitioned_workload(M=M, B=B, inputs=inputs)
    direct = run_geom.with_ways(1)
    two_way = run_geom.with_ways(2)
    four_way = run_geom.with_ways(4)
    targets = [
        (direct, "direct", 1.0),
        (two_way, "lru", 1.0),
        (four_way, "lru", 1.0),
    ]
    cols = [
        f"direct_{direct.size}w",
        f"2way_{two_way.size}w",
        f"4way_{four_way.size}w",
    ]

    instance = build_instance(g, sched, B)
    seed_order = list(instance.objects)
    seed = placement_costs(instance, seed_order, targets)

    def row(label: str, per: List[int], gap_blocks: int = 0) -> Dict[str, Any]:
        out: Dict[str, Any] = {"placement": label}
        out.update({c: int(m) for c, m in zip(cols, per)})
        out["worst_vs_seed"] = round(
            max((m / s if s else 1.0) for m, s in zip(per, seed)), 3
        )
        out["gap_blocks"] = gap_blocks
        return out

    rows: List[Dict[str, Any]] = [row("seed (topo)", seed)]

    single = optimize_instance(
        instance, [(direct, "direct", 1.0)], strategy="swap", budget=budget
    )
    rows.append(
        row("swap@direct",
            placement_costs(instance, single.order, targets, gaps=single.gaps),
            single.gap_blocks)
    )

    multi = optimize_instance(
        instance, targets, strategy="swap", budget=budget, gap_budget=gap_budget,
    )
    rows.append(row("swap@multi", list(multi.per_target), multi.gap_blocks))
    return rows


def ablation_a8_inclusion(M: int = 256, B: int = 8) -> List[Dict[str, Any]]:
    """A8 — inclusion ratio: L2 miss rate as a function of L1 geometry.

    In the inclusive hierarchy, L2 is consulted only on L1 misses, so its
    recency order is by *last L1-miss time*, not last access time — a block
    hot in L1 never refreshes its L2 position.  How much does that filter
    distortion cost?  One row per L1 geometry (sizes around M, fully
    associative and direct-mapped), all against the fixed O(M) L2 the E12
    hierarchy row uses, all answered from the *one* compiled partitioned
    trace: each row is an L1 pass plus an L2 pass over its miss sub-trace
    (:func:`repro.runtime.replay.replay_miss_masks` under ``lru`` or
    ``direct`` and under ``two_level``).

    Columns: ``l1_misses`` (L2 consults), ``mem_misses`` (transfers from
    memory), ``filter_rate`` (fraction of L1 misses that L2 absorbs), and
    ``inclusion_ratio`` — memory misses relative to a *single-level* L2 fed
    the full trace, i.e. the price of the hierarchy only seeing the
    filtered stream.  Shape: growing L1 cuts l1_misses hard while
    mem_misses stay pinned near the single-level floor (inclusion_ratio
    ≈ 1): the hierarchy composes, which is the paper's multi-level claim
    (HMM, cited as [24]) made measurable.
    """
    from repro.runtime.replay import replay_miss_masks, replay_misses

    part_trace, _base_trace, geom, run_geom = fm_partitioned_traces(M=M, B=B)
    l2 = CacheGeometry(size=run_geom.size, block=B)
    (single_level_l2,) = replay_misses(part_trace.blocks, [l2], "lru")

    l1_grid: List[CacheGeometry] = []
    for frac in (4, 2, 1):
        size = max(B, (geom.size // frac) // B * B)
        l1_grid.append(CacheGeometry(size=size, block=B))  # fully associative
        l1_grid.append(CacheGeometry(size=size, block=B, ways=1))  # direct-mapped

    # batched calls so the kernels share their passes: the fully-associative
    # L1 column reads off one Mattson pass, the hierarchy grid reuses one L1
    # pass per distinct L1 organization
    blocks = part_trace.blocks
    fa = [g for g in l1_grid if g.ways is None]
    dm = [g for g in l1_grid if g.ways == 1]
    l1_masks = dict(zip(fa, replay_miss_masks(blocks, fa, "lru")))
    l1_masks.update(zip(dm, replay_miss_masks(blocks, dm, "direct")))
    mem_masks = replay_miss_masks(
        blocks, [TwoLevelGeometry(l1, l2) for l1 in l1_grid], "two_level"
    )

    rows: List[Dict[str, Any]] = []
    for l1, mem_mask in zip(l1_grid, mem_masks):
        l1_misses = int(np.count_nonzero(l1_masks[l1]))
        mem = int(np.count_nonzero(mem_mask))
        org = "direct" if l1.ways == 1 else "full"
        rows.append(
            {
                "l1": f"{l1.size}w/{org}",
                "l1_misses": l1_misses,
                "mem_misses": mem,
                "filter_rate": round(1.0 - mem / l1_misses, 4) if l1_misses else 0.0,
                "inclusion_ratio": round(mem / single_level_l2, 3)
                if single_level_l2
                else float("inf"),
            }
        )
    return rows


def ablation_a12_facility_search(
    M: int = 256, B: int = 8, budget: int = 8000, minimax_budget: int = 300,
    restarts: int = 2, noise: float = 0.5, seed: int = 0,
) -> List[Dict[str, Any]]:
    """A12 — facility-location search quality: multiswap/smoothed vs swap
    at equal eval budget, and minimax vs swap@multi on the A9 geometry set.

    Two questions, two sections of rows:

    * **Search quality.**  On the DES and fm_radio partitioned workloads
      (direct-mapped at the execution geometry — the organization where
      placement matters most), run the FLIP baseline
      (:func:`repro.mem.placement.swap_refine`) and the facility-location
      searches (:func:`repro.mem.facility.multiswap_refine`,
      :func:`repro.mem.facility.smoothed_search`) from the same greedy
      start with the same eval budget.  ``evals`` is read back from the
      scorer (every cost-model invocation counted), so the comparison is
      honest: the claim is better misses at *equal* budget, not more
      search.  ``budget`` sits past FLIP's convergence point on both
      workloads (DES ~4.4k evals, fm_radio ~6.1k) — that is the point:
      swap *cannot* spend more (its move set is exhausted at a local
      optimum, the plateau the smoothed-FLIP analysis predicts), while
      the richer k-object moves and the noise-perturbed restarts keep
      buying misses.  ``vs_swap`` is swap's misses over the row's (> 1 =
      the row wins); the gate asserts multiswap or smoothed beats swap on
      both workloads.
    * **Worst-case deployability.**  On the A9 cross-geometry target set
      (direct / 2-way LRU / 4-way LRU over the DES workload), compare
      ``swap@multi`` (weighted-sum objective) against ``minimax`` (worst
      per-target ratio objective): ``worst_vs_seed`` is the max over
      targets of (cost / seed cost) — minimax's whole purpose is driving
      that number down, and the gate asserts it strictly improves on
      swap@multi's.

    Deterministic end to end: the smoothed restarts derive from ``seed``
    alone (``numpy.random.default_rng``), so rerunning reproduces every
    row bit-for-bit.
    """
    from repro.mem.facility import multiswap_refine, smoothed_search
    from repro.mem.placement import (
        build_instance,
        conflict_graph,
        greedy_color_order,
        optimize_instance,
        placement_costs,
        swap_refine,
    )

    rows: List[Dict[str, Any]] = []
    workloads = [
        ("des", des_partitioned_workload(M=M, B=B, inputs=256)),
        ("fm_radio", fm_partitioned_workload(M=M, B=B, inputs=512)),
    ]
    for name, (g, sched, _part, run_geom) in workloads:
        direct = run_geom.with_ways(1)
        instance = build_instance(g, sched, B)
        weights = conflict_graph(instance)
        start = greedy_color_order(instance, direct, policy="direct",
                                   weights=weights)
        target = [(direct, "direct", 1.0)]
        _o, _g2, swap_cost, swap_stats = swap_refine(
            instance, start, target, budget=budget, weights=weights,
        )
        _o, _g2, multi_cost, multi_stats = multiswap_refine(
            instance, start, target, budget=budget, weights=weights,
        )
        _o, _g2, smooth_cost, smooth_stats = smoothed_search(
            instance, target, budget=budget,
            restarts=restarts, noise=noise, seed=seed,
        )
        for label, cost, stats in (
            ("swap", swap_cost, swap_stats),
            ("multiswap", multi_cost, multi_stats),
            ("smoothed", smooth_cost, smooth_stats),
        ):
            rows.append({
                "workload": name,
                "search": label,
                "misses": int(cost),
                "evals": stats.evals,
                "rounds": stats.rounds,
                "vs_swap": round(swap_cost / cost, 4) if cost else 1.0,
            })

    # worst-case deployability on the A9 geometry set (DES workload);
    # multi-target evals replay every target, so this section runs at
    # A9's budget scale, not the single-target section's
    g, sched, _part, run_geom = workloads[0][1]
    instance = build_instance(g, sched, B)
    targets = [
        (run_geom.with_ways(1), "direct", 1.0),
        (run_geom.with_ways(2), "lru", 1.0),
        (run_geom.with_ways(4), "lru", 1.0),
    ]
    seed_per = placement_costs(instance, list(instance.objects), targets)

    def worst(per: List[int]) -> float:
        return round(
            max((m / s if s else 1.0) for m, s in zip(per, seed_per)), 4
        )

    worsts: Dict[str, float] = {}
    for label, strategy in (("swap@multi", "swap"), ("minimax", "minimax")):
        res = optimize_instance(
            instance, targets, strategy=strategy, budget=minimax_budget,
        )
        worsts[label] = worst(list(res.per_target))
        rows.append({
            "workload": "des/a9-targets",
            "search": f"{label} (worst={worsts[label]})",
            "misses": int(sum(res.per_target)),
            "evals": minimax_budget,
            "rounds": 0,
            # > 1 = this row's worst per-target ratio beats swap@multi's
            "vs_swap": round(worsts["swap@multi"] / worsts[label], 4)
            if worsts[label] else 1.0,
        })
    return rows
