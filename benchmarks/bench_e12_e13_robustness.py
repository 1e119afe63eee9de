"""E12/E13/A8 — robustness beyond the paper's model: cache organizations
the theorems don't cover (direct-mapped, two-level), seed-averaged
competitive-ratio statistics, and the hierarchy inclusion ratio."""

from repro.analysis.sweeps import (
    ablation_a8_inclusion,
    experiment_e12_cache_models,
    experiment_e13_seed_distribution,
)


def test_e12_cache_models(benchmark, show):
    rows = benchmark.pedantic(experiment_e12_cache_models, rounds=1, iterations=1)
    show(rows, "E12: partitioned vs single-appearance across cache models")
    for r in rows:
        assert r["win"] > 1.0, f"partitioning should win under {r['cache_model']}"


def test_e13_seed_distribution(benchmark, show):
    rows = benchmark.pedantic(
        experiment_e13_seed_distribution,
        kwargs={"n_seeds": 8},
        rounds=1,
        iterations=1,
    )
    show(rows, "E13: competitive-ratio distribution over random pipelines")
    stats = {r["statistic"]: r for r in rows}
    assert stats["max"]["ratio_to_lb"] < 50, "ratio band should be tight"
    assert stats["min"]["win_vs_single_app"] > 1.0


def test_a8_inclusion(benchmark, show):
    rows = benchmark.pedantic(ablation_a8_inclusion, rounds=1, iterations=1)
    show(rows, "A8: L2 miss rate as a function of L1 geometry (inclusion)")
    for r in rows:
        assert r["filter_rate"] > 0.5, f"L2 should absorb most L1 misses ({r['l1']})"
