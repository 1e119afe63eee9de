"""Tests for the robustness sweep drivers (E12/E13) and the layout /
hierarchy ablations (A6/A8/A9)."""

import pytest

from repro.analysis.sweeps import (
    ablation_a8_inclusion,
    ablation_a9_cross_geometry,
    experiment_e12_cache_models,
    experiment_e13_seed_distribution,
)


class TestE12:
    def test_rows_and_shape(self):
        rows = experiment_e12_cache_models()
        assert len(rows) == 4
        models = {r["cache_model"] for r in rows}
        assert any("LRU" in m for m in models)
        assert any("4-way" in m for m in models)
        assert any("direct" in m for m in models)
        assert any("two-level" in m for m in models)
        for r in rows:
            assert r["win"] > 1.0

    def test_direct_mapped_adds_conflicts(self):
        rows = experiment_e12_cache_models()
        by = {r["cache_model"]: r for r in rows}
        lru = next(v for k, v in by.items() if "LRU" in k)
        dm = next(v for k, v in by.items() if "direct" in k)
        assert dm["partitioned_mpi"] >= lru["partitioned_mpi"]


class TestE13:
    def test_statistics_structure(self):
        rows = experiment_e13_seed_distribution(n_seeds=4, n_outputs=200)
        stats = {r["statistic"]: r for r in rows}
        assert set(stats) == {"seeds", "mean", "median", "max", "min"}
        assert stats["seeds"]["ratio_to_lb"] == 4
        assert stats["min"]["ratio_to_lb"] <= stats["median"]["ratio_to_lb"]
        assert stats["median"]["ratio_to_lb"] <= stats["max"]["ratio_to_lb"]

    def test_every_seed_beats_baseline(self):
        rows = experiment_e13_seed_distribution(n_seeds=4, n_outputs=200)
        stats = {r["statistic"]: r for r in rows}
        assert stats["min"]["win_vs_single_app"] > 1.0

    def test_workers_do_not_change_rows(self):
        # what `experiment e13 --backend process --workers 2` installs
        from repro.runtime.backend import configure

        serial = experiment_e13_seed_distribution(n_seeds=4, n_outputs=200)
        previous = configure("process", 2)
        try:
            pooled = experiment_e13_seed_distribution(n_seeds=4, n_outputs=200)
        finally:
            configure(*previous)
        assert serial == pooled


class TestA6Layout:
    def test_lru_layout_invariant(self):
        from repro.analysis.sweeps import ablation_a6_layout_order

        rows = ablation_a6_layout_order()
        lru_counts = {r["lru_misses"] for r in rows}
        assert len(lru_counts) == 1  # fully associative: layout cannot matter

    def test_direct_mapped_layout_sensitive(self):
        from repro.analysis.sweeps import ablation_a6_layout_order

        rows = ablation_a6_layout_order()
        dm_counts = {r["direct_mapped_misses"] for r in rows}
        assert len(dm_counts) >= 2  # conflicts depend on placement
        for r in rows:
            assert r["direct_mapped_misses"] >= r["lru_misses"]


class TestA9CrossGeometry:
    """A9 acceptance: the multi-geometry-optimized layout is never worse
    than the seed at *any* target geometry (no A7-style cross-geometry
    regression)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return ablation_a9_cross_geometry(inputs=128, budget=150, gap_budget=4)

    def test_rows_and_shape(self, rows):
        assert [r["placement"] for r in rows] == [
            "seed (topo)", "swap@direct", "swap@multi",
        ]
        cols = [k for k in rows[0] if k.endswith("w")]
        assert len(cols) == 3  # direct, 2way, 4way — sizes in the labels
        for r in rows:
            assert r["worst_vs_seed"] >= 0
            assert r["gap_blocks"] >= 0

    def test_multi_never_worse_at_every_target(self, rows):
        by = {r["placement"]: r for r in rows}
        cols = [k for k in rows[0] if k.endswith("w")]
        for col in cols:
            assert by["swap@multi"][col] <= by["seed (topo)"][col], col
        assert by["swap@multi"]["worst_vs_seed"] <= 1.0

    def test_multi_beats_seed_overall(self, rows):
        by = {r["placement"]: r for r in rows}
        cols = [k for k in rows[0] if k.endswith("w")]
        total_seed = sum(by["seed (topo)"][c] for c in cols)
        total_multi = sum(by["swap@multi"][c] for c in cols)
        assert total_multi < total_seed


class TestA8Inclusion:
    def test_rows_and_shape(self):
        rows = ablation_a8_inclusion()
        assert len(rows) == 6  # 3 L1 sizes x {fully-assoc, direct-mapped}
        for r in rows:
            assert set(r) == {
                "l1", "l1_misses", "mem_misses", "filter_rate", "inclusion_ratio",
            }
            assert 0 <= r["mem_misses"] <= r["l1_misses"]
            assert 0.0 <= r["filter_rate"] <= 1.0

    def test_bigger_l1_filters_more(self):
        rows = ablation_a8_inclusion()
        fa = [r for r in rows if r["l1"].endswith("/full")]
        l1_misses = [r["l1_misses"] for r in fa]
        assert l1_misses == sorted(l1_misses, reverse=True)

    def test_hierarchy_composes(self):
        # the paper's multi-level claim: L2 traffic stays pinned near the
        # single-level floor no matter which L1 sits in front of it
        rows = ablation_a8_inclusion()
        for r in rows:
            assert r["inclusion_ratio"] == pytest.approx(1.0, rel=0.15), r["l1"]
