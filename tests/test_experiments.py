"""Smoke + shape tests for the experiment drivers (E1-E11, A1-A5).

Each driver must run, return uniform rows, and exhibit the paper-predicted
shape summarized in the README's experiments table, at sizes small enough
for tier-1.
"""

import pytest

from repro.analysis import experiments as E
from repro.analysis.latency import experiment_e14_latency_tradeoff
from repro.runtime import compiled
from repro.runtime.executor import Executor


def uniform(rows):
    assert rows, "driver returned no rows"
    keys = set(rows[0])
    assert all(set(r) == keys for r in rows)
    return rows


class TestDriversRun:
    def test_e1(self):
        rows = uniform(E.experiment_e1_pipeline_optimality(n_outputs=400))
        for r in rows:
            assert r["measured_misses"] >= r["lb_misses"]
            assert r["ratio_to_lb"] < 150  # bounded constant

    def test_e2(self):
        rows = uniform(E.experiment_e2_miss_model())
        for r in rows:
            assert 0.4 <= r["ratio"] <= 2.5

    def test_e3(self):
        rows = uniform(E.experiment_e3_lower_bound(n_outputs=400))
        for r in rows:
            assert r["measured_over_lb"] >= 1.0
        part_row = min(rows, key=lambda r: r["measured_over_lb"])
        assert "dynamic" in part_row["schedule"]  # partitioned is closest to LB

    def test_e4(self):
        rows = uniform(E.experiment_e4_partition_quality())
        for r in rows:
            if r["dp8_bw"]:
                assert r["greedy_bw"] >= r["dp8_bw"]
        # polynomial scaling sanity: 256-module DP in < 1 second
        assert rows[-1]["dp_ms"] < 1000

    def test_e5(self):
        rows = uniform(E.experiment_e5_dag_optimality())
        for r in rows:
            assert r["heur_bw"] >= r["minBW3"]
            assert r["alpha"] <= 2.0  # heuristic near-optimal on these dags
            assert r["measured"] >= r["lb"]

    def test_e6(self):
        rows = uniform(E.experiment_e6_inhomogeneous())
        for r in rows:
            assert r["improvement"] >= 1.0

    def test_e7(self):
        rows = uniform(E.experiment_e7_vs_baselines())
        big = [r for r in rows if r["state_over_M"] > 1.5]
        assert all(r["win_vs_single_app"] > 4 for r in big), big
        assert all(r["partitioned"] <= r["interleaved"] + 1e-9 for r in rows)

    def test_e8(self):
        rows = uniform(E.experiment_e8_augmentation(n_outputs=400))
        assert rows[0]["misses"] > rows[-1]["misses"]
        assert rows[0]["misses"] > 2 * rows[2]["misses"]  # steep fall
        # plateau: last two within 40%
        assert rows[-2]["misses"] <= 1.4 * rows[-1]["misses"] + 1

    def test_e9(self):
        rows = uniform(E.experiment_e9_block_size(n_outputs=400))
        # doubling B should cut misses substantially (at least 1.5x per step)
        for a, b in zip(rows, rows[1:]):
            assert b["misses"] < a["misses"]
        assert rows[-1]["speedup_vs_B1"] > 8

    def test_e10(self):
        rows = uniform(E.experiment_e10_crossover(n_outputs=300))
        small = [r for r in rows if r["state_over_M"] < 1]
        big = [r for r in rows if r["state_over_M"] >= 3]
        assert all(r["advantage"] <= 1.5 for r in small)
        assert all(r["advantage"] > 10 for r in big)

    def test_e11(self):
        rows = uniform(E.experiment_e11_parallel_scaling())
        assert rows[1]["speedup"] > 1.5  # P=2 gives real speedup
        # parallelism does not inflate misses
        assert all(r["miss_inflation_vs_P1"] < 1.5 for r in rows)
        # saturation: P=8 no better than P=4 on this width-4 dag
        assert rows[3]["speedup"] <= rows[2]["speedup"] * 1.2


class TestAblations:
    def test_a1_gain_min_wins(self):
        rows = uniform(E.ablation_a1_cut_choice(n_outputs=400))
        by_rule = {r["cut_rule"]: r for r in rows}
        paper = by_rule["gain-min (paper)"]
        ablated = by_rule["gain-max (ablated)"]
        assert paper["bandwidth"] < ablated["bandwidth"]
        assert paper["misses"] < ablated["misses"]

    def test_a2_theta_m_buffers(self):
        rows = uniform(E.ablation_a2_cross_buffer_size(n_outputs=400))
        # tiny buffers are much worse than Theta(M)
        assert rows[0]["misses"] > 3 * rows[3]["misses"]

    def test_a3_lru_close_to_opt(self):
        rows = E.ablation_a3_lru_vs_opt(n_outputs=300)
        lru = next(r for r in rows if r["policy"] == "LRU")
        opt = next(r for r in rows if "OPT" in r["policy"])
        assert opt["misses"] <= lru["misses"] <= 3 * opt["misses"]

    def test_a4_degree_limit(self):
        rows = uniform(E.ablation_a4_degree_limits())
        limited = [r for r in rows if r["degree_limited"]]
        unlimited = [r for r in rows if not r["degree_limited"]]
        assert limited, "need at least one degree-limited partitioner"
        if unlimited:
            assert min(r["misses_per_input"] for r in limited) <= min(
                r["misses_per_input"] for r in unlimited
            )

    def test_a5_greedy_never_uniquely_best(self):
        rows = uniform(E.ablation_a5_multilevel())
        for r in rows:
            best = min(r["greedy_bw"], r["dp_bw"], r["ml_bw"])
            assert min(r["dp_bw"], r["ml_bw"]) == best
            assert r["ml_ms"] < 1000


#: every driver that measures one schedule at a time, at a reduced size
#: (E1's heavy-n20 config keeps its 200 outputs at any ``n_outputs``)
REROUTED = [
    (E.experiment_e1_pipeline_optimality, {"n_outputs": 100}),
    (E.experiment_e3_lower_bound, {"n_outputs": 100}),
    (E.experiment_e5_dag_optimality, {}),
    (E.experiment_e6_inhomogeneous, {}),
    (E.experiment_e7_vs_baselines, {"M": 64}),
    (E.experiment_e10_crossover, {"n_outputs": 100}),
    (E.ablation_a1_cut_choice, {"n_outputs": 100}),
    (E.ablation_a2_cross_buffer_size, {"n_outputs": 100}),
    (E.ablation_a4_degree_limits, {}),
    (experiment_e14_latency_tradeoff, {"n_outputs": 100}),
]


@pytest.mark.parametrize(
    "driver, kwargs", REROUTED, ids=[d.__name__ for d, _kw in REROUTED]
)
def test_drivers_measure_what_the_executor_measures(driver, kwargs, monkeypatch):
    """The drivers measure through ``measure_compiled``; stepping the same
    schedules through ``Executor.measure`` gives identical rows."""
    shipped = driver(**kwargs)
    stepped = []

    def stepwise(graph, geometry, schedule, layout_order=None):
        stepped.append(schedule.label)
        return Executor.measure(graph, geometry, schedule, layout_order=layout_order)

    monkeypatch.setattr(E, "measure_compiled", stepwise)
    monkeypatch.setattr(compiled, "measure_compiled", stepwise)
    assert driver(**kwargs) == shipped
    assert stepped
