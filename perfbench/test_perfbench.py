"""Tests of the benchmark itself: the spec's names and mappings, a smoke
run of every workload with its checks on, and failure accounting.

Run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run._import_repro()

from perfbench import tracing, workloads  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_spec_has_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert WORKLOADS == list(workloads.registry(run.OUT))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds) and setup["bound"] == max(bounds)


def test_names_and_units_match_the_pattern():
    names = WORKLOADS + [m["name"] for s in ("end_to_end", "per_layer") for m in SPEC[s]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    units = [m["unit"] for s in ("end_to_end", "per_layer") for m in SPEC[s]]
    assert all(UNIT.fullmatch(u) for u in units)


def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(per_layer) == list(tracing.LAYER_METRICS)
    for name, (unit, moves) in tracing.LAYER_METRICS.items():
        assert per_layer[name] == unit, name
        assert moves and set(moves) <= end_to_end, name
        assert all(on and set(on) <= set(WORKLOADS) for on in moves.values()), name


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_checks_every_answer(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=True, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * run.MIN_JOBS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["check.sim_misses"]["value"] > 0


def test_timed_run_reports_every_end_to_end_metric():
    result = run.run_workload("sweep", seed=1, seconds=0, smoke=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_corrupted_golden_is_a_failure_not_a_crash():
    wl = workloads.registry(run.OUT)["sweep"]
    good = run.run_workload("sweep", seed=0, seconds=0, smoke=True)
    assert good["correct"]
    bad = {"sweep": {"params": wl.params(True), "seeds": {"0": [1, 2, 3]}}}
    result = run.run_workload("sweep", seed=0, seconds=0, smoke=True, goldens=bad)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_recorded_goldens_match_current_parameters():
    goldens = run.load_goldens()
    for name, wl in workloads.registry(run.OUT).items():
        assert goldens[name]["params"] == wl.params(False), name


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(i) for i in range(1, 41)])
    assert pct == 75 and value == 30.0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last)
