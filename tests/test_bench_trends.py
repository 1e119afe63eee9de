"""Schema validation + regression detection of ``check_bench_trends``.

The trend checker is a CI gate: a corrupt ``BENCH_*.json`` must fail with
an error naming the offending key and entry, never an uncaught
``KeyError``/``TypeError`` — and legitimately sparse history (older runs
predating newer metrics) must stay green.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_trends",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_trends.py",
)
cbt = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbt)

PLACEMENT_METRICS = cbt.METRICS_BY_FILE["BENCH_placement.json"]


def _record(*entries):
    return {"history": list(entries)}


def _errors(record, metrics=PLACEMENT_METRICS):
    return cbt.validate_record(record, "BENCH_placement.json", metrics)


class TestValidateRecord:
    def test_well_formed_record_passes(self):
        rec = _record(
            {"ts": 1.0, "score": 20.0, "swap_gain": 5.0},
            {"ts": 2.0, "score": 21.0, "swap_gain": 6.0, "facility_gain": 1.2},
        )
        assert _errors(rec) == []

    def test_older_entries_may_lack_newer_metrics(self):
        # multi_gain/facility_gain post-date the record's first runs
        rec = _record({"ts": 1, "score": 20.0}, {"ts": 2, "score": 21.0,
                                                 "multi_gain": 6.4, "facility_gain": 1.1})
        assert _errors(rec) == []

    def test_non_dict_top_level_named(self):
        (err,) = _errors([1, 2, 3])
        assert "top level must be a JSON object" in err and "list" in err

    def test_missing_history_named(self):
        (err,) = _errors({"machine": "ci"})
        assert "'history' is missing" in err

    def test_non_list_history_named(self):
        (err,) = _errors({"history": {"ts": 1}})
        assert "'history' must be a list" in err and "dict" in err

    def test_non_dict_entry_names_index(self):
        (err,) = _errors(_record({"ts": 1}, "oops"))
        assert "history[1]" in err and "str" in err

    def test_missing_ts_names_entry_and_key(self):
        (err,) = _errors(_record({"ts": 1}, {"score": 2.0}))
        assert "history[1].ts" in err and "missing" in err

    def test_non_numeric_ts_named(self):
        (err,) = _errors(_record({"ts": "2026-08-08"}))
        assert "history[0].ts" in err and "expected a number, got str" in err

    def test_bool_is_not_a_number(self):
        (err,) = _errors(_record({"ts": True}))
        assert "history[0].ts" in err and "bool" in err

    def test_decreasing_timestamps_named(self):
        (err,) = _errors(_record({"ts": 5}, {"ts": 3}))
        assert "history[1].ts" in err and "non-decreasing" in err
        assert "3" in err and "5" in err

    def test_equal_timestamps_allowed(self):
        assert _errors(_record({"ts": 5}, {"ts": 5})) == []

    def test_non_numeric_metric_named(self):
        (err,) = _errors(_record({"ts": 1, "score": "fast"}))
        assert "history[0].score" in err and "got str" in err

    def test_multiple_errors_all_collected(self):
        errs = _errors(_record({"score": "x"}, {"ts": "y"}))
        assert len(errs) == 3  # missing ts, bad score, bad ts
        assert all("history[" in e for e in errs)


class TestCheckIntegration:
    def _write(self, tmp_path, payload, name="BENCH_placement.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def test_corrupt_record_fails_with_named_key(self, tmp_path, capsys):
        p = self._write(tmp_path, _record({"ts": 1, "score": 10.0},
                                          {"ts": 2, "score": None}))
        assert cbt.check(p, tolerance=0.3) == 1
        out = capsys.readouterr().out
        assert "schema error" in out and "history[1].score" in out

    def test_time_travel_fails_before_comparison(self, tmp_path, capsys):
        p = self._write(tmp_path, _record({"ts": 9, "score": 10.0},
                                          {"ts": 1, "score": 10.0}))
        assert cbt.check(p, tolerance=0.3) == 1
        assert "non-decreasing" in capsys.readouterr().out

    def test_valid_record_still_detects_regression(self, tmp_path, capsys):
        p = self._write(tmp_path, _record({"ts": 1, "score": 10.0},
                                          {"ts": 2, "score": 2.0}))
        assert cbt.check(p, tolerance=0.3) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_valid_record_within_tolerance_passes(self, tmp_path, capsys):
        p = self._write(tmp_path, _record({"ts": 1, "score": 10.0},
                                          {"ts": 2, "score": 9.0}))
        assert cbt.check(p, tolerance=0.3) == 0
        assert "ok" in capsys.readouterr().out

    def test_single_entry_seeds_baseline(self, tmp_path, capsys):
        p = self._write(tmp_path, _record({"ts": 1, "score": 10.0}))
        assert cbt.check(p, tolerance=0.3) == 0
        assert "need two runs" in capsys.readouterr().out

    def test_unknown_record_gets_generic_numeric_tracking(self, tmp_path):
        p = self._write(tmp_path, _record({"ts": 1, "foo": 10.0},
                                          {"ts": 2, "foo": 1.0}),
                        name="BENCH_custom.json")
        assert cbt.check(p, tolerance=0.3) == 1

    def test_live_records_validate(self):
        root = Path(__file__).resolve().parent.parent
        for name, metrics in cbt.METRICS_BY_FILE.items():
            path = root / name
            if not path.exists():
                continue
            record = json.loads(path.read_text())
            assert cbt.validate_record(record, name, metrics) == []


class TestWarmCacheFloor:
    """The absolute floor on BENCH_trace_engine.json: the trace cache's
    ``warm_speedup`` is >= 5x from the first run, and stays out of the
    relative trend gate (its cold side is one compile timed once)."""

    def _write(self, tmp_path, *entries):
        p = tmp_path / "BENCH_trace_engine.json"
        p.write_text(json.dumps({"history": list(entries)}))
        return p

    def test_warm_floor_holds_from_first_run(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "warm_speedup": 2.0})
        assert cbt.check(p, tolerance=0.3) == 1
        assert "BELOW FLOOR" in capsys.readouterr().out

    def test_warm_floor_passes_when_met(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "warm_speedup": 7.0})
        assert cbt.check(p, tolerance=0.3) == 0
        assert "absolute floor 5.00x" in capsys.readouterr().out

    def test_floors_also_apply_with_full_history(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {"ts": 1, "sweep": 8.0, "warm_speedup": 6.0},
            {"ts": 2, "sweep": 8.1, "warm_speedup": 4.5},
        )
        # every relative trend is fine, but 4.5x is below the 5x floor
        assert cbt.check(p, tolerance=0.3) == 1
        assert "BELOW FLOOR" in capsys.readouterr().out

    def test_falling_speedup_above_the_floor_is_not_a_regression(
        self, tmp_path, capsys
    ):
        p = self._write(
            tmp_path,
            {"ts": 1, "sweep": 8.0, "warm_speedup": 20.0},
            {"ts": 2, "sweep": 8.1, "warm_speedup": 6.0},
        )
        assert cbt.check(p, tolerance=0.3) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_non_numeric_warm_speedup_is_a_schema_error(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "warm_speedup": "fast"})
        assert cbt.check(p, tolerance=0.3) == 1
        assert "history[0].warm_speedup" in capsys.readouterr().out

    def test_live_trace_engine_record_passes_floors(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_trace_engine.json"
        if not path.exists():
            pytest.skip("no live trace-engine record")
        history = json.loads(path.read_text())["history"]
        assert cbt.check_floors("BENCH_trace_engine.json", history) == []


class TestTraceEngineCeilings:
    """Absolute ceilings on BENCH_trace_engine.json: ``obs_overhead`` is a
    lower-is-better ratio, gated at <= 1.02x from the first run and
    deliberately excluded from the relative trend comparison (a falling
    ratio is an improvement, never a regression)."""

    def _write(self, tmp_path, *entries):
        p = tmp_path / "BENCH_trace_engine.json"
        p.write_text(json.dumps({"history": list(entries)}))
        return p

    def test_ceiling_holds_from_first_run(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "obs_overhead": 1.5})
        assert cbt.check(p, tolerance=0.3) == 1
        assert "ABOVE CEILING" in capsys.readouterr().out

    def test_ceiling_passes_when_met(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "obs_overhead": 0.99})
        assert cbt.check(p, tolerance=0.3) == 0
        assert "absolute ceiling 1.02x" in capsys.readouterr().out

    def test_entries_predating_the_metric_pass(self, tmp_path):
        p = self._write(tmp_path, {"ts": 1, "sweep": 8.0})
        assert cbt.check(p, tolerance=0.3) == 0

    def test_ceiling_also_applies_with_full_history(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {"ts": 1, "sweep": 8.0, "obs_overhead": 1.00},
            {"ts": 2, "sweep": 8.1, "obs_overhead": 1.10},
        )
        # every relative trend is fine, but 1.10x breaches the ceiling
        assert cbt.check(p, tolerance=0.3) == 1
        assert "ABOVE CEILING" in capsys.readouterr().out

    def test_falling_ratio_is_not_a_regression(self, tmp_path, capsys):
        # a >30% drop would trip the relative gate if obs_overhead were a
        # tracked metric; as a ceiling metric it is simply a better run
        p = self._write(
            tmp_path,
            {"ts": 1, "sweep": 8.0, "obs_overhead": 1.01},
            {"ts": 2, "sweep": 8.1, "obs_overhead": 0.50},
        )
        assert cbt.check(p, tolerance=0.3) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_non_numeric_obs_overhead_is_a_schema_error(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "obs_overhead": "cheap"})
        assert cbt.check(p, tolerance=0.3) == 1
        assert "history[0].obs_overhead" in capsys.readouterr().out

    def test_live_trace_engine_record_passes_ceilings(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_trace_engine.json"
        if not path.exists():
            pytest.skip("no live trace-engine record")
        history = json.loads(path.read_text())["history"]
        assert cbt.check_ceilings("BENCH_trace_engine.json", history) == []


class TestPlacementFacilityMetrics:
    """A12's bench metrics: ``facility_gain`` rides the relative trend
    gate like the other placement gains; ``minimax_worst`` is
    lower-is-better and held to the <= 1.0 never-worse ceiling."""

    def _write(self, tmp_path, *entries):
        p = tmp_path / "BENCH_placement.json"
        p.write_text(json.dumps({"history": list(entries)}))
        return p

    def test_facility_gain_is_trend_tracked(self, tmp_path, capsys):
        p = self._write(
            tmp_path,
            {"ts": 1, "facility_gain": 1.10},
            {"ts": 2, "facility_gain": 0.60},
        )
        assert cbt.check(p, tolerance=0.3) == 1
        out = capsys.readouterr().out
        assert "facility_gain" in out and "REGRESSED" in out

    def test_minimax_worst_ceiling_holds_from_first_run(self, tmp_path, capsys):
        p = self._write(tmp_path, {"ts": 1, "minimax_worst": 1.2})
        assert cbt.check(p, tolerance=0.3) == 1
        assert "ABOVE CEILING" in capsys.readouterr().out

    def test_minimax_worst_drop_is_an_improvement(self, tmp_path, capsys):
        # worst-target ratio falling 0.9 -> 0.5 must not trip the trend gate
        p = self._write(
            tmp_path,
            {"ts": 1, "facility_gain": 1.05, "minimax_worst": 0.9},
            {"ts": 2, "facility_gain": 1.06, "minimax_worst": 0.5},
        )
        assert cbt.check(p, tolerance=0.3) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_entries_predating_the_metrics_pass(self, tmp_path):
        p = self._write(
            tmp_path,
            {"ts": 1, "swap_gain": 6.0},
            {"ts": 2, "swap_gain": 6.1},
        )
        assert cbt.check(p, tolerance=0.3) == 0
