"""Acceptance tests for :mod:`repro.obs` — the instrumentation layer.

The load-bearing contracts pinned here:

* **Disabled means invisible** — emitters record nothing, ``span``
  returns a shared no-op, and instrumented results are bit-identical
  with instrumentation on or off.
* **Registry semantics** — counters sum, gauges last-write, histograms
  keep count/total/min/max, series append under a hard cap, and
  :meth:`MetricsRegistry.merge` folds a worker snapshot in so that
  chunked + merged equals serial.
* **Cross-process aggregation** — the *work counters* (compile, cache,
  replay, batch, placement) merged back from a process pool equal the
  serial run's counters for identical work.  Execution counters
  (``backend.tasks``, ``backend.width``) are backend-dependent by
  design and excluded from the equality.
* **Run manifests** — ``capture_run`` writes a manifest + event log
  with a stable run id, and ``repro obs-report`` renders it.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry, SERIES_CAP
from repro.obs import names as obs_names
from repro.obs.core import _NULL_SPAN, _span_key
from repro.obs.manifest import capture_run, config_digest, git_describe
from repro.obs.report import render_manifest


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends disabled with an empty global registry."""
    obs.disable()
    obs.reset()
    obs.set_event_sink(None)
    yield
    obs.disable()
    obs.reset()
    obs.set_event_sink(None)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_sum(self):
        r = MetricsRegistry()
        r.add("c")
        r.add("c", 4)
        assert r.counter_value("c") == 5
        assert r.counter_value("missing") == 0

    def test_gauge_last_write_wins(self):
        r = MetricsRegistry()
        r.gauge("g", 1.0)
        r.gauge("g", 7.0)
        assert r.snapshot()["gauges"] == {"g": 7.0}

    def test_histogram_stats(self):
        r = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            r.observe("h", v)
        h = r.snapshot()["histograms"]["h"]
        assert h == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}

    def test_series_order_and_cap(self):
        r = MetricsRegistry()
        for i in range(SERIES_CAP + 10):
            r.series("s", float(i))
        points = r.snapshot()["series"]["s"]
        assert len(points) == SERIES_CAP
        assert points[:3] == [0.0, 1.0, 2.0]  # head kept, tail dropped

    def test_span_aggregation(self):
        r = MetricsRegistry()
        r.record_span("k", 0.5, 0.25)
        r.record_span("k", 0.5, 0.25)
        assert r.snapshot()["spans"]["k"] == {
            "count": 2, "wall_s": 1.0, "cpu_s": 0.5,
        }

    def test_snapshot_is_detached(self):
        r = MetricsRegistry()
        r.add("c")
        snap = r.snapshot()
        snap["counters"]["c"] = 99
        assert r.counter_value("c") == 1

    def test_merge_equals_serial(self):
        """Chunked recording + merge reproduces one serial registry."""
        serial = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        for i, w in enumerate(workers):
            for r in (serial, w):
                r.add("c", i + 1)
                r.observe("h", float(i))
                r.series("s", float(i))
                r.record_span("k", 0.125, 0.0625)
                r.gauge("g", float(i))
        merged = MetricsRegistry()
        for w in workers:
            merged.merge(w.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_merge_respects_series_cap(self):
        donor = MetricsRegistry()
        for i in range(SERIES_CAP):
            donor.series("s", float(i))
        dest = MetricsRegistry()
        dest.series("s", -1.0)
        dest.merge(donor.snapshot())
        assert len(dest.snapshot()["series"]["s"]) == SERIES_CAP

    def test_reset(self):
        r = MetricsRegistry()
        r.add("c")
        r.gauge("g", 1.0)
        r.reset()
        assert r.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
            "series": {}, "spans": {},
        }

    def test_thread_safety_exact_totals(self):
        r = MetricsRegistry()

        def worker():
            for _ in range(1000):
                r.add("c")
                r.observe("h", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert r.counter_value("c") == 8000
        assert r.snapshot()["histograms"]["h"]["count"] == 8000


# ---------------------------------------------------------------------------
# core: switch, spans, capture
# ---------------------------------------------------------------------------
class TestCoreSwitchAndSpans:
    def test_disabled_emitters_record_nothing(self):
        obs.add(obs_names.CACHE_HITS, 5)
        obs.gauge(obs_names.BACKEND_WIDTH, 4)
        obs.observe(obs_names.COMPILE_ACCESSES, 1.0)
        obs.series(obs_names.PLACEMENT_COST, 1.0)
        snap = obs.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["histograms"] == {} and snap["series"] == {}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span(obs_names.REPLAY, policy="lru") is _NULL_SPAN
        assert obs.span(obs_names.COMPILE) is _NULL_SPAN

    def test_enable_disable_return_previous(self):
        assert obs.enable() is False
        assert obs.is_enabled()
        assert obs.enable() is True
        assert obs.disable() is True
        assert obs.disable() is False

    def test_span_key_flattens_sorted_attrs(self):
        assert _span_key("replay", {}) == "replay"
        assert _span_key("replay", {"policy": "lru"}) == "replay[policy=lru]"
        assert (
            _span_key("backend.map", {"b": 1, "a": 2}) == "backend.map[a=2,b=1]"
        )

    def test_enabled_span_records_under_key(self):
        obs.enable()
        with obs.span(obs_names.REPLAY, policy="lru"):
            pass
        spans = obs.snapshot()["spans"]
        assert spans["replay[policy=lru]"]["count"] == 1
        assert spans["replay[policy=lru]"]["wall_s"] >= 0.0

    def test_nested_spans_record_separately(self):
        obs.enable()
        with obs.span(obs_names.BATCH):
            with obs.span(obs_names.COMPILE):
                pass
        spans = obs.snapshot()["spans"]
        assert spans[obs_names.BATCH]["count"] == 1
        assert spans[obs_names.COMPILE]["count"] == 1

    def test_capture_isolates_and_restores(self):
        obs.enable()
        obs.add(obs_names.CACHE_HITS, 1)
        with obs.capture() as cap:
            obs.add(obs_names.CACHE_HITS, 10)
        # the scope's delta lands only in the snapshot...
        assert cap.snapshot["counters"] == {obs_names.CACHE_HITS: 10}
        # ...and the outer registry is untouched
        assert obs.snapshot()["counters"] == {obs_names.CACHE_HITS: 1}

    def test_capture_forces_enabled_then_restores(self):
        assert not obs.is_enabled()
        with obs.capture(enabled=True) as cap:
            assert obs.is_enabled()
            obs.add(obs_names.CACHE_MISSES, 2)
        assert not obs.is_enabled()
        assert cap.snapshot["counters"] == {obs_names.CACHE_MISSES: 2}

    def test_capture_snapshot_is_json_able(self):
        with obs.capture(enabled=True) as cap:
            obs.add(obs_names.CACHE_HITS)
            with obs.span(obs_names.COMPILE):
                pass
        json.dumps(cap.snapshot)  # plain dicts/lists/numbers only

    def test_merge_noop_while_disabled(self):
        worker = MetricsRegistry()
        worker.add(obs_names.CACHE_HITS, 3)
        obs.merge(worker.snapshot())
        assert obs.snapshot()["counters"] == {}
        obs.enable()
        obs.merge(worker.snapshot())
        assert obs.snapshot()["counters"] == {obs_names.CACHE_HITS: 3}

    def test_event_sink_sees_span_events(self):
        events = []
        previous = obs.set_event_sink(lambda kind, p: events.append((kind, p)))
        assert previous is None
        obs.enable()
        with obs.span(obs_names.COMPILE):
            pass
        assert obs.set_event_sink(None) is not None
        (event,) = events
        assert event[0] == "span" and event[1]["name"] == obs_names.COMPILE


# ---------------------------------------------------------------------------
# names registry
# ---------------------------------------------------------------------------
class TestNames:
    def test_registered_names_unique_and_upper(self):
        names = obs_names.registered_names()
        assert all(k.isupper() for k in names)
        values = list(names.values())
        assert len(values) == len(set(values)), "duplicate metric name"

    def test_vocabulary_covers_instrumented_subsystems(self):
        values = set(obs_names.registered_names().values())
        for expected in (
            "compile", "trace_cache.hits", "replay.misses",
            "run_batch.queries", "backend.tasks", "placement.cost", "run",
        ):
            assert expected in values


# ---------------------------------------------------------------------------
# run manifests + obs-report
# ---------------------------------------------------------------------------
class TestManifest:
    def test_config_digest_canonical(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_git_describe_fallback(self, tmp_path):
        assert git_describe(tmp_path) == "unknown"

    def test_capture_run_writes_manifest_and_events(self, tmp_path):
        out = tmp_path / "m.json"
        with capture_run("schedule", {"graph": "fm_radio"}, out) as run:
            obs.add(obs_names.COMPILE_CALLS)
            with obs.span(obs_names.COMPILE):
                pass
        manifest = json.loads(out.read_text())
        assert manifest["run_id"] == run.run_id
        assert manifest["ok"] is True
        assert manifest["metrics"]["counters"][obs_names.COMPILE_CALLS] == 1
        assert obs_names.RUN in manifest["metrics"]["spans"]
        events = [
            json.loads(line)
            for line in (tmp_path / "m.events.jsonl").read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert any(
            e["event"] == "span" and e["name"] == obs_names.COMPILE
            for e in events
        )

    def test_run_id_stable_for_same_config(self, tmp_path):
        ids = []
        for name in ("a.json", "b.json"):
            with capture_run("schedule", {"graph": "x"}, tmp_path / name) as r:
                pass
            ids.append(r.run_id)
        assert ids[0] == ids[1]
        with capture_run("schedule", {"graph": "y"}, tmp_path / "c.json") as r:
            pass
        assert r.run_id != ids[0]

    def test_failed_run_still_writes_manifest(self, tmp_path):
        out = tmp_path / "m.json"
        with pytest.raises(RuntimeError):
            with capture_run("experiment", {}, out):
                raise RuntimeError("boom")
        manifest = json.loads(out.read_text())
        assert manifest["ok"] is False

    def test_capture_run_leaves_global_state_alone(self, tmp_path):
        with capture_run("schedule", {}, tmp_path / "m.json"):
            assert obs.is_enabled()
        assert not obs.is_enabled()
        assert obs.snapshot()["counters"] == {}

    def test_render_manifest_sections(self, tmp_path):
        out = tmp_path / "m.json"
        with capture_run("schedule", {"graph": "x"}, out) as run:
            obs.add(obs_names.REPLAY_MISSES, 42)
            obs.gauge(obs_names.BACKEND_WIDTH, 4)
            obs.observe(obs_names.COMPILE_ACCESSES, 2.0)
            obs.series(obs_names.PLACEMENT_COST, 9.0)
        text = render_manifest(json.loads(out.read_text()))
        assert run.run_id in text
        assert obs_names.RUN in text
        assert "replay.misses" in text and "42" in text
        assert "gauges" in text and "histograms" in text and "series" in text

    def test_obs_report_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.json"
        with capture_run("schedule", {"graph": "x"}, out):
            obs.add(obs_names.COMPILE_CALLS)
        assert main(["obs-report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "compile.calls" in printed and "run " in printed

    def test_obs_report_cli_missing_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read"):
            main(["obs-report", str(tmp_path / "nope.json")])

    def test_obs_report_cli_corrupt_file(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["obs-report", str(bad)])

    def test_cli_metrics_out_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        rc = main([
            "schedule", "fm_radio", "--cache", "256", "--inputs", "64",
            "--metrics-out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        manifest = json.loads(out.read_text())
        assert manifest["command"] == "schedule"
        assert manifest["config"]["graph"] == "fm_radio"
        counters = manifest["metrics"]["counters"]
        assert counters[obs_names.COMPILE_CALLS] == 1
        assert counters[obs_names.REPLAY_MISSES] > 0
        assert (tmp_path / "run.events.jsonl").exists()
        # instrumentation is scoped to the run: the global switch is off
        assert not obs.is_enabled()


# ---------------------------------------------------------------------------
# cross-backend aggregation + bit-identity
# ---------------------------------------------------------------------------
#: Counters whose totals depend only on the *work* performed, not on how
#: it was chunked across a backend — merged process totals must equal the
#: serial totals for these.  ``backend.tasks`` / ``backend.width`` count
#: scheduling decisions and legitimately differ between backends.
WORK_COUNTERS = frozenset({
    obs_names.COMPILE_CALLS,
    obs_names.COMPILE_ACCESSES,
    obs_names.CACHE_HITS,
    obs_names.CACHE_MISSES,
    obs_names.CACHE_EVICTIONS,
    obs_names.CACHE_CORRUPT,
    obs_names.REPLAY_GEOMETRIES,
    obs_names.REPLAY_MISSES,
    obs_names.BATCH_QUERIES,
    obs_names.BATCH_DEDUPED,
    obs_names.BATCH_GROUPS,
    obs_names.PLACEMENT_EVALS,
    obs_names.PLACEMENT_ROUNDS,
})


def _work_counters(snap):
    return {
        name: value
        for name, value in snap["counters"].items()
        if name in WORK_COUNTERS
    }


@pytest.fixture(scope="module")
def workload():
    from repro.core.baselines import interleaved_schedule
    from repro.graphs.apps import fm_radio
    from repro.runtime.compiled import compile_trace

    g = fm_radio()
    sched = interleaved_schedule(g, n_iterations=2)
    trace = compile_trace(g, sched, 8)
    return g, sched, trace


class TestCrossBackendAggregation:
    def _sweep(self, trace, backend):
        from repro.runtime.backend import geometry_sweep
        from repro.runtime.compiled import simulate_trace

        geoms = geometry_sweep([64, 128, 256, 512], 8)
        with obs.capture(enabled=True) as cap:
            results = simulate_trace(
                trace, geoms, policy="lru", backend=backend, workers=2
            )
        return results, cap.snapshot

    def test_process_sweep_counters_match_serial(self, workload):
        _g, _sched, trace = workload
        serial_results, serial_snap = self._sweep(trace, "serial")
        proc_results, proc_snap = self._sweep(trace, "process")
        assert [r.misses for r in serial_results] == [
            r.misses for r in proc_results
        ]
        serial_work = _work_counters(serial_snap)
        assert serial_work[obs_names.REPLAY_GEOMETRIES] == 4
        assert serial_work[obs_names.REPLAY_MISSES] == sum(
            r.misses for r in serial_results
        )
        assert _work_counters(proc_snap) == serial_work

    def test_process_batch_counters_match_serial(self, workload):
        from repro.runtime.backend import ServiceQuery, geometry_sweep, run_batch

        g, sched, _trace = workload
        geoms = geometry_sweep([64, 128, 256], 8)
        queries = [
            ServiceQuery(g, sched, 8, geoms, policy="lru") for _ in range(3)
        ]
        snaps = {}
        answers = {}
        for backend in ("serial", "process"):
            with obs.capture(enabled=True) as cap:
                answers[backend] = run_batch(
                    queries, backend=backend, workers=2
                )
            snaps[backend] = cap.snapshot
        assert [r.misses for r in answers["serial"][0].results] == [
            r.misses for r in answers["process"][0].results
        ]
        serial_work = _work_counters(snaps["serial"])
        assert serial_work[obs_names.BATCH_QUERIES] == 3
        assert serial_work[obs_names.BATCH_DEDUPED] == 2
        assert serial_work[obs_names.BATCH_GROUPS] == 1
        assert serial_work[obs_names.COMPILE_CALLS] == 1
        assert _work_counters(snaps["process"]) == serial_work

    def test_chunked_process_sweep_counts_like_serial(self, tmp_path):
        """Each geometry counts once per call and each chunk once per
        replay, whether the chunks replay in process or on a pool."""
        from repro.cache.base import CacheGeometry
        from repro.core.baselines import single_appearance_schedule
        from repro.graphs.topologies import pipeline
        from repro.runtime.compiled import simulate_trace
        from repro.runtime.streaming import compile_trace_chunked
        from repro.runtime.trace_cache import TraceCache

        g = pipeline([12, 20, 6, 28, 10])
        sched = single_appearance_schedule(g, n_iterations=12)
        cache = TraceCache(tmp_path / "seg", max_bytes=1 << 30)
        trace = compile_trace_chunked(g, sched, 8, chunk_words=157, cache=cache)
        assert trace.n_chunks == 2
        geoms = [
            CacheGeometry(size=64, block=8, ways=1),
            CacheGeometry(size=128, block=8, ways=2),
        ]
        snaps = {}
        for backend in ("serial", "process"):
            with obs.capture(enabled=True) as cap:
                simulate_trace(trace, geoms, policy="lru", backend=backend, workers=2)
            snaps[backend] = cap.snapshot
            counters = snaps[backend]["counters"]
            assert counters[obs_names.REPLAY_GEOMETRIES] == 2
            assert counters[obs_names.STREAM_CHUNKS] == 2
        assert _work_counters(snaps["process"]) == _work_counters(snaps["serial"])

    def test_period_shortcut_counts_each_geometry_once(self):
        """A looped trace answered from its head and tail slices counts the
        geometry once, as its flat expansion does."""
        from repro.cache.base import CacheGeometry
        from repro.graphs.minbuf import min_buffers
        from repro.graphs.repetition import repetition_vector
        from repro.graphs.topologies import pipeline
        from repro.runtime.compiled import compile_trace, simulate_trace
        from repro.runtime.deadlock import demand_driven_schedule
        from repro.runtime.looped import Loop, LoopedSchedule

        g = pipeline([24, 16, 32, 8, 40, 16])
        caps = min_buffers(g)
        body = demand_driven_schedule(g, repetition_vector(g), caps)
        looped = LoopedSchedule(loops=(Loop(64, tuple(body)),), capacities=caps)
        geoms = [CacheGeometry(size=16 * 8, block=8)]
        answers, snaps = {}, {}
        for label, sched in (("looped", looped), ("flat", looped.to_flat())):
            trace = compile_trace(g, sched, 8)
            with obs.capture(enabled=True) as cap:
                answers[label] = simulate_trace(trace, geoms, policy="lru")
            snaps[label] = cap.snapshot["counters"]
        assert answers["looped"] == answers["flat"]
        assert snaps["looped"][obs_names.REPLAY_PERIOD_GEOMETRIES] == 1
        assert snaps["looped"][obs_names.REPLAY_GEOMETRIES] == 1
        assert snaps["flat"][obs_names.REPLAY_GEOMETRIES] == 1

    def test_span_keys_are_backend_comparable(self, workload):
        """Chunking changes span *counts*, never span *keys*."""
        _g, _sched, trace = workload
        _, serial_snap = self._sweep(trace, "serial")
        _, proc_snap = self._sweep(trace, "process")
        assert "replay[policy=lru]" in serial_snap["spans"]
        assert "replay[policy=lru]" in proc_snap["spans"]

    def test_results_bit_identical_obs_on_off(self, workload):
        from repro.runtime.backend import geometry_sweep
        from repro.runtime.compiled import simulate_trace

        _g, _sched, trace = workload
        geoms = geometry_sweep([64, 128, 256, 512], 8)
        for backend in ("serial", "process"):
            plain = simulate_trace(
                trace, geoms, policy="lru", backend=backend, workers=2
            )
            with obs.capture(enabled=True):
                instrumented = simulate_trace(
                    trace, geoms, policy="lru", backend=backend, workers=2
                )
            assert [r.misses for r in plain] == [
                r.misses for r in instrumented
            ]
            assert [r.phase_misses for r in plain] == [
                r.phase_misses for r in instrumented
            ]

    def test_placement_metrics_recorded(self):
        from repro.cache.base import CacheGeometry
        from repro.core.baselines import interleaved_schedule
        from repro.graphs.apps import fm_radio
        from repro.mem.placement import build_instance, swap_refine

        g = fm_radio()
        sched = interleaved_schedule(g, n_iterations=1)
        instance = build_instance(g, sched, 8)
        geom = CacheGeometry(size=16 * 8, block=8)
        with obs.capture(enabled=True) as cap:
            _order, _gaps, cost, stats = swap_refine(
                instance, list(instance.objects), geom, budget=20
            )
        counters = cap.snapshot["counters"]
        assert counters[obs_names.PLACEMENT_EVALS] == stats.evals
        assert counters[obs_names.PLACEMENT_ROUNDS] == stats.rounds
        trajectory = cap.snapshot["series"][obs_names.PLACEMENT_COST]
        assert trajectory == list(stats.trajectory)
        assert trajectory[-1] == cost
