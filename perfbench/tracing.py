"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer (the repo's
modules) for the duration of a ``with tracer.installed():`` block.  It
rebinds the function in every loaded ``repro``/``perfbench`` module that
holds it, and the method on its class, so calls between modules are seen
too.  Each call becomes a span: layer, group, start, end, parent and
counts, kept in memory.  Nothing inside ``src/`` changes.

:func:`layer_metrics` turns the spans into the per-layer metrics of
``BENCHMARK.json``.  Times are per set-up plus per job: a span under the
set-up root counts once per set-up, a span under a job root once per job.
A group's time counts only its outermost spans, so a builder that calls
another builder is not counted twice.  A layer's *self* time is its
spans' time minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, group, "module:attr" or "module:Class.attr") of every wrapped call
WRAPPED: List[Tuple[str, str, str]] = [
    *(("graphs", "build", f"repro.graphs.apps:{f}") for f in ("fm_radio", "des_rounds")),
    *(("graphs", "build", f"repro.graphs.topologies:{f}") for f in (
        "pipeline", "random_pipeline", "diamond", "split_join_tree", "butterfly")),
    *(("core", "partition", f"repro.core.dagpart:{f}") for f in (
        "interval_dp_partition", "refine_partition", "exact_min_bandwidth_partition")),
    *(("core", "partition", f"repro.core.pipeline:{f}") for f in (
        "optimal_pipeline_partition", "theorem5_partition")),
    ("core", "plan", "repro.core.tuning:choose_batch"),
    *(("core", "schedule", f"repro.core.partition_sched:{f}") for f in (
        "inhomogeneous_partition_schedule", "homogeneous_partition_schedule",
        "pipeline_dynamic_schedule")),
    *(("core", "schedule", f"repro.core.baselines:{f}") for f in (
        "single_appearance_schedule", "interleaved_schedule",
        "sermulins_scaled_schedule", "kohli_greedy_schedule")),
    *(("core", "lower_bound", f"repro.core.lower_bound:{f}") for f in (
        "pipeline_lower_bound", "dag_lower_bound")),
    ("compiled", "compile", "repro.runtime.compiled:TraceCompiler.compile"),
    ("replay", "simulate", "repro.runtime.compiled:simulate_trace"),
    ("replay", "eval_kernel", "repro.runtime.replay:replay_misses"),
    ("executor", "measure", "repro.runtime.executor:Executor.measure"),
    ("streaming", "compile", "repro.runtime.streaming:compile_trace_chunked"),
    ("trace_cache", "get", "repro.runtime.trace_cache:TraceCache.get"),
    ("trace_cache", "put", "repro.runtime.trace_cache:TraceCache.put"),
    ("placement", "instance", "repro.mem.placement:build_instance"),
    ("placement", "search", "repro.mem.facility:multiswap_refine"),
    *(("analysis", name, f"repro.analysis.experiments:{fn}") for name, fn in (
        ("e1", "experiment_e1_pipeline_optimality"),
        ("e3", "experiment_e3_lower_bound"),
        ("e5", "experiment_e5_dag_optimality"),
    )),
]

#: layers with a self-time metric, in report order; ``bench`` is the
#: benchmark's own glue between layer calls
LAYERS = ("bench", "graphs", "core", "compiled", "replay", "executor",
          "streaming", "trace_cache", "placement", "analysis")

REPLAY_KINDS = ("lru", "lru_sa", "direct", "opt", "two_level")

ALL = ("sweep", "place", "paper", "stream")
_SETUP = {"setup_s": ("sweep", "place", "stream"), "job_ms": ("paper",)}
_SWEEP_JOB = {"job_ms": ("sweep",)}
_SWEEP_RATE = {"sim_accesses_per_s": ("sweep",)}

#: per-layer metric -> (unit, {end-to-end metric it should move: workloads})
LAYER_METRICS: Dict[str, Tuple[str, Dict[str, Tuple[str, ...]]]] = {
    "graphs.build_ms": ("ms", _SETUP),
    "core.partition_ms": ("ms", _SETUP),
    "core.schedule_ms": ("ms", _SETUP),
    "core.schedule_firings_per_s": ("firings/s", _SETUP),
    "core.lower_bound_ms": ("ms", {"job_ms": ("paper",)}),
    "compiled.compile_ms": ("ms", {"job_ms": ("sweep",), "setup_s": ("place",)}),
    "compiled.compile_accesses_per_s": ("accesses/s", {**_SWEEP_RATE, "setup_s": ("place",)}),
    **{
        f"replay.{k}_{m}": (u, moves)
        for k in REPLAY_KINDS
        for m, u, moves in (("ms", "ms", _SWEEP_JOB), ("accesses_per_s", "accesses/s", _SWEEP_RATE))
    },
    "executor.calls": ("count", {"job_ms": ("paper",)}),
    "executor.measure_ms": ("ms", {"job_ms": ("paper",)}),
    "executor.accesses_per_s": ("accesses/s", {"job_ms": ("paper",)}),
    "streaming.compile_cold_ms": ("ms", {"job_ms": ("stream",)}),
    "streaming.compile_warm_ms": ("ms", {"job_ms": ("stream",)}),
    "streaming.replay_ms": ("ms", {"job_ms": ("stream",)}),
    "trace_cache.spilled_mb": ("MB", {"peak_rss_mb": ("stream",)}),
    "trace_cache.warm_hit_ratio": ("ratio", {"job_ms": ("stream",)}),
    "placement.evals": ("count", {"sim_accesses_per_s": ("place",)}),
    "placement.eval_ms": ("ms", {"job_ms": ("place",)}),
    "placement.evals_per_s": ("1/s", {"sim_accesses_per_s": ("place",)}),
    "placement.accept_ratio": ("ratio", {"job_ms": ("place",)}),
    "analysis.e1_ms": ("ms", {"job_ms": ("paper",)}),
    "analysis.e3_ms": ("ms", {"job_ms": ("paper",)}),
    "analysis.e5_ms": ("ms", {"job_ms": ("paper",)}),
    **{f"self.{layer}_ms": ("ms", {"job_ms": ALL}) for layer in LAYERS},
    "check.sim_misses": ("count", {"job_ms": ("place",)}),
    "trace_overhead": ("ratio", {"job_ms": ALL}),
    "host.job_wall_ms": ("ms", {"job_ms": ALL}),
    "host.speed_factor": ("ratio", {"job_ms": ALL}),
}


def _replay_kind(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    """``simulate_trace`` call -> replay metric kind (``lru`` is fully
    associative, ``lru_sa`` set-associative)."""
    from repro.runtime.streaming import ChunkedTrace

    trace, geoms = args[0], list(args[1] if len(args) > 1 else kwargs["geometries"])
    policy = kwargs.get("policy", args[2] if len(args) > 2 else "lru")
    if isinstance(trace, ChunkedTrace):
        return "chunked"
    if policy == "lru" and not all(g.is_fully_associative for g in geoms):
        return "lru_sa"
    return str(policy)


def _counts(group: str, res: Any) -> Dict[str, float]:
    """Work counts of one call, from its result."""
    if group in ("compile", "measure"):
        return {"accesses": res.accesses}
    if group == "schedule":
        return {"firings": len(res)}
    if group == "simulate":
        return {"accesses": sum(r.accesses for r in res)}
    if group == "search":
        return {"evals": res[3].evals, "rounds": res[3].rounds}
    return {}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [layer, group, start, end, parent index, counts]
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, layer: str, group: str) -> Iterator[Dict[str, float]]:
        counts: Dict[str, float] = {}
        rec = [layer, group, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, counts]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def _wrap(self, layer: str, group: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            g = group
            if group == "simulate":
                g = _replay_kind(args, kwargs)
            lay = "streaming" if g == "chunked" else layer
            with tracer.span(lay, "replay" if g == "chunked" else g) as counts:
                res = fn(*args, **kwargs)
                counts.update(_counts(group, res))
            return res

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every :data:`WRAPPED` callable to its traced twin; undo
        on exit."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for layer, group, target in WRAPPED:
                mod_name, attr = target.split(":")
                owner: Any = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    raw = owner.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    traced: Any = self._wrap(layer, group, fn)
                    if isinstance(raw, staticmethod):
                        traced = staticmethod(traced)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, traced)
                    continue
                fn = getattr(owner, attr)
                traced = self._wrap(layer, group, fn)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if not name.startswith(("repro", "perfbench")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, traced)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def executor_accesses(fn: Callable[[], Any]) -> int:
    """Accesses the stepwise executor answered while ``fn`` ran."""
    tracer = Tracer()
    with tracer.installed():
        fn()
    return int(sum(s[5].get("accesses", 0) for s in tracer.spans if s[0] == "executor"))


def _roots(spans: List[List[Any]]) -> List[int]:
    """Index of each span's root span."""
    root: List[int] = []
    for i, s in enumerate(spans):
        root.append(i if s[4] < 0 else root[s[4]])
    return root


def layer_metrics(
    spans: List[List[Any]], job_counts: List[Dict[str, float]]
) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced run (roots are
    ``bench/setup`` and ``bench/job`` spans) and the jobs' own counts."""
    root = _roots(spans)
    n = {"setup": 0, "job": 0}
    for i, s in enumerate(spans):
        if s[4] < 0:
            n[s[1]] += 1
    phase = [spans[r][1] for r in root]
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)

    def dur(i: int) -> float:
        return spans[i][3] - spans[i][2]

    def has_put(i: int) -> bool:
        return any(spans[c][1] == "put" or has_put(c) for c in children[i])

    def key(i: int) -> Tuple[str, str]:
        layer, group = spans[i][0], spans[i][1]
        if layer == "streaming" and group == "compile":
            group = "compile_cold" if has_put(i) else "compile_warm"
        return layer, group

    keys = [key(i) for i in range(len(spans))]
    ms: Dict[Tuple[str, str], float] = defaultdict(float)
    secs: Dict[Tuple[str, str], float] = defaultdict(float)
    counts: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[Tuple[str, str], float] = defaultdict(float)
    for i, s in enumerate(spans):
        per = 1e3 / max(n[phase[i]], 1)
        self_ms[s[0]] += (dur(i) - sum(dur(c) for c in children[i])) * per
        p, outer = s[4], True
        while p >= 0:
            if keys[p] == keys[i]:
                outer = False
                break
            p = spans[p][4]
        if not outer:
            continue
        ms[keys[i]] += dur(i) * per
        secs[keys[i]] += dur(i)
        calls[keys[i]] += per / 1e3
        for k, v in s[5].items():
            counts[keys[i]][k] += v

    def rate(k: Tuple[str, str], what: str) -> float:
        return counts[k][what] / secs[k] if secs[k] else 0.0

    def mean_count(what: str) -> float:
        vals = [c[what] for c in job_counts if what in c]
        return sum(vals) / len(vals) if vals else 0.0

    out: Dict[str, float] = {
        "graphs.build_ms": ms["graphs", "build"],
        "core.partition_ms": ms["core", "partition"],
        "core.schedule_ms": ms["core", "schedule"],
        "core.schedule_firings_per_s": rate(("core", "schedule"), "firings"),
        "core.lower_bound_ms": ms["core", "lower_bound"],
        "compiled.compile_ms": ms["compiled", "compile"],
        "compiled.compile_accesses_per_s": rate(("compiled", "compile"), "accesses"),
    }
    for kind in REPLAY_KINDS:
        out[f"replay.{kind}_ms"] = ms["replay", kind]
        out[f"replay.{kind}_accesses_per_s"] = rate(("replay", kind), "accesses")
    search = ("placement", "search")
    evals = counts[search]["evals"]
    out.update({
        "executor.calls": calls["executor", "measure"],
        "executor.measure_ms": ms["executor", "measure"],
        "executor.accesses_per_s": rate(("executor", "measure"), "accesses"),
        "streaming.compile_cold_ms": ms["streaming", "compile_cold"],
        "streaming.compile_warm_ms": ms["streaming", "compile_warm"],
        "streaming.replay_ms": ms["streaming", "replay"],
        "trace_cache.spilled_mb": mean_count("spilled_bytes") / (1 << 20),
        "trace_cache.warm_hit_ratio": mean_count("warm_hit_ratio"),
        "placement.evals": mean_count("evals"),
        "placement.eval_ms": secs[search] * 1e3 / evals if evals else 0.0,
        "placement.evals_per_s": evals / secs[search] if secs[search] else 0.0,
        "placement.accept_ratio": counts[search]["rounds"] / evals if evals else 0.0,
    })
    for name in ("e1", "e3", "e5"):
        out[f"analysis.{name}_ms"] = ms["analysis", name]
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = self_ms[layer]
    return out


def self_time_table(metrics: Dict[str, float]) -> str:
    """The self-time breakdown as text, largest layer first."""
    rows = sorted(((metrics[f"self.{layer}_ms"], layer) for layer in LAYERS), reverse=True)
    total = sum(v for v, _ in rows) or 1.0
    lines = ["self time per set-up + job (ms)"]
    lines += [f"  {layer:<12} {v:10.2f}  {100 * v / total:5.1f}%" for v, layer in rows]
    return "\n".join(lines)


def dump(path: Any, spans: List[List[Any]], extra: Optional[Dict[str, Any]] = None) -> None:
    """Write the spans (and anything in ``extra``) as one JSON file."""
    fields = ("layer", "group", "start", "end", "parent", "counts")
    payload = {"spans": [dict(zip(fields, s)) for s in spans], **(extra or {})}
    path.write_text(json.dumps(payload, default=float))
