"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``                 list the bundled application graphs
``describe``             print a graph (bundled app name or JSON file)
``partition``            partition a graph and report components/bandwidth
``schedule``             partition + schedule + simulate, print the cost;
                         ``--policy {lru,direct,opt}`` and ``--ways N`` pick
                         the replacement model and associativity, all
                         answered by the vectorized replay over one
                         compiled trace; ``--l2-frames N`` (plus optional
                         ``--l2-ways``) stacks a second level behind the
                         execution cache and measures memory transfers out
                         of L2 (``policy="two_level"``); ``--layout
                         {topo,color,swap,multiswap,smoothed,minimax}`` runs
                         the conflict-aware placement optimizer
                         (:mod:`repro.mem.placement` /
                         :mod:`repro.mem.facility`) before measuring,
                         ``--gap-budget N`` lets it spend up to N blocks of
                         deliberate padding, ``--restarts``/``--noise``/
                         ``--seed`` tune the smoothed multi-restart search
                         (deterministic per seed), and ``--layout-targets
                         POLICY:WAYS[@WEIGHT],...`` switches it to the
                         multi-geometry objective (never worse than the
                         seed at any target, and a search that regresses
                         at one is reported by target and discarded);
                         ``--chunk-words N`` compiles and replays the trace
                         out of core in segments of N accesses, and
                         ``--cache-dir PATH`` persists compiled traces
                         content-addressed on disk
``experiment``           run one experiment driver (e1..e15, a1..a9, a12) and
                         print its table; accepts the same
                         ``--chunk-words``/``--cache-dir`` flags (drivers
                         replay their in-memory traces in chunks of N);
                         both it and ``schedule`` also take ``--metrics-out
                         PATH`` to switch on the :mod:`repro.obs`
                         instrumentation and write a JSON run manifest
                         (stable run ID, git describe, config digest,
                         per-phase wall/CPU times, metric snapshot) plus a
                         span event log beside it
``obs-report``           render a ``--metrics-out`` manifest as a per-phase
                         breakdown table
``export-dot``           write a Graphviz DOT of a (partitioned) graph
``misscurve``            misses-vs-cache-size curve of partitioned and naive
                         schedules (compiled traces + Mattson stack
                         distances; no stepwise simulation)

Examples
--------
::

    python -m repro apps
    python -m repro describe fm_radio
    python -m repro partition fm_radio --cache 256 --c 2.0
    python -m repro schedule fm_radio --cache 256 --block 8 --inputs 2048
    python -m repro schedule fm_radio --cache 256 --policy opt
    python -m repro schedule fm_radio --cache 256 --ways 4
    python -m repro schedule fm_radio --cache 256 --l2-frames 128
    python -m repro schedule des_rounds --cache 256 --ways 1 --policy direct --layout swap
    python -m repro schedule des_rounds --cache 256 --ways 1 --policy direct \
        --layout swap --layout-targets direct:1@2,lru:2,lru:4 --gap-budget 8
    python -m repro schedule des_rounds --cache 256 --ways 1 --policy direct \
        --layout smoothed --restarts 4 --noise 0.25 --seed 0
    python -m repro schedule des_rounds --cache 256 --ways 1 --policy direct \
        --layout minimax --layout-targets direct:1,lru:2,lru:4
    python -m repro experiment e7
    python -m repro experiment a9
    python -m repro schedule fm_radio --cache 256 --metrics-out run.json
    python -m repro obs-report run.json
    python -m repro export-dot fm_radio --cache 256 -o fm.dot
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, List, Optional

from repro.cache.base import CacheGeometry
from repro.graphs.apps import ALL_APPS
from repro.graphs.io import load_graph, to_dot
from repro.graphs.sdf import StreamGraph

__all__ = ["main", "build_parser"]


def _resolve_graph(spec: str) -> StreamGraph:
    """A graph spec is either a bundled app name or a JSON file path."""
    if spec in ALL_APPS:
        return ALL_APPS[spec]()
    if spec.endswith(".json"):
        return load_graph(spec)
    raise SystemExit(
        f"unknown graph {spec!r}: expected one of {sorted(ALL_APPS)} or a .json path"
    )


#: Policies a ``--layout-targets`` entry may name (single-level replay).
_TARGET_POLICIES = ("lru", "direct", "opt")


def _parse_layout_targets(spec: str):
    """Parse ``POLICY:WAYS[@WEIGHT],...`` into (policy, ways, weight) triples.

    ``WAYS`` is the associativity the execution geometry is reorganized to
    (0 = fully associative); ``WEIGHT`` defaults to 1.  Raises
    :class:`argparse.ArgumentTypeError` — so argparse reports a usage error
    instead of a traceback — on unknown policies, malformed counts, or
    non-positive weights.
    """
    triples = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        body, at_sep, weight_s = chunk.partition("@")
        if at_sep and not weight_s.strip():
            raise argparse.ArgumentTypeError(
                f"target {chunk!r}: '@' must be followed by a weight "
                "(omit it for the default weight 1)"
            )
        policy, sep, ways_s = body.partition(":")
        policy = policy.strip()
        if policy not in _TARGET_POLICIES:
            raise argparse.ArgumentTypeError(
                f"unknown target policy {policy!r} in {chunk!r} "
                f"(choose from {', '.join(_TARGET_POLICIES)})"
            )
        if not sep:
            raise argparse.ArgumentTypeError(
                f"target {chunk!r} needs POLICY:WAYS (0 = fully associative)"
            )
        try:
            ways = int(ways_s)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"target {chunk!r}: ways must be an integer, got {ways_s!r}"
            ) from None
        if ways < 0:
            raise argparse.ArgumentTypeError(
                f"target {chunk!r}: ways must be >= 0, got {ways}"
            )
        weight = 1.0
        if weight_s:
            try:
                weight = float(weight_s)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"target {chunk!r}: weight must be a number, got {weight_s!r}"
                ) from None
            if not weight > 0 or weight != weight or weight == float("inf"):
                raise argparse.ArgumentTypeError(
                    f"target {chunk!r}: weight must be positive and finite, "
                    f"got {weight_s}"
                )
        triples.append((policy, ways, weight))
    if not triples:
        raise argparse.ArgumentTypeError(
            "layout targets must name at least one POLICY:WAYS[@WEIGHT] entry"
        )
    return triples


@contextlib.contextmanager
def _runtime_flags(args: argparse.Namespace) -> Iterator[None]:
    """Install ``--chunk-words``/``--cache-dir`` as the process-wide runtime
    defaults (:func:`repro.runtime.backend.configure`,
    :func:`repro.runtime.trace_cache.configure`) for one command, so every
    simulation and compilation it performs — including inside experiment
    drivers that take no such parameters — inherits them.  The previous
    defaults come back when the command returns or raises, so a later
    caller in the same process sees none of them."""
    chunk_words = getattr(args, "chunk_words", None)
    with contextlib.ExitStack() as restore:
        if chunk_words is not None:
            from repro.runtime.backend import configure as configure_backend

            previous = configure_backend(chunk_words=chunk_words)
            restore.callback(configure_backend, *previous)
        if getattr(args, "cache_dir", None):
            from repro.runtime.trace_cache import configure as configure_cache

            restore.callback(configure_cache, configure_cache(args.cache_dir))
        yield


def _partition_for(graph: StreamGraph, cache: int, c: float):
    from repro.core.dagpart import interval_dp_partition, refine_partition
    from repro.core.pipeline import optimal_pipeline_partition

    if graph.is_pipeline():
        return optimal_pipeline_partition(graph, cache, c=c)
    return refine_partition(interval_dp_partition(graph, cache, c=c), cache, c=c)


def cmd_apps(_args: argparse.Namespace) -> int:
    for name, ctor in sorted(ALL_APPS.items()):
        g = ctor()
        print(f"{name:14s} {g.n_modules:3d} modules  {g.n_channels:3d} channels  "
              f"{g.total_state():5d} words state")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    print(g.describe())
    from repro.graphs.repetition import repetition_vector

    reps = repetition_vector(g)
    interesting = {n: r for n, r in reps.items() if r != 1}
    if interesting:
        print(f"\nnon-unit repetition counts: {interesting}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    part = _partition_for(g, args.cache, args.c)
    print(part.describe())
    print(f"\nwell-ordered: {part.is_well_ordered()}")
    print(f"degree-limited at B={args.block}: "
          f"{part.is_degree_limited(args.cache, args.block)}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core.partition_sched import (
        component_layout_order,
        inhomogeneous_partition_schedule,
        pipeline_dynamic_schedule,
    )
    from repro.core.tuning import choose_batch, required_geometry
    from repro.runtime.compiled import measure_compiled

    g = _resolve_graph(args.graph)
    geom = CacheGeometry(size=args.cache, block=args.block)
    part = _partition_for(g, args.cache, args.c)
    if g.is_pipeline():
        sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=args.inputs)
    else:
        plan = choose_batch(g, args.cache, cross_cids=[c.cid for c in part.cross_channels()])
        n_batches = max(1, -(-args.inputs // max(plan.source_fires, 1)))
        sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
    from repro.errors import CacheConfigError, LayoutError

    placement_note = ""
    policy = args.policy
    if args.l2_ways and not args.l2_frames:
        raise SystemExit(
            "--l2-ways organizes the second level; it needs --l2-frames"
        )
    if args.layout_targets and args.layout == "topo":
        raise SystemExit(
            "--layout-targets drives the placement optimizer; combine it "
            "with any --layout but the seed topo layout"
        )
    try:
        run_geom = required_geometry(part, geom).with_ways(args.ways)
        order = component_layout_order(part)
        measure_geom = run_geom
        if args.l2_frames:
            # stack an L2 behind the execution cache: L1 is the (possibly
            # ways-narrowed) run geometry, L2 the requested frame count,
            # snapped up to a valid set indexing like --ways is
            from repro.cache.hierarchy import TwoLevelGeometry

            if policy != "lru":
                raise SystemExit(
                    "--l2-frames builds a two-level LRU hierarchy; combine "
                    "it with --ways/--l2-ways, not --policy "
                    f"{policy!r}"
                )
            if args.layout != "topo":
                raise SystemExit(
                    "--layout optimizes single-level placements; drop "
                    "--l2-frames or use --layout topo"
                )
            l2_geom = CacheGeometry(
                size=args.l2_frames * args.block, block=args.block
            ).with_ways(args.l2_ways)
            measure_geom = TwoLevelGeometry(run_geom, l2_geom)
            policy = "two_level"
        if args.layout != "topo":
            from repro.mem.placement import build_instance, optimize_instance, remap_trace
            from repro.runtime.compiled import simulate_trace

            instance = build_instance(g, sched, run_geom.block, order=order)
            targets = [
                (run_geom.with_ways(w), pol, weight)
                for pol, w, weight in args.layout_targets
            ] if args.layout_targets else [(run_geom, args.policy, 1.0)]
            pres = optimize_instance(
                instance, targets, strategy=args.layout,
                gap_budget=args.gap_budget, budget=args.layout_budget,
                restarts=args.restarts, noise=args.noise, seed=args.seed,
            )
            # targets are named like --layout-targets: POLICY:WAYS
            names = [f"{pol}:{tg.associativity}" for tg, pol, _w in pres.targets]
            if args.layout_targets:
                per = ", ".join(
                    f"{name} ({tg.size}w) {s}->{c}"
                    for name, (tg, _p, _w), s, c in zip(
                        names, pres.targets, pres.seed_per_target, pres.per_target
                    )
                )
                placement_note = (
                    f"layout    : {args.layout} placement over "
                    f"{len(pres.targets)} targets ({per}; never worse than "
                    f"the seed at any target"
                    + (f"; {pres.gap_blocks} gap blocks)" if pres.gap_blocks else ")")
                )
            else:
                placement_note = (
                    f"layout    : {args.layout} placement, {args.policy} misses "
                    f"{pres.seed_per_target[0]} -> {pres.per_target[0]} "
                    f"({pres.improvement:.1%} fewer than the seed layout)"
                )
            if pres.regressed:
                worse = ", ".join(
                    f"{names[i]} {pres.seed_per_target[i]}->"
                    f"{pres.searched_per_target[i]}"
                    for i in pres.regressed
                )
                placement_note += (
                    f"\nrejected  : the {args.layout} layout missed more than "
                    f"the seed at {worse}; the seed layout is kept"
                )
            # the remapped trace is bit-identical to recompiling under
            # (pres.order, pres.gaps) — no second compilation needed
            res = simulate_trace(
                remap_trace(instance, pres.order, gaps=pres.gaps),
                [run_geom], policy=policy,
            )[0]
        else:
            res = measure_compiled(
                g, measure_geom, sched, layout_order=order, policy=policy,
                chunk_words=args.chunk_words,
            )
    except CacheConfigError as exc:
        # bad --ways/--l2-ways value, or a --policy/--ways combination the
        # replay rejects (e.g. direct-mapped with ways > 1)
        raise SystemExit(f"invalid cache organization: {exc}")
    except LayoutError as exc:
        # bad placement request (e.g. a negative --gap-budget)
        raise SystemExit(f"invalid placement request: {exc}")
    org = "fully associative" if run_geom.is_fully_associative else (
        f"{run_geom.ways}-way, {run_geom.sets} sets"
    )
    print(f"partition : {part.k} components, bandwidth {float(part.bandwidth()):.3f}")
    print(f"cache     : {run_geom.size} words "
          f"({run_geom.size / geom.size:.2f}x of M={geom.size}), B={geom.block}, "
          f"{org}, policy={policy}")
    if args.l2_frames:
        l2g = measure_geom.l2
        l2_org = "fully associative" if l2g.is_fully_associative else (
            f"{l2g.ways}-way, {l2g.sets} sets"
        )
        print(f"L2        : {l2g.size} words ({l2g.n_blocks} frames), {l2_org}; "
              f"misses below are memory transfers out of L2")
    print(f"schedule  : {len(sched)} firings ({sched.label})")
    if placement_note:
        print(placement_note)
    print(f"result    : {res.summary()}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as E
    from repro.analysis import latency as L
    from repro.analysis import misscurve as MC
    from repro.analysis import sweeps as S
    from repro.analysis.report import rows_to_table

    prefixes = {
        **{f"e{i}": f"experiment_e{i}_" for i in range(1, 16)},
        **{f"a{i}": f"ablation_a{i}_" for i in range(1, 13)},
    }
    drivers = {}
    for exp_id, prefix in prefixes.items():
        found = [
            (module, n) for module in (E, S, L, MC) for n in dir(module)
            if n.startswith(prefix) and callable(getattr(module, n))
        ]
        if found:
            drivers[exp_id] = found[0]
    if args.id.lower() not in drivers:
        raise SystemExit(f"unknown experiment {args.id!r} (known: {', '.join(drivers)})")
    module, fn_name = drivers[args.id.lower()]
    print(rows_to_table(getattr(module, fn_name)(), title=fn_name))
    return 0


def cmd_misscurve(args: argparse.Namespace) -> int:
    from repro.analysis.misscurve import miss_curve
    from repro.analysis.report import rows_to_table
    from repro.core.baselines import single_appearance_schedule
    from repro.core.partition_sched import (
        component_layout_order,
        inhomogeneous_partition_schedule,
        pipeline_dynamic_schedule,
    )
    from repro.core.tuning import choose_batch
    from repro.graphs.repetition import repetition_vector
    from repro.runtime.compiled import compile_trace

    g = _resolve_graph(args.graph)
    geom = CacheGeometry(size=args.cache, block=args.block)
    part = _partition_for(g, args.cache, args.c)

    def record(schedule, order=None):
        # traces are cache-size independent: compile, don't simulate
        return compile_trace(g, schedule, args.block, layout_order=order).blocks

    if g.is_pipeline():
        part_sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=args.inputs)
    else:
        plan = choose_batch(g, args.cache, cross_cids=[c.cid for c in part.cross_channels()])
        n_batches = max(1, -(-args.inputs // max(plan.source_fires, 1)))
        part_sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=n_batches, plan=plan)
    part_trace = record(part_sched, order=component_layout_order(part))
    reps = repetition_vector(g)
    iters = max(1, args.inputs // reps[g.sources()[0]])
    naive_trace = record(single_appearance_schedule(g, n_iterations=iters))

    pc, nc = miss_curve(part_trace), miss_curve(naive_trace)
    rows = []
    blocks = args.cache // args.block
    for mult in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
        c = int(blocks * mult)
        rows.append(
            {
                "cache_words": c * args.block,
                "x_M": mult,
                "partitioned": int(pc[min(c, len(pc) - 1)]),
                "naive": int(nc[min(c, len(nc) - 1)]),
            }
        )
    print(rows_to_table(rows, title=f"miss curves for {g.name} (M={args.cache}, B={args.block})"))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    part = _partition_for(g, args.cache, args.c) if args.cache else None
    dot = to_dot(g, part)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _add_runtime_flags(sub: argparse.ArgumentParser) -> None:
    """Runtime flags shared by the simulating subcommands."""
    sub.add_argument("--chunk-words", type=int, default=None, metavar="N",
                     help="schedule compiles its trace out of core in "
                          "segments of N accesses and replays them in order "
                          "(bounded memory); experiment drivers and "
                          "--layout replay their in-memory traces in chunks "
                          "of N.  Miss counts are bit-identical; default: "
                          "one in-memory chunk")
    sub.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="persistent compiled-trace cache directory: "
                          "identical (graph, schedule, layout, block) "
                          "inputs load off disk instead of recompiling")
    sub.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="enable instrumentation (repro.obs) for this run "
                          "and write a JSON run manifest (stable run ID, "
                          "git describe, config digest, per-phase wall/CPU, "
                          "metric snapshot) to PATH plus a JSON-lines span "
                          "event log beside it; render with "
                          "'python -m repro obs-report PATH'")


def cmd_obs_report(args) -> int:
    """Render a run manifest written by ``--metrics-out`` as a table."""
    import json
    from pathlib import Path

    from repro.obs.report import render_manifest

    path = Path(args.manifest)
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read manifest {str(path)!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"manifest {str(path)!r} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise SystemExit(f"manifest {str(path)!r} is not a JSON object")
    print(render_manifest(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.mem.placement import STRATEGIES

    p = argparse.ArgumentParser(
        prog="repro",
        description="Cache-conscious scheduling of streaming applications (SPAA'12)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list bundled application graphs").set_defaults(fn=cmd_apps)

    d = sub.add_parser("describe", help="print a graph")
    d.add_argument("graph")
    d.set_defaults(fn=cmd_describe)

    q = sub.add_parser("partition", help="partition a graph")
    q.add_argument("graph")
    q.add_argument("--cache", type=int, default=256, help="cache size M in words")
    q.add_argument("--block", type=int, default=8, help="block size B in words")
    q.add_argument("--c", type=float, default=2.0, help="state bound factor c")
    q.set_defaults(fn=cmd_partition)

    s = sub.add_parser("schedule", help="partition + schedule + simulate")
    s.add_argument("graph")
    s.add_argument("--cache", type=int, default=256)
    s.add_argument("--block", type=int, default=8)
    s.add_argument("--c", type=float, default=2.0)
    s.add_argument("--inputs", type=int, default=1024, help="target inputs/outputs")
    s.add_argument("--policy", default="lru", choices=("lru", "direct", "opt"),
                   help="replacement policy replayed over the compiled trace")
    s.add_argument("--ways", type=int, default=0,
                   help="associativity (0 = fully associative; the cache is "
                        "snapped up to the nearest valid set count)")
    s.add_argument("--l2-frames", type=int, default=0,
                   help="stack an L2 of this many block frames behind the "
                        "execution cache and count memory transfers out of "
                        "it (two-level replay; 0 = single level)")
    s.add_argument("--l2-ways", type=int, default=0,
                   help="L2 associativity (0 = fully associative; needs "
                        "--l2-frames)")
    s.add_argument("--layout", default="topo", choices=STRATEGIES,
                   help="memory placement: seed topological order, greedy "
                        "set-coloring, swap-refined local search, k-object "
                        "multiswap with per-set capacity constraints, "
                        "smoothed multi-restart multiswap (see --restarts/"
                        "--noise/--seed), or minimax worst-case-target "
                        "search (conflict-aware, optimized for --policy at "
                        "the execution geometry)")
    s.add_argument("--layout-targets", type=_parse_layout_targets, default=None,
                   metavar="POLICY:WAYS[@WEIGHT],...",
                   help="multi-geometry placement objective: optimize the "
                        "weighted miss sum over these reorganizations of "
                        "the execution cache (ways 0 = fully associative; "
                        "weight defaults to 1) and never return a layout "
                        "worse than the seed at any of them")
    s.add_argument("--gap-budget", type=int, default=0,
                   help="blocks of deliberate padding the placement "
                        "optimizer may insert between objects (0 = pure "
                        "permutation search)")
    s.add_argument("--layout-budget", type=int, default=400,
                   help="cost evaluations the placement local search may "
                        "spend (each one scores a full candidate layout "
                        "through the remap cost model)")
    s.add_argument("--restarts", type=int, default=4,
                   help="restarts of the smoothed placement search "
                        "(--layout smoothed; each gets an equal slice of "
                        "--layout-budget)")
    s.add_argument("--noise", type=float, default=0.25,
                   help="relative conflict-weight perturbation per smoothed "
                        "restart (--layout smoothed; 0 disables the "
                        "perturbation)")
    s.add_argument("--seed", type=int, default=0,
                   help="RNG seed of the smoothed restart perturbations; "
                        "the same seed always reproduces the same layout")
    _add_runtime_flags(s)
    s.set_defaults(fn=cmd_schedule)

    e = sub.add_parser("experiment", help="run an experiment driver")
    e.add_argument("id", help="e1..e15, a1..a9 or a12")
    _add_runtime_flags(e)
    e.set_defaults(fn=cmd_experiment)

    mc = sub.add_parser("misscurve", help="misses-vs-cache-size curves")
    mc.add_argument("graph")
    mc.add_argument("--cache", type=int, default=256)
    mc.add_argument("--block", type=int, default=8)
    mc.add_argument("--c", type=float, default=2.0)
    mc.add_argument("--inputs", type=int, default=512)
    mc.set_defaults(fn=cmd_misscurve)

    r = sub.add_parser("obs-report", help="render a --metrics-out run manifest")
    r.add_argument("manifest", help="manifest JSON written by --metrics-out")
    r.set_defaults(fn=cmd_obs_report)

    x = sub.add_parser("export-dot", help="Graphviz DOT export")
    x.add_argument("graph")
    x.add_argument("--cache", type=int, default=0, help="partition for this M (0 = none)")
    x.add_argument("--block", type=int, default=8)
    x.add_argument("--c", type=float, default=2.0)
    x.add_argument("-o", "--output", default="")
    x.set_defaults(fn=cmd_export_dot)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        with _runtime_flags(args):
            return args.fn(args)
    # --metrics-out turns instrumentation on for exactly this run and
    # writes the manifest (plus a .events.jsonl span log) beside it, even
    # when the command fails — the manifest then records ok=false.
    from pathlib import Path

    from repro.obs.manifest import capture_run

    config = {
        k: v for k, v in vars(args).items() if k != "fn" and not callable(v)
    }
    with capture_run(command=args.command, config=config, out=Path(metrics_out)), \
            _runtime_flags(args):
        rc = args.fn(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
