#!/usr/bin/env python
"""Layout tuning walkthrough: conflict-aware placement for low associativity.

The paper's fully-associative model provably cannot see memory layout (only
the *set* of blocks touched matters), but real low-associativity caches can:
two hot objects whose addresses collide modulo the set count thrash each
other no matter how good the schedule is.  This walkthrough takes the DES
pipeline, partitions and schedules it the paper's way, then uses
``repro.mem.placement`` to re-place module state and channel buffers against
the direct-mapped execution geometry:

1. compile the schedule ONCE under the seed topological layout;
2. extract the temporal-affinity conflict graph (objects co-scheduled
   within a short reuse window must not share a set);
3. score candidate placements with the exact block-remap cost model — a
   single gather over the compiled trace, never a re-execution;
4. run both strategies (greedy set-coloring, then FLIP-style swap
   refinement) and verify the win end to end by recompiling under the
   optimized placement and replaying every organization.

Run:  python examples/layout_tuning.py
"""

from repro import compile_trace, simulate_trace
from repro.analysis.report import rows_to_table
from repro.analysis.sweeps import des_partitioned_workload
from repro.mem.placement import (
    build_instance,
    conflict_graph,
    optimize_instance,
)


def main() -> None:
    M, B = 256, 8
    graph, sched, part, run_geom = des_partitioned_workload(M=M, B=B, inputs=512)
    print(
        f"{graph.name}: {graph.n_modules} modules, partitioned into {part.k} "
        f"components; execution cache {run_geom.size} words "
        f"({run_geom.n_blocks} direct-mapped frames)\n"
    )

    # one compile under the seed layout is all the optimizer ever needs
    instance = build_instance(graph, sched, B)
    edges = conflict_graph(instance)
    hot = sorted(edges.items(), key=lambda kv: -kv[1])[:3]
    print(f"conflict graph: {instance.n_objects} objects, {len(edges)} edges; hottest pairs:")
    for (a, b), w in hot:
        print(f"  {instance.objects[a]} <-> {instance.objects[b]}  weight {w:.0f}")
    print()

    rows = []
    for strategy in ("topo", "color", "swap"):
        res = optimize_instance(instance, [(run_geom, "direct", 1.0)], strategy=strategy)
        # verify end to end: recompile under the placement, replay everything
        trace = compile_trace(graph, sched, B, placement=res.order)
        dm = simulate_trace(trace, [run_geom], policy="direct")[0]
        fa = simulate_trace(trace, [run_geom], policy="lru")[0]
        assert [dm.misses] == res.per_target, "cost model must match the real compile"
        rows.append(
            {
                "placement": strategy,
                "direct_misses": dm.misses,
                "vs_seed": round(dm.misses / res.seed_per_target[0], 3),
                "fully_assoc": fa.misses,
                "misses/input": round(dm.misses_per_source_fire, 3),
            }
        )

    print(rows_to_table(rows, title="DES: placement vs direct-mapped conflict misses"))
    print(
        "\nReading the table: the seed topological layout pays heavily for set\n"
        "conflicts the schedule itself cannot avoid; greedy coloring removes\n"
        "some, and swap refinement (scored by the exact remap cost model)\n"
        "removes most of the rest.  The fully_assoc column is identical on\n"
        "every row — under the paper's model layout is provably irrelevant,\n"
        "which is precisely the freedom the optimizer exploits."
    )


if __name__ == "__main__":
    main()
