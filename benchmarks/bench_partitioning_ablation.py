"""Experiment A1 — Section 5.1 partitioning ablation.

Walkers share one relation but walk disjoint lazy cycles, so only the
tuple-level plan splits them.  On every shape the partitioned evaluator
must (a) return exactly the same probability as direct evaluation,
(b) find one component per walker and (c) explore the *sum* instead of
the *product* of the per-class state spaces — the optimisation's whole
point.
"""

from __future__ import annotations

import time

from repro.analysis.partition import compute_tuple_plan
from repro.core import (
    AndEvent,
    ForeverQuery,
    Interpretation,
    TupleIn,
    evaluate_forever_exact,
)
from repro.relational import Database, Relation, join, project, rel, rename, repair_key
from repro.runtime import evaluate_partitioned
from repro.workloads import two_component_graph

from benchmarks.conftest import format_table


def _walk_step():
    return rename(
        project(repair_key(join(rel("C"), rel("E")), ("I",), "P"), "J"), J="I"
    )


def _setup(components: int, component_size: int):
    """Every walker must be at its cycle's node 1: the event touches
    every class, so none is pruned."""
    graph = two_component_graph(component_size, components)
    starts = [(f"g{c}_n0",) for c in range(components)]
    db = Database({"C": Relation(("I",), starts), "E": graph.edge_relation()})
    kernel = Interpretation({"C": _walk_step()})
    event = TupleIn("C", ("g0_n1",))
    for c in range(1, components):
        event = AndEvent(event, TupleIn("C", (f"g{c}_n1",)))
    return ForeverQuery(kernel, event), db


def test_partitioning_correct_and_smaller(benchmark, report):
    rows = []
    for components, component_size in ((2, 3), (2, 4), (3, 3)):
        query, db = _setup(components, component_size)

        t0 = time.perf_counter()
        direct = evaluate_forever_exact(query, db, max_states=100_000)
        direct_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        partitioned = evaluate_partitioned(query, db, max_states=100_000)
        partitioned_time = time.perf_counter() - t0

        assert partitioned.probability == direct.probability
        assert partitioned.method == "partition-exact"
        assert len(partitioned.details["components"]) == components
        assert not partitioned.details["pruned"]
        assert direct.states_explored == component_size**components
        assert partitioned.states_explored < direct.states_explored

        rows.append(
            [
                f"{components}×{component_size}",
                direct.states_explored,
                partitioned.states_explored,
                str(direct.probability),
                f"{direct_time * 1e3:.0f} ms",
                f"{partitioned_time * 1e3:.0f} ms",
            ]
        )

    query, db = _setup(2, 3)
    benchmark.pedantic(
        lambda: evaluate_partitioned(query, db), rounds=3, iterations=1
    )

    report(
        *format_table(
            "A1 — Section 5.1 partitioning: joint product vs per-class sum "
            "(walkers in one relation on disjoint lazy cycles)",
            [
                "components×size",
                "joint states",
                "partitioned states",
                "probability",
                "direct time",
                "partitioned time",
            ],
            rows,
        )
    )


def test_partition_discovery(benchmark, report):
    query, db = _setup(3, 3)
    plan = benchmark.pedantic(
        lambda: compute_tuple_plan(query.kernel, db), rounds=3, iterations=1
    )
    assert plan.level == "tuple"
    assert len(plan.components) == 3

    rows = []
    for component in plan.components:
        graphs = {row[0].split("_")[0] for _name, row in component.tuples}
        assert len(graphs) == 1  # classes never straddle components
        rows.append([component.name, len(component.tuples), ", ".join(sorted(graphs))])

    report(
        *format_table(
            "A1 — provenance-discovered dependency classes",
            ["class", "tuples", "component"],
            rows,
        )
    )
