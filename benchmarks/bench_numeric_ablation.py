"""Experiment A4 — rational vs certified float chain solving
(implementation ablation, not a paper claim).

The exact evaluator (Prop 5.4 / Thm 5.5) uses Gaussian elimination over
ℚ so the paper's identities can be checked with ``==``; the sparse rung
streams the same chain into CSR form and solves it iteratively, with a
:class:`~repro.sparse.SolveCertificate` bounding its distance from the
exact rational.  This ablation checks that every sparse answer lies
inside its certificate and measures both costs as the chain grows.
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.core import evaluate_forever_exact
from repro.kernel import lower
from repro.sparse import evaluate_forever_sparse
from repro.workloads import erdos_renyi, random_walk_query

from benchmarks.conftest import format_table


def test_exact_vs_sparse(benchmark, report):
    rows = []
    for size in (4, 8, 12, 16):
        graph = erdos_renyi(size, 0.3, rng=size)
        query, db = random_walk_query(graph, "n0", "n1")

        t0 = time.perf_counter()
        exact = evaluate_forever_exact(query, db)
        exact_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        sparse = evaluate_forever_sparse(*lower(query, db))
        sparse_time = time.perf_counter() - t0

        assert sparse.states_explored == exact.states_explored
        gap = abs(Fraction(sparse.probability) - exact.probability)
        assert gap <= Fraction(sparse.certificate.bound)
        rows.append(
            [
                size,
                exact.states_explored,
                f"{exact_time * 1e3:.1f} ms",
                f"{sparse_time * 1e3:.1f} ms",
                f"{float(gap):.1e}",
                f"{sparse.certificate.bound:.1e}",
            ]
        )

    graph = erdos_renyi(10, 0.3, rng=10)
    query, db = random_walk_query(graph, "n0", "n1")
    benchmark.pedantic(
        lambda: evaluate_forever_sparse(*lower(query, db)), rounds=3, iterations=1
    )

    report(
        *format_table(
            "A4 — exact (ℚ Gaussian elimination) vs sparse certified "
            "(CSR + residual certificate) forever-query evaluation",
            [
                "graph nodes",
                "chain states",
                "exact time",
                "sparse time",
                "|difference|",
                "certified bound",
            ],
            rows,
        )
    )
