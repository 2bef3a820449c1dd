"""Certified solves: values match the exact solvers within the bound."""

from __future__ import annotations

import warnings
from fractions import Fraction

import pytest

from repro.errors import MarkovChainError, SolveRefusedError
from repro.markov.absorption import long_run_event_probability
from repro.markov.chain import chain_from_edges
from repro.sparse import (
    evaluate_forever_sparse,
    solve_long_run,
    sparse_chain_from_markov,
)
from repro.workloads import WeightedGraph, random_walk_query

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import MatrixRankWarning

from repro.sparse.assemble import SparseChain


def _gamblers_ruin(n: int, p_down: Fraction):
    edges = []
    for i in range(1, n):
        edges.append((i, i - 1, p_down))
        edges.append((i, i + 1, 1 - p_down))
    edges.append((0, 0, Fraction(1)))
    edges.append((n, n, Fraction(1)))
    return chain_from_edges(edges)


class TestIrreducible:
    def test_cycle_stationary_event_mass(self):
        chain = chain_from_edges(
            [(i, (i + 1) % 4, Fraction(1, 2)) for i in range(4)]
            + [(i, (i + 3) % 4, Fraction(1, 2)) for i in range(4)]
        )
        sparse = sparse_chain_from_markov(chain, 0, event=lambda s: s == 2)
        value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
        assert structure["irreducible"]
        assert certificate.satisfies()
        assert abs(value - 0.25) <= certificate.bound <= 1e-9

    def test_periodic_block_converges_via_lazification(self):
        chain = chain_from_edges([(0, 1, Fraction(1)), (1, 0, Fraction(1))])
        sparse = sparse_chain_from_markov(chain, 0, event=lambda s: s == 1)
        value, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
        assert abs(value - 0.5) <= certificate.bound <= 1e-9

    def test_drifted_reflecting_walk_is_certified(self):
        """The power iterate stalls on this walk (its regeneration
        residual alone misses 1e-9); the factorised ŵ certifies it."""
        n, down = 200, Fraction(11, 20)
        chain = chain_from_edges(
            [(i, max(i - 1, 0), down) for i in range(n)]
            + [(i, min(i + 1, n - 1), 1 - down) for i in range(n)]
        )
        sparse = sparse_chain_from_markov(chain, 0, event=lambda s: s < 10)
        value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
        rho = (1 - down) / down
        exact = (1 - rho**10) / (1 - rho**n)
        assert structure["irreducible"]
        assert certificate.satisfies()
        assert abs(value - float(exact)) <= certificate.bound <= 1e-9


class TestAbsorbing:
    def test_gamblers_ruin_matches_exact(self):
        chain = _gamblers_ruin(10, Fraction(45, 100))
        exact = long_run_event_probability(chain, 5, lambda s: s == 10)
        sparse = sparse_chain_from_markov(chain, 5, event=lambda s: s == 10)
        value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
        assert structure["leaf_sccs"] == 2
        assert certificate.satisfies()
        assert abs(value - float(exact)) <= certificate.bound

    def test_large_chain_solves_from_one_factorisation(self):
        """The transient block is factored once; the amplifier and both
        leaves' absorption vectors are solved from that factorisation."""
        chain = _gamblers_ruin(300, Fraction(55, 100))
        exact = long_run_event_probability(chain, 150, lambda s: s == 0)
        sparse = sparse_chain_from_markov(chain, 150, event=lambda s: s == 0)
        value, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
        assert certificate.satisfies()
        assert abs(value - float(exact)) <= certificate.bound
        assert certificate.solver == "direct"

    def test_start_interval_composes_absorption_and_stationary(self):
        # two leaf cycles with different event mass, reached 50/50
        edges = [
            ("t", "a0", Fraction(1, 2)), ("t", "b0", Fraction(1, 2)),
            ("a0", "a1", Fraction(1)), ("a1", "a0", Fraction(1)),
            ("b0", "b0", Fraction(1)),
        ]
        chain = chain_from_edges(edges)
        event = lambda s: s in ("a0", "b0")  # noqa: E731
        exact = long_run_event_probability(chain, "t", event)
        sparse = sparse_chain_from_markov(chain, "t", event=event)
        value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
        assert structure["leaf_sccs"] == 2
        assert structure["transient_states"] == 1
        assert abs(value - float(exact)) <= certificate.bound


def _lazy_cycle(k: int):
    states = np.arange(k)
    return sp.csr_matrix(
        (np.repeat([0.5, 0.25, 0.25], k),
         (np.tile(states, 3),
          np.concatenate([states, (states + 1) % k, (states - 1) % k]))),
        shape=(k, k),
    )


class TestSolverChoice:
    """Cheap eliminations are factored (the tests above); systems whose
    factors would fill towards n² run Krylov instead."""

    def test_three_walker_torus_runs_cg(self):
        """Three lazy walkers on an 8-cycle: 512 states, 27 nonzeros a
        row, a symmetric system — CG, with no factorisation."""
        step = _lazy_cycle(8)
        matrix = sp.kron(sp.kron(step, step), step, format="csr")
        chain = SparseChain(
            matrix=matrix, states=list(range(512)),
            event_mask=np.arange(512) < 64,  # the first walker at node 0
        )
        value, certificate, _ = solve_long_run(chain, epsilon=1e-9)
        assert certificate.solver == "power+cg"
        assert abs(value - 0.125) <= certificate.bound <= 1e-9

    def test_gmres_miss_falls_back_to_the_factorisation(self, monkeypatch):
        from repro.workloads.graphs import random_ergodic_chain

        chain = random_ergodic_chain(300, rng=5)
        sparse = sparse_chain_from_markov(chain, 0, event=lambda s: s % 3 == 0)
        dense = sparse.matrix.toarray().T - np.eye(300)
        dense[-1] = 1.0
        pi = np.linalg.solve(dense, np.eye(300)[-1])
        reference = float(pi[sparse.event_mask].sum())

        value, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
        assert certificate.solver == "power+gmres"
        assert abs(value - reference) <= certificate.bound <= 1e-9

        monkeypatch.setattr("repro.sparse.solve._KRYLOV_BUDGET", 64)
        value, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
        assert certificate.solver == "power+gmres+direct"
        assert abs(value - reference) <= certificate.bound <= 1e-9

    def test_residual_carries_its_evaluation_error(self):
        """A residual that evaluates to zero in float64 still carries
        ``(k + 2)·eps·(|b| + |A||x|)`` per row."""
        from repro.sparse.solve import _System, _Tally

        matrix = sp.csr_matrix(np.array([[1.0, -0.5], [-0.25, 1.0]]))
        x = np.array([2.0, 1.0])
        rhs = matrix @ x
        assert float(np.max(np.abs(rhs - matrix @ x))) == 0.0
        eps = float(np.finfo(np.float64).eps)
        # row 0: (2 + 2)·eps·(1.5 + 2·1 + 0.5·1)
        assert _System(matrix, _Tally()).residual(x, rhs) == 16 * eps


class TestContract:
    def test_refusal_is_reported_not_raised(self):
        chain = _gamblers_ruin(10, Fraction(1, 2))
        sparse = sparse_chain_from_markov(chain, 5, event=lambda s: s == 10)
        value, certificate, _ = solve_long_run(sparse, epsilon=1e-300)
        assert not certificate.satisfies()
        exact = long_run_event_probability(chain, 5, lambda s: s == 10)
        # the answer is still within the (dissatisfied) bound
        assert abs(value - float(exact)) <= certificate.bound

    def test_singular_factorisation_refuses(self):
        """A self-loop of 1 - 1e-17 rounds to 1.0, so the transient
        block's ``I - Q`` is exactly singular: no amplifier, interval
        (0, 1), refused at both levels — never an exception from LU."""
        tiny = Fraction(1, 10**17)
        chain = chain_from_edges(
            [(0, 0, 1 - tiny), (0, 1, tiny), (1, 1, Fraction(1))]
        )
        sparse = sparse_chain_from_markov(chain, 0, event=lambda s: s == 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            value, certificate, structure = solve_long_run(sparse, epsilon=1e-6)
        assert structure["transient_states"] == 1
        assert not certificate.satisfies()
        assert value - certificate.bound <= 0.0
        assert value + certificate.bound >= 1.0

        graph = WeightedGraph(
            ["a", "b"], [("a", "a", 10**17 - 1), ("a", "b", 1), ("b", "b", 1)]
        )
        query, db = random_walk_query(graph, "a", "b")
        with pytest.raises(SolveRefusedError) as excinfo:
            evaluate_forever_sparse(query, db, epsilon=1e-6)
        assert excinfo.value.details["certified_bound"] >= 0.5

    def test_nonstochastic_rows_raise_typed_error(self):
        matrix = sp.csr_matrix(
            np.array([[0.5, 0.2], [0.0, 1.0]])
        )
        broken = SparseChain(
            matrix=matrix,
            states=[0, 1],
            event_mask=np.array([False, True]),
        )
        with pytest.raises(MarkovChainError) as excinfo:
            solve_long_run(broken, epsilon=1e-6)
        assert excinfo.value.details["row"] == 0

    def test_bad_epsilon_raises(self):
        chain = chain_from_edges([(0, 0, Fraction(1))])
        sparse = sparse_chain_from_markov(chain, 0)
        with pytest.raises(MarkovChainError):
            solve_long_run(sparse, epsilon=0.0)

    def test_certificate_payload_round_trips(self):
        chain = _gamblers_ruin(6, Fraction(1, 3))
        sparse = sparse_chain_from_markov(chain, 3, event=lambda s: s == 6)
        _, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
        payload = certificate.as_dict()
        assert payload["satisfied"] is True
        assert payload["epsilon"] == 1e-9
        assert payload["bound"] >= 0.0
        assert payload["solver"]
