"""Unit tests for Markov-chain structural analysis (Section 2.3)."""

import pytest

from repro.errors import MarkovChainError
from repro.markov import (
    chain_from_edges,
    classify,
    is_absorbing_state,
    is_aperiodic,
    is_ergodic,
    is_irreducible,
    is_positively_recurrent,
    leaf_components,
    period,
    reachable_states,
    strongly_connected_components,
)


def lazy_cycle(n: int):
    edges = []
    for i in range(n):
        edges.append((i, i, 1))
        edges.append((i, (i + 1) % n, 1))
    return chain_from_edges(edges)


def pure_cycle(n: int):
    return chain_from_edges([(i, (i + 1) % n, 1) for i in range(n)])


class TestIrreducibility:
    def test_cycle_irreducible(self):
        assert is_irreducible(pure_cycle(4))

    def test_two_components_not_irreducible(self):
        chain = chain_from_edges([("a", "b", 1), ("b", "a", 1), ("x", "x", 1)])
        assert not is_irreducible(chain)

    def test_sccs_topologically_ordered(self):
        chain = chain_from_edges(
            [("s", "a", 1), ("a", "b", 1), ("b", "a", 1), ("s", "s", 1)]
        )
        components = strongly_connected_components(chain)
        # every edge goes forward in the order
        position = {}
        for index, component in enumerate(components):
            for state in component:
                position[state] = index
        for source, target, _w in chain.edges():
            assert position[source] <= position[target]


class TestPeriodicity:
    def test_pure_cycle_period(self):
        chain = pure_cycle(4)
        assert period(chain, 0) == 4
        assert not is_aperiodic(chain)

    def test_lazy_cycle_aperiodic(self):
        assert is_aperiodic(lazy_cycle(4))

    def test_two_cycle_period_two(self):
        chain = chain_from_edges([("a", "b", 1), ("b", "a", 1)])
        assert period(chain, "a") == 2

    def test_mixed_cycle_lengths_gcd(self):
        # cycles of lengths 2 and 3 share states -> period 1
        chain = chain_from_edges(
            [("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "a", 1)]
        )
        assert period(chain, "a") == 1

    def test_transient_singleton_period_undefined(self):
        chain = chain_from_edges([("s", "a", 1), ("a", "a", 1)])
        with pytest.raises(MarkovChainError):
            period(chain, "s")

    def test_period_unknown_state(self):
        with pytest.raises(MarkovChainError):
            period(pure_cycle(3), "nope")

    def test_aperiodicity_ignores_transient_states(self):
        chain = chain_from_edges([("s", "a", 1), ("a", "a", 1)])
        assert is_aperiodic(chain)


class TestRecurrenceAndErgodicity:
    def test_leaf_components(self):
        chain = chain_from_edges(
            [("s", "l1", 1), ("s", "l2", 1), ("l1", "l1", 1), ("l2", "l2", 1)]
        )
        leaves = leaf_components(chain)
        assert {frozenset({"l1"}), frozenset({"l2"})} == set(leaves)

    def test_positive_recurrence(self):
        assert is_positively_recurrent(pure_cycle(3))
        chain = chain_from_edges([("s", "a", 1), ("a", "a", 1)])
        assert not is_positively_recurrent(chain)

    def test_ergodic(self):
        assert is_ergodic(lazy_cycle(3))
        assert not is_ergodic(pure_cycle(3))  # periodic

    def test_absorbing_state(self):
        chain = chain_from_edges([("s", "a", 1), ("a", "a", 1)])
        assert is_absorbing_state(chain, "a")
        assert not is_absorbing_state(chain, "s")

    def test_reachable_states(self):
        chain = chain_from_edges(
            [("a", "b", 1), ("b", "b", 1), ("x", "a", 1), ("x", "x", 1)]
        )
        assert reachable_states(chain, "a") == frozenset({"a", "b"})
        assert reachable_states(chain, "x") == frozenset({"a", "b", "x"})

    def test_classify_summary(self):
        summary = classify(lazy_cycle(3))
        assert summary["irreducible"]
        assert summary["ergodic"]
        assert summary["states"] == 3
        assert summary["leaf_sccs"] == 1

    def test_classify_condenses_once(self, monkeypatch):
        import repro.markov.analysis as analysis

        calls = []
        tarjan = analysis.tarjan

        def counted(*args, **kwargs):
            calls.append(args)
            return tarjan(*args, **kwargs)

        monkeypatch.setattr(analysis, "tarjan", counted)
        chain = chain_from_edges(
            [("s", "a", 1), ("a", "b", 1), ("b", "a", 1), ("s", "c", 1),
             ("c", "c", 1)]
        )
        assert classify(chain) == {
            "states": 4,
            "sccs": 3,
            "leaf_sccs": 2,
            "irreducible": False,
            "aperiodic": False,
            "positively_recurrent": False,
            "ergodic": False,
        }
        assert len(calls) == 1
