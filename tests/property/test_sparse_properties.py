"""Property tests: sparse certified answers honour their certificates.

Hypothesis generates random chains of three adversarial shapes —
absorbing, periodic, and multi-leaf-SCC — and checks, against the exact
Fraction solvers, the sparse subsystem's whole contract:

* a returned answer lies within its own certificate of the exact
  long-run event probability;
* a tolerance the certificate cannot reach yields a *refusal*
  (``satisfies() is False`` / :class:`SolveRefusedError` from the
  evaluator), never a silently wrong answer.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.absorption import long_run_event_probability
from repro.markov.analysis import classify, leaf_components
from repro.markov.chain import chain_from_edges
from repro.sparse import solve_long_run, sparse_chain_from_markov


def _event(state) -> bool:
    return state % 2 == 0


def _exact(chain, start) -> float:
    return float(long_run_event_probability(chain, start, _event))


@st.composite
def absorbing_chains(draw):
    """A layered random walk that drains into 1–3 absorbing states."""
    transient = draw(st.integers(2, 6))
    absorbing = draw(st.integers(1, 3))
    edges = []
    for i in range(transient):
        # Each transient state spreads over a few forward targets;
        # integer weights keep the chain exactly stochastic.
        targets = draw(
            st.lists(
                st.integers(i + 1, transient + absorbing - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        weights = draw(
            st.lists(
                st.integers(1, 5),
                min_size=len(targets),
                max_size=len(targets),
            )
        )
        total = sum(weights)
        for target, weight in zip(targets, weights):
            edges.append((i, target, Fraction(weight, total)))
    for j in range(transient, transient + absorbing):
        edges.append((j, j, Fraction(1)))
    return chain_from_edges(edges)


@st.composite
def periodic_chains(draw):
    """A directed cycle (period n), optionally with a transient tail."""
    n = draw(st.integers(2, 8))
    edges = [(i, (i + 1) % n, Fraction(1)) for i in range(n)]
    tail = draw(st.integers(0, 3))
    for t in range(tail):
        source = n + t
        target = n + t + 1 if t + 1 < tail else 0
        edges.append((source, target, Fraction(1, 2)))
        edges.append((source, draw(st.integers(0, n - 1)), Fraction(1, 2)))
    return chain_from_edges(edges), 0 if tail == 0 else n


@st.composite
def multi_leaf_chains(draw):
    """Transient states feeding several small recurrent cycles."""
    leaves = draw(st.integers(2, 3))
    leaf_size = draw(st.integers(1, 3))
    edges = []
    leaf_entries = []
    base = 100
    for leaf in range(leaves):
        states = [base + leaf * 10 + k for k in range(leaf_size)]
        leaf_entries.append(states[0])
        for k, state in enumerate(states):
            edges.append((state, states[(k + 1) % leaf_size], Fraction(1)))
    transient = draw(st.integers(1, 4))
    for i in range(transient):
        choices = leaf_entries + [j for j in range(i + 1, transient)]
        targets = draw(
            st.lists(
                st.sampled_from(choices), min_size=1, max_size=3, unique=True
            )
        )
        weights = draw(
            st.lists(
                st.integers(1, 4),
                min_size=len(targets),
                max_size=len(targets),
            )
        )
        total = sum(weights)
        for target, weight in zip(targets, weights):
            edges.append((i, target, Fraction(weight, total)))
    return chain_from_edges(edges)


@given(absorbing_chains())
@settings(max_examples=40, deadline=None)
def test_absorbing_chain_answer_within_certificate(chain):
    sparse = sparse_chain_from_markov(chain, 0, event=_event)
    value, certificate, _ = solve_long_run(sparse, epsilon=1e-9)
    assert certificate.satisfies()
    assert abs(value - _exact(chain, 0)) <= certificate.bound


@given(periodic_chains())
@settings(max_examples=40, deadline=None)
def test_periodic_chain_answer_within_certificate(case):
    chain, start = case
    sparse = sparse_chain_from_markov(chain, start, event=_event)
    value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
    assert certificate.satisfies()
    assert abs(value - _exact(chain, start)) <= certificate.bound
    assert structure["leaf_sccs"] >= 1


@given(multi_leaf_chains())
@settings(max_examples=40, deadline=None)
def test_multi_leaf_chain_answer_within_certificate(chain):
    sparse = sparse_chain_from_markov(chain, 0, event=_event)
    value, certificate, structure = solve_long_run(sparse, epsilon=1e-9)
    assert certificate.satisfies()
    assert abs(value - _exact(chain, 0)) <= certificate.bound
    assert structure["leaf_sccs"] >= 2


@given(absorbing_chains())
@settings(max_examples=20, deadline=None)
def test_unreachable_tolerance_refuses_not_lies(chain):
    """An impossible epsilon must yield refusal, never a wrong answer."""
    sparse = sparse_chain_from_markov(chain, 0, event=_event)
    value, certificate, _ = solve_long_run(sparse, epsilon=1e-300)
    assert not certificate.satisfies()
    # The value itself is still as good as the certificate claims —
    # refusal is about honesty of the bound, not about the answer.
    assert abs(value - _exact(chain, 0)) <= certificate.bound


@given(st.one_of(
    absorbing_chains(),
    multi_leaf_chains(),
    periodic_chains().map(lambda case: case[0]),
))
@settings(max_examples=40, deadline=None)
def test_structure_matches_the_exact_classification(chain):
    """The array-level leaf detection against the per-state reference."""
    sparse = sparse_chain_from_markov(chain, 0, event=_event)
    _, _, structure = solve_long_run(sparse, epsilon=1e-9)
    summary = classify(chain)
    leaf_states = sum(len(leaf) for leaf in leaf_components(chain))
    for key in ("states", "sccs", "leaf_sccs", "irreducible"):
        assert structure[key] == summary[key]
    assert structure["transient_states"] == chain.size - leaf_states
