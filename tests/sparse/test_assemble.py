"""Streaming CSR assembly off the transition kernel."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import MarkovChainError, StateSpaceLimitExceeded
from repro.markov.chain import chain_from_edges
from repro.obs import MemorySink, Tracer
from repro.runtime import RunContext
from repro.sparse import assemble_sparse_chain, sparse_chain_from_markov
from repro.kernel import lower
from repro.workloads import cycle_graph, grid_graph, random_walk_query


@pytest.fixture
def walk():
    return random_walk_query(cycle_graph(5), "n0", "n2")


class TestAssemble:
    def test_rows_are_stochastic_and_start_is_id_zero(self, walk):
        query, db = walk
        chain = assemble_sparse_chain(
            query.kernel, db, event=query.event.holds
        )
        assert chain.size == 5
        assert chain.initial_index == 0
        assert chain.states[0] == db
        sums = np.asarray(chain.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_event_mask_evaluated_during_sweep(self, walk):
        query, db = walk
        chain = assemble_sparse_chain(
            query.kernel, db, event=query.event.holds
        )
        assert chain.event_mask.dtype == bool
        assert chain.event_mask.sum() == 1
        # mask agrees with a direct re-evaluation on the state table
        for state, flag in zip(chain.states, chain.event_mask):
            assert bool(query.event.holds(state)) == bool(flag)

    def test_no_event_means_all_false(self, walk):
        query, db = walk
        chain = assemble_sparse_chain(query.kernel, db)
        assert not chain.event_mask.any()

    def test_state_limit_raises_with_details(self, walk):
        query, db = walk
        with pytest.raises(StateSpaceLimitExceeded) as excinfo:
            assemble_sparse_chain(
                query.kernel, db, event=query.event.holds, max_states=2
            )
        details = excinfo.value.details
        assert details["max_states"] == 2
        assert details["states_discovered"] == 2

    def test_trace_events_emitted(self, walk):
        query, db = walk
        sink = MemorySink()
        context = RunContext(tracer=Tracer(sink))
        assemble_sparse_chain(
            query.kernel, db, event=query.event.holds, context=context
        )
        names = [r.get("name") for r in sink.records]
        assert "sparse-state" in names


class TestBatchedAssembly:
    """The compiled kernel expands queued states in batches; ids, limit
    details and trace events must be those of the interpreter's
    one-state-at-a-time BFS."""

    @staticmethod
    def _run(kernel, initial, event, max_states):
        sink = MemorySink()
        context = RunContext(tracer=Tracer(sink))
        try:
            chain = assemble_sparse_chain(
                kernel, initial, event=event, max_states=max_states,
                context=context,
            )
            outcome = chain.size
        except StateSpaceLimitExceeded as exc:
            outcome = exc.details
        events = [
            {k: r[k] for k in ("expanded", "discovered", "frontier", "nnz")}
            for r in sink.records if r.get("name") == "sparse-state"
        ]
        return outcome, events

    @pytest.mark.parametrize("max_states", [3, 40, 300, 1_000])
    def test_limit_details_and_trace_events_match_interpreter(self, max_states):
        # A 20x20 grid walk from a corner: batches grow with the BFS
        # levels, the limit strikes inside a batch, and the 400-state
        # run emits a trace event at state 256 and at the end.
        query, db = random_walk_query(grid_graph(20, 20), "g0_0", "g3_3")
        lowered_query, initial = lower(query, db)
        source = self._run(query.kernel, db, query.event.holds, max_states)
        batched = self._run(
            lowered_query.kernel, initial, lowered_query.event.holds, max_states
        )
        assert batched == source
        if max_states == 1_000:
            assert source == (400, [
                {"expanded": 256, "discovered": 273, "frontier": 17, "nnz": 1233},
                {"expanded": 400, "discovered": 400, "frontier": 0, "nnz": 1920},
            ])
        else:
            assert source[0]["max_states"] == max_states


class TestFromMarkov:
    def test_start_relabelled_to_zero(self):
        chain = chain_from_edges(
            [("a", "b", Fraction(1)), ("b", "a", Fraction(1))]
        )
        sparse = sparse_chain_from_markov(chain, "b", event=lambda s: s == "a")
        assert sparse.states[0] == "b"
        assert sparse.initial_index == 0
        assert sparse.event_mask.tolist() == [False, True]
        assert sparse.matrix[0, 1] == 1.0

    def test_unknown_start_raises(self):
        chain = chain_from_edges([("a", "a", Fraction(1))])
        with pytest.raises(MarkovChainError):
            sparse_chain_from_markov(chain, "zzz")

    def test_max_out_degree(self):
        chain = chain_from_edges(
            [(0, 1, Fraction(1, 2)), (0, 2, Fraction(1, 2)),
             (1, 1, Fraction(1)), (2, 2, Fraction(1))]
        )
        sparse = sparse_chain_from_markov(chain, 0)
        assert sparse.max_out_degree == 2
        assert sparse.nnz == 4
