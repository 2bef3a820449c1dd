"""Streaming CSR assembly of the database-state Markov chain.

The exact evaluators materialise the Prop 5.4 chain as a
:class:`~repro.markov.chain.MarkovChain` keyed by hashable database
snapshots — fine for hundreds of states, hostile beyond that: every
row is a dict of Fractions and every structural pass re-hashes whole
databases.  :func:`assemble_sparse_chain` explores the same reachable
chain breadth-first with the chain builder's
:class:`~repro.core.chain_builder.Frontier` (the columnar
:class:`~repro.kernel.CompiledKernel` evaluates up to ``BATCH`` queued
states in one array pass; the frozenset
:class:`~repro.core.interpretation.Interpretation` loops over
``transition``), but assigns each discovered state a dense integer id
and accumulates ``(row, col, weight)`` triplets directly, so the only
artefacts of the build are a ``scipy.sparse`` CSR matrix, the id→state
table, and a boolean event mask.  Neither a dense matrix nor a
:class:`MarkovChain` is ever materialised.

The event predicate is evaluated once per discovered state, right
after the sweep — the solve phase only sees integer ids and float64
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

import numpy as np
from scipy import sparse as _sparse

from repro.core.chain_builder import DEFAULT_MAX_STATES, Frontier
from repro.errors import StateSpaceLimitExceeded
from repro.obs.trace import tracer_of

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.markov.chain import MarkovChain
    from repro.runtime.context import RunContext

__all__ = ["SparseChain", "assemble_sparse_chain", "sparse_chain_from_markov"]

#: How often (in expanded states) the assembler emits a trace event.
_TRACE_STRIDE = 256


@dataclass(frozen=True)
class SparseChain:
    """The reachable chain in integer-id CSR form.

    Attributes
    ----------
    matrix:
        ``n x n`` row-stochastic ``scipy.sparse`` CSR matrix;
        ``matrix[i, j]`` is the float64 transition probability from
        state ``i`` to state ``j``.
    states:
        Id → original state table (``states[0]`` is the initial
        state).  Kept only so results can name witness states; the
        solvers never touch it.
    event_mask:
        ``event_mask[i]`` is True when the query event holds in state
        ``i``.
    initial_index:
        Id of the start state (always 0 by construction).
    """

    matrix: Any
    states: Sequence[Hashable]
    event_mask: np.ndarray
    initial_index: int = 0

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def max_out_degree(self) -> int:
        indptr = self.matrix.indptr
        return int(np.max(np.diff(indptr))) if self.size else 0


def assemble_sparse_chain(
    kernel: Any,
    initial: Hashable,
    event: Callable[[Any], bool] | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    context: "RunContext | None" = None,
) -> SparseChain:
    """BFS the reachable chain into CSR form, a batch of rows at a time.

    ``kernel`` is anything with the transition-kernel surface
    (``check_schema`` + ``expand``): a frozenset
    :class:`~repro.core.interpretation.Interpretation` or a compiled
    columnar kernel.  The exploration is the chain builder's
    :class:`~repro.core.chain_builder.Frontier`, so state ids, CSR
    entries and trace events are those of a one-state-at-a-time BFS.
    Raises :class:`~repro.errors.StateSpaceLimitExceeded` exactly like
    :func:`~repro.core.chain_builder.build_state_chain` when the
    frontier outgrows ``max_states``.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> sc = assemble_sparse_chain(query.kernel, db, event=query.event.holds)
    >>> sc.size, sc.event_mask.sum()
    (4, np.int64(1))
    >>> sc.matrix.sum(axis=1).round(12).tolist()
    [[1.0], [1.0], [1.0], [1.0]]
    """
    kernel.check_schema(initial)
    tracer = tracer_of(context)
    frontier = Frontier(initial, max_states, context, _overflow)
    discover = frontier.discover
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for source, row in frontier.rows(kernel.expand):
        for successor, weight in row.items():
            rows.append(source)
            cols.append(discover(successor))
            data.append(float(weight))
        expanded, waiting = frontier.expanded, frontier.waiting
        if tracer.enabled and (expanded % _TRACE_STRIDE == 0 or not waiting):
            tracer.event(
                "sparse-state",
                expanded=expanded,
                discovered=len(frontier.states),
                frontier=waiting,
                nnz=len(data),
            )
    states = frontier.states
    n = len(states)
    matrix = _sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    )
    flags = (
        np.fromiter((bool(event(state)) for state in states), dtype=bool, count=n)
        if event is not None
        else np.zeros(n, dtype=bool)
    )
    return SparseChain(
        matrix=matrix,
        states=states,
        event_mask=flags,
        initial_index=0,
    )


def _overflow(frontier: Frontier) -> StateSpaceLimitExceeded:
    # Unlike the chain builder, the state being expanded is not counted
    # as expanded yet.
    discovered, expanded = len(frontier.states), frontier.expanded - 1
    pending = frontier.waiting + 1
    return StateSpaceLimitExceeded(
        f"sparse chain assembly exceeds max_states={frontier.max_states} "
        f"({discovered} states discovered, {expanded} expanded, frontier "
        f"size {pending}); raise the limit or let the ladder fall through "
        "to lumped/MCMC",
        details={
            "max_states": frontier.max_states,
            "states_discovered": discovered,
            "states_expanded": expanded,
            "frontier_size": pending,
        },
    )


def sparse_chain_from_markov(
    chain: "MarkovChain",
    start: Hashable,
    event: Callable[[Any], bool] | None = None,
) -> SparseChain:
    """CSR view of an already-materialised :class:`MarkovChain`.

    Used by the tests and benchmarks to certify answers on chains built
    directly (queueing chains, hypothesis-generated chains) without
    routing through a transition kernel.  ``start`` becomes id 0 so the
    solvers see the same layout as the streaming assembler produces.
    """
    chain.index_of(start)  # raises MarkovChainError for unknown starts
    ordered = [start] + [s for s in chain.states if s != start]
    index_of = {state: i for i, state in enumerate(ordered)}
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for state in ordered:
        source = index_of[state]
        for successor, weight in chain.successors(state).items():
            rows.append(source)
            cols.append(index_of[successor])
            data.append(float(weight))
    n = len(ordered)
    matrix = _sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    )
    flags = np.asarray(
        [bool(event(state)) if event is not None else False for state in ordered],
        dtype=bool,
    )
    return SparseChain(matrix=matrix, states=ordered, event_mask=flags)
