"""Memoized transition kernels: a bounded LRU cache of exact rows.

Every evaluator that walks the Markov chain over database states pays
the same bill at every step: evaluating the kernel's relational-algebra
tree on the current state.  MCMC walkers (Theorem 5.6) and the BFS
chain builder (Proposition 5.4) revisit the *same* states over and over
— a random walk on an n-state chain touches n distinct states but takes
burn_in × samples steps — so the algebra work is overwhelmingly
redundant.  A :class:`TransitionCache` memoizes
:meth:`~repro.core.interpretation.Interpretation.transition` per state
(states are immutable, hashable :class:`~repro.relational.database.Database`
snapshots, so the key is free) and keeps a cumulative-weight index next
to each cached :class:`~repro.probability.distribution.Distribution` so
that drawing a successor is one ``rng.random()`` plus an O(log k)
bisection instead of a fresh algebra evaluation.

Two caveats, both documented in ``docs/performance.md``:

* **Support size.**  The exact row enumerates *all* possible worlds of
  Q(state), which can be exponential in the number of probabilistic
  choices, whereas ``sample_transition`` stays polynomial.  The cache
  is therefore opt-in, intended for kernels whose per-state support is
  small (e.g. single-repair-key random walks).
* **RNG stream.**  Cached sampling consumes exactly one uniform draw
  per step; ``sample_transition`` consumes one per repair-key block.
  Results are drawn from the *same exact distribution* but the random
  stream differs, so cached and uncached runs with the same seed are
  not bit-identical (each is individually deterministic).

Because a cached step is one uniform, many walks can advance together:
:meth:`TransitionCache.walk` moves a whole batch of walkers one step at
a time over a :class:`RowView`, an id-indexed CSR copy of the cache's
rows, and picks exactly the successor :meth:`CachedRow.sample` would
pick from the same uniform.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from collections import OrderedDict
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from repro.core.interpretation import Interpretation
from repro.errors import ProbabilityError
from repro.probability.distribution import Distribution
from repro.relational.database import Database
from repro.relational.ordering import database_sort_key

#: Default number of distinct states kept by a cache.
DEFAULT_CACHE_SIZE = 4096


class CachedRow:
    """One memoized transition row: the exact distribution plus a
    cumulative-weight index for O(log k) successor draws.

    The index is built on the first :meth:`sample` call: chain builders
    read only :attr:`distribution`, and sorting every row they touch
    would cost more than building the chain.  It is published as one
    ``(outcomes, cumulative)`` tuple, so a concurrent reader sees either
    no index or a whole one (two racing builders build equal ones).

    Outcome states are ordered canonically (see
    :func:`~repro.relational.ordering.database_sort_key`), never by
    distribution insertion order: the cumulative-weight index — and with
    it every cached draw — is then identical across interpreter
    invocations and across the frozenset/columnar backends, whose states
    sort order-isomorphically.
    """

    __slots__ = ("distribution", "_index")

    def __init__(self, distribution: Distribution[Database]):
        self.distribution = distribution
        self._index: tuple[list[Database], list[float]] | None = None

    def index(self) -> tuple[list[Database], list[float]]:
        """``(outcomes, cumulative)``: the canonical outcome order and the
        running float sums a draw bisects."""
        index = self._index
        if index is None:
            outcomes = sorted(self.distribution, key=database_sort_key)
            cumulative = list(
                accumulate(float(self.distribution.probability(o)) for o in outcomes)
            )
            index = self._index = (outcomes, cumulative)
        return index

    def sample(self, rng: random.Random) -> Database:
        """Draw one successor state (one uniform draw, one bisection)."""
        outcomes, cumulative = self.index()
        pick = rng.random() * cumulative[-1]
        index = bisect_right(cumulative, pick)
        if index >= len(outcomes):
            index = len(outcomes) - 1
        return outcomes[index]

    def __len__(self) -> int:
        return len(self.distribution)


class RowView:
    """An id-indexed CSR copy of a cache's rows, for lockstep walks.

    States get dense integer ids in first-seen order.  An *expanded* id
    owns one slice ``start[id]:stop[id]`` of the CSR arrays holding its
    successors' ids and, as the complex ``start + 1j * c``, the exact
    cumulative floats ``c`` of its :meth:`CachedRow.index`.  The keys
    then sort lexicographically across all rows, so :meth:`draw` runs
    ``bisect_right`` for every walker in one ``searchsorted`` and lands
    where :meth:`CachedRow.sample` would from the same uniform.

    A view expands at most ``capacity`` rows; :class:`TransitionCache`
    replaces a full one.  Ids are meaningful only within one view.
    Readers and writers hold :attr:`lock`.
    """

    __slots__ = (
        "capacity", "lock", "states", "ids", "rows", "start", "stop", "total",
        "successors", "keys", "used",
    )

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lock = threading.Lock()
        self.states: list[Database] = []
        self.ids: dict[Database, int] = {}
        self.rows = 0
        # Per id; start -1 marks an id whose row is not expanded yet.
        self.start = np.full(64, -1, dtype=np.int64)
        self.stop = np.zeros(64, dtype=np.int64)
        self.total = np.zeros(64)
        # Per CSR entry.
        self.successors = np.zeros(256, dtype=np.int64)
        self.keys = np.zeros(256, dtype=np.complex128)
        self.used = 0

    def intern(self, state: Database) -> int:
        """The id of ``state``, assigned on first sight."""
        index = self.ids.get(state)
        if index is None:
            index = self.ids[state] = len(self.states)
            self.states.append(state)
            if index == len(self.start):
                grown = 2 * index
                self.start = np.concatenate(
                    [self.start, np.full(grown - index, -1, dtype=np.int64)]
                )
                self.stop = np.resize(self.stop, grown)
                self.total = np.resize(self.total, grown)
        return index

    def expand(
        self, ids: np.ndarray, row: Callable[[Database], CachedRow]
    ) -> tuple[int, bool]:
        """Expand the rows of ``ids`` that are missing, as far as capacity
        allows, reading each through ``row(state)``.  Returns how many
        rows were added and whether every row of ``ids`` is now here."""
        missing = ids[self.start[ids] < 0]
        if not missing.size:
            return 0, True
        wanted = np.unique(missing).tolist()
        for added, index in enumerate(wanted):
            if self.rows >= self.capacity:
                return added, False
            self._add(index, row(self.states[index]))
        return len(wanted), True

    def _add(self, index: int, row: CachedRow) -> None:
        outcomes, cumulative = row.index()
        first = self.used
        end = first + len(outcomes)
        if end > len(self.keys):
            self.successors = np.resize(self.successors, 2 * end)
            self.keys = np.resize(self.keys, 2 * end)
        self.successors[first:end] = [self.intern(state) for state in outcomes]
        self.keys.real[first:end] = first
        self.keys.imag[first:end] = cumulative
        self.start[index] = first
        self.stop[index] = end
        self.total[index] = cumulative[-1]
        self.used = end
        self.rows += 1

    def draw(self, ids: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One step for walkers at expanded ``ids``: the successor ids
        that ``bisect_right`` on each row picks for ``uniform * total``."""
        first = self.start[ids]
        picks = np.empty(len(ids), dtype=np.complex128)
        picks.real = first
        picks.imag = uniforms * self.total[ids]
        at = np.searchsorted(self.keys[: self.used], picks, side="right")
        return self.successors[np.minimum(at, self.stop[ids] - 1)]


class TransitionCache:
    """A bounded LRU memo of ``kernel.transition(state)`` rows.

    Parameters
    ----------
    kernel:
        The transition kernel whose rows are memoized.  One cache
        serves exactly one kernel; sharing a cache across kernels would
        silently mix distributions.
    maxsize:
        Upper bound on the number of distinct states retained; the
        least-recently-used row is evicted beyond it.

    The counters ``hits`` / ``misses`` / ``evictions`` are plain ints,
    surfaced on :class:`~repro.runtime.context.RunReport` via
    :meth:`RunContext.attach_cache <repro.runtime.context.RunContext.attach_cache>`.

    The cache is thread-safe: the LRU order, the counters, and row
    insertion are guarded by an internal lock, so a long-lived cache can
    be shared by the concurrent workers of a
    :class:`~repro.service.JobScheduler` (one
    :class:`~repro.service.EngineSession` keeps one warm cache across
    requests).  Row *computation* happens outside the lock — two threads
    missing the same state may both evaluate the kernel, but the row is
    deterministic so either result is correct, and hits never block on
    another thread's algebra evaluation.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> cache = TransitionCache(query.kernel, maxsize=16)
    >>> cache.transition(db) == query.kernel.transition(db)
    True
    >>> cache.transition(db) is cache.transition(db)   # memoized
    True
    >>> (cache.hits, cache.misses, cache.evictions)
    (2, 1, 0)
    """

    __slots__ = (
        "kernel", "maxsize", "_rows", "_view", "_lock", "_ready", "hits",
        "misses", "evictions",
    )

    def __init__(self, kernel: Interpretation, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ProbabilityError(f"cache maxsize must be >= 1, got {maxsize!r}")
        self.kernel = kernel
        self.maxsize = maxsize
        self._rows: OrderedDict[Database, CachedRow] = OrderedDict()
        self._view: RowView | None = None
        self._lock = threading.Lock()
        # Per thread: rows an ``expand`` call computed for its batch.
        self._ready = threading.local()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def row(self, state: Database) -> CachedRow:
        """The memoized row for ``state`` (computed on first request)."""
        with self._lock:
            row = self._rows.get(state)
            if row is not None:
                self.hits += 1
                self._rows.move_to_end(state)
                return row
            self.misses += 1
        ready = getattr(self._ready, "rows", None)
        row = ready.get(state) if ready is not None else None
        if row is None:
            row = CachedRow(self.kernel.transition(state))
        with self._lock:
            existing = self._rows.get(state)
            if existing is not None:
                # Another thread raced us to the same state; keep its
                # row so concurrent callers share one object.
                return existing
            self._rows[state] = row
            if len(self._rows) > self.maxsize:
                self._rows.popitem(last=False)
                self.evictions += 1
        return row

    def transition(self, state: Database) -> Distribution[Database]:
        """Memoized ``kernel.transition(state)``."""
        return self.row(state).distribution

    def expand(self, states: Sequence[Database]) -> list[Distribution[Database]]:
        """Memoized ``kernel.expand(states)``.

        Every state is looked up through :meth:`row`, so hits, misses
        and evictions count as ``len(states)`` calls of
        :meth:`transition` would count them; the rows missing when the
        call begins are computed with one ``kernel.expand``.  A row
        evicted by the batch's own insertions before its lookup comes
        back as a miss without being computed again.
        """
        with self._lock:
            known = {state: self._rows.get(state) for state in states}
        missing = [state for state, row in known.items() if row is None]
        if missing:
            for state, row in zip(missing, self.kernel.expand(missing)):
                known[state] = CachedRow(row)
        self._ready.rows = known
        try:
            return [self.row(state).distribution for state in states]
        finally:
            self._ready.rows = None

    def sample(self, state: Database, rng: random.Random) -> Database:
        """Draw one successor of ``state`` from the memoized exact row."""
        return self.row(state).sample(rng)

    def view(self) -> RowView:
        """The cache's current :class:`RowView` (made on first use)."""
        with self._lock:
            if self._view is None:
                self._view = RowView(self.maxsize)
            return self._view

    def walk(
        self,
        start: Database,
        uniforms: np.ndarray,
        tick: Callable[[int], None] | None = None,
    ) -> tuple[list[Database], np.ndarray]:
        """Walk ``len(uniforms)`` walkers from ``start`` in lockstep.

        Walker ``i`` takes step ``t`` with the uniform ``uniforms[i, t]``
        and lands where :meth:`sample` lands on a generator whose next
        draw is that uniform.  Counters keep their per-step meaning:
        every walker step is one hit or miss, as ``len(uniforms) *
        steps`` calls of :meth:`sample` would count them when nothing is
        evicted.  ``tick(n)`` is called after each step with the walker
        count, and with 0 after each row computed.

        Returns the distinct final states and, per walker, the index of
        its final state among them.
        """
        walkers = len(uniforms)
        view = self.view()
        with view.lock:
            ids = np.full(walkers, view.intern(start), dtype=np.int64)
        for column in uniforms.T:
            view, ids = self._step(view, ids, column, tick)
            if tick is not None:
                tick(walkers)
        final, which = np.unique(ids, return_inverse=True)
        return [view.states[index] for index in final.tolist()], which

    def _step(
        self,
        view: RowView,
        ids: np.ndarray,
        uniforms: np.ndarray,
        tick: Callable[[int], None] | None,
    ) -> tuple[RowView, np.ndarray]:
        """Advance every walker one step; returns the view and new ids."""

        def row(state: Database) -> CachedRow:
            found = self.row(state)
            if tick is not None:
                tick(0)
            return found

        todo = None  # walkers still to step: None for all of them
        lookups = 0
        while True:
            current = ids if todo is None else ids[todo]
            with view.lock:
                added, complete = view.expand(current, row)
                lookups += added
                if complete:
                    stepped = view.draw(
                        current, uniforms if todo is None else uniforms[todo]
                    )
                    break
                # The view is full: step the walkers it covers, then move
                # every walker into a fresh view for the rest.
                ready = view.start[current] >= 0
                chosen = np.flatnonzero(ready) if todo is None else todo[ready]
                ids[chosen] = view.draw(current[ready], uniforms[chosen])
            todo = np.flatnonzero(~ready) if todo is None else todo[~ready]
            view, ids = self._renewed(view, ids)
        if todo is None:
            ids = stepped
        else:
            ids[todo] = stepped
        with self._lock:
            self.hits += max(len(ids) - lookups, 0)
        return view, ids

    def _renewed(self, full: RowView, ids: np.ndarray) -> tuple[RowView, np.ndarray]:
        """Replace a full view (unless another walk already has) and move
        the walkers' states into the cache's current one."""
        with self._lock:
            if self._view is None or self._view is full:
                self._view = RowView(self.maxsize)
            view = self._view
        states = full.states
        with view.lock:
            moved = [view.intern(states[index]) for index in ids.tolist()]
        return view, np.array(moved, dtype=np.int64)

    def clear(self) -> None:
        """Drop all rows and the view (counters are kept — they describe
        the run)."""
        with self._lock:
            self._rows.clear()
            self._view = None

    def stats(self) -> dict:
        """JSON-friendly counter snapshot for :class:`RunReport`.

        All fields are read in one critical section, so a snapshot taken
        mid-eviction can never pair a new size with old counters.
        """
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
            size = len(self._rows)
        total = hits + misses
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": (hits / total) if total else None,
        }

    def __repr__(self) -> str:
        return (
            f"TransitionCache(size={len(self._rows)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
