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
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from collections import OrderedDict
from itertools import accumulate

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

    def _build_index(self) -> tuple[list[Database], list[float]]:
        outcomes = sorted(self.distribution, key=database_sort_key)
        cumulative = list(
            accumulate(float(self.distribution.probability(o)) for o in outcomes)
        )
        self._index = (outcomes, cumulative)
        return self._index

    def sample(self, rng: random.Random) -> Database:
        """Draw one successor state (one uniform draw, one bisection)."""
        outcomes, cumulative = self._index or self._build_index()
        pick = rng.random() * cumulative[-1]
        index = bisect_right(cumulative, pick)
        if index >= len(outcomes):
            index = len(outcomes) - 1
        return outcomes[index]

    def __len__(self) -> int:
        return len(self.distribution)


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

    __slots__ = ("kernel", "maxsize", "_rows", "_lock", "hits", "misses", "evictions")

    def __init__(self, kernel: Interpretation, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ProbabilityError(f"cache maxsize must be >= 1, got {maxsize!r}")
        self.kernel = kernel
        self.maxsize = maxsize
        self._rows: OrderedDict[Database, CachedRow] = OrderedDict()
        self._lock = threading.Lock()
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

    def sample(self, state: Database, rng: random.Random) -> Database:
        """Draw one successor of ``state`` from the memoized exact row."""
        return self.row(state).sample(rng)

    def clear(self) -> None:
        """Drop all rows (counters are kept — they describe the run)."""
        with self._lock:
            self._rows.clear()

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
