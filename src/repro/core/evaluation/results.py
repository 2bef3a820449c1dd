"""Result types returned by the query evaluators.

Exact evaluators return :class:`ExactResult` with an exact rational
probability; sampling evaluators return :class:`SamplingResult` with the
estimate and the (ε, δ) guarantee it was planned for.  Both carry a
``details`` mapping with algorithm-specific diagnostics (state counts,
mixing times, per-world breakdowns) consumed by the benchmarks.

Every exact rung first computes an :class:`ExactSolution`: one
event-independent distribution (long-run occupancy or fixpoint
distribution) whose mass on the states where an event holds is that
event's answer.  A :class:`SolutionStore` keeps one per kernel so that
an :class:`~repro.service.EngineSession` solves its program once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.obs.trace import phase_scope

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.context import RunContext


@dataclass(frozen=True)
class ExactResult:
    """An exactly computed query probability.

    Attributes
    ----------
    probability:
        The query result, as an exact rational.
    states_explored:
        Number of distinct states the algorithm expanded (computation
        tree states for inflationary queries, Markov-chain states for
        forever-queries).
    method:
        Which algorithm produced the result (e.g. ``"prop-4.4"``).
    details:
        Extra diagnostics (chain classification, world counts, ...).
    """

    probability: Fraction
    states_explored: int
    method: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class ExactSolution:
    """An exact rung's event-independent solution (Definition 3.2).

    ``masses`` maps each support state to its exact probability: the
    long-run occupancy of a forever-query's chain (Prop 5.4 / Thm 5.5)
    or the fixpoint distribution of an inflationary query or datalog
    program (Prop 4.4).  An event's answer is the mass of the support
    states where it holds, so one solution answers every event.
    ``states_explored``, ``method`` and ``details`` are those of every
    :class:`ExactResult` it answers.  ``world_states`` is the largest
    pc-table world's share of ``states_explored`` (``max_states``
    bounds each world, and the worlds' counts add up); ``None`` means
    one world, all of ``states_explored``.
    """

    masses: Mapping[Any, Fraction]
    states_explored: int
    method: str
    details: Mapping[str, Any] = field(default_factory=dict)
    world_states: int | None = None

    @property
    def states_needed(self) -> int:
        """The smallest ``max_states`` a fresh solve succeeds under."""
        if self.world_states is None:
            return self.states_explored
        return self.world_states

    def answer(self, event: Callable[[Any], bool]) -> ExactResult:
        """The exact result of ``event``, a predicate on support states."""
        probability = sum(
            (mass for state, mass in self.masses.items() if event(state)),
            Fraction(0),
        )
        return ExactResult(
            probability, self.states_explored, self.method, self.details
        )


class SolutionStore:
    """At most one :class:`ExactSolution` per kernel, shared by the
    requests of one :class:`~repro.service.EngineSession`.

    Kernels are matched by identity (a session's frozenset kernel, its
    compiled kernel or its datalog program).  :meth:`answer` solves
    under the store's lock, so the concurrent first requests of a
    kernel build one chain.  A solution is kept only when its support
    fits in ``capacity`` states, and reused only by a request whose
    ``max_states`` admits the states each of its worlds explored (a
    lower limit solves afresh and overflows as it would without the
    store).  A solve that raises (cancelled, out of budget, over
    ``max_states``) keeps nothing.
    """

    #: Seconds between cancellation checks while another request solves.
    POLL_S = 0.05

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._solutions: dict[int, tuple[Any, ExactSolution]] = {}

    def __len__(self) -> int:
        return len(self._solutions)

    def get(self, kernel: Any) -> ExactSolution | None:
        """The stored solution for ``kernel``, if any."""
        kept = self._solutions.get(id(kernel))
        return kept[1] if kept is not None else None

    @contextmanager
    def _held(self, context: "RunContext | None") -> Iterator[None]:
        while not self._lock.acquire(timeout=self.POLL_S):
            if context is not None:
                context.check()
        try:
            yield
        finally:
            self._lock.release()

    def answer(
        self,
        kernel: Any,
        event: Callable[[Any], bool],
        max_states: int,
        context: "RunContext | None",
        solve: Callable[[], tuple[ExactSolution, ExactResult]],
    ) -> ExactResult:
        """``event``'s result from the stored solution for ``kernel``, or
        from ``solve()``: the evaluator's fresh solve, returning the
        solution (kept if it fits) and the event's answer.

        A reused answer runs in a ``solve`` phase annotated
        ``reused=True`` and notes the reuse among the run's events.
        """
        with self._held(context):
            stored = self.get(kernel)
            if stored is None or stored.states_needed > max_states:
                solution, result = solve()
                if stored is None and len(solution.masses) <= self.capacity:
                    self._solutions[id(kernel)] = (kernel, solution)
                return result
        with phase_scope(
            context, "solve", states=stored.states_explored, reused=True
        ):
            if context is not None:
                context.record_event(
                    f"reused the stored {stored.method} solution "
                    f"({len(stored.masses)} support states, "
                    f"{stored.states_explored} explored)"
                )
            return stored.answer(event)


@dataclass(frozen=True)
class SamplingResult:
    """A Monte-Carlo estimate of a query probability.

    Attributes
    ----------
    estimate:
        The empirical probability (successes / samples).
    samples:
        Number of independent samples drawn.
    positive:
        Number of samples on which the event held.
    epsilon / delta:
        The additive accuracy and failure probability the sample count
        was planned for (``None`` when the caller fixed ``samples``
        directly).
    method:
        Which algorithm produced the result (e.g. ``"thm-4.3"``).
    details:
        Extra diagnostics (burn-in, mixing time, steps per sample, ...).
    """

    estimate: float
    samples: int
    positive: int
    epsilon: float | None
    delta: float | None
    method: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("a sampling result needs at least one sample")
        if not 0 <= self.positive <= self.samples:
            raise ValueError("positive count outside [0, samples]")
