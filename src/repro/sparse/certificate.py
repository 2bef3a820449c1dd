"""Residual-derived error certificates for iterative chain solves.

Every answer the sparse rung returns is wrapped in a
:class:`SolveCertificate` that converts a posteriori residual norms
into a rigorous error interval.  The mathematics is the classical
M-matrix argument (see ``docs/sparse.md`` for the derivation):

* Absorption systems ``(I - Q) x = b`` over the transient states have
  ``(I - Q)^{-1} >= 0`` elementwise, so an approximate solution
  ``x̂`` with residual ``r = b - (I - Q) x̂`` satisfies
  ``|x - x̂| <= ||r||_inf * t`` where ``t = (I - Q)^{-1} 1`` is the
  expected-exit-time vector.  ``t`` itself is certified from its own
  residual: if ``t̂`` solves ``(I - Q) t = 1`` with residual ``s`` and
  ``||s||_inf < 1``, then ``t <= t̂ / (1 - ||s||_inf)`` elementwise.
* Stationary distributions of an irreducible block are certified
  through the regeneration (expected-visits) system anchored at a
  reference state, which is again a nonsingular M-matrix system.

The certificate is *deterministic*: the solver never samples, so the
requested failure probability ``delta`` is met trivially (failure
probability zero) and refusal is decided purely on ``epsilon``.  The
bound includes a documented float64 rounding margin; it is rigorous
under the standard model of IEEE-754 arithmetic, not a formally
verified interval computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["SolveCertificate", "CertifiedResult"]


@dataclass(frozen=True)
class SolveCertificate:
    """A rigorous a posteriori accuracy statement for one answer.

    Attributes
    ----------
    bound:
        Certified upper bound on ``|answer - exact|``.
    residual_norm:
        Largest infinity-norm residual across the component solves the
        answer was assembled from.
    epsilon / delta:
        The accuracy contract the solve was asked for.  ``delta`` is
        recorded for interface symmetry with the sampling rungs; the
        solver is deterministic, so its effective failure probability
        is zero.
    iterations:
        Total iterative-solver iterations (power-iteration steps plus
        Krylov iterations) spent across all component solves.
    solver:
        The solvers that produced the answer, ``+``-joined in first-use
        order: ``power`` (the power iteration that picks a stationary
        block's anchor), ``direct`` (sparse-LU factorisations), ``cg``
        and ``gmres`` (Krylov runs on systems too costly to factor) —
        e.g. ``"power+direct"`` for a factored irreducible chain,
        ``"direct"`` for absorption into single-state leaves,
        ``"exact"`` when no system needed solving.
    components:
        Number of certified sub-solves combined (leaf SCCs plus the
        absorption system).
    """

    bound: float
    residual_norm: float
    epsilon: float
    delta: float
    iterations: int
    solver: str
    components: int = 1

    def __post_init__(self) -> None:
        if self.bound < 0.0:
            raise ValueError(f"certified bound {self.bound} is negative")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon {self.epsilon} must be positive")

    def satisfies(self, epsilon: float | None = None) -> bool:
        """Whether the certified bound meets the (requested) tolerance."""
        target = self.epsilon if epsilon is None else epsilon
        return self.bound <= target

    def as_dict(self) -> dict[str, Any]:
        return {
            "bound": self.bound,
            "residual_norm": self.residual_norm,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "iterations": self.iterations,
            "solver": self.solver,
            "components": self.components,
            "satisfied": self.satisfies(),
        }


@dataclass(frozen=True)
class CertifiedResult:
    """A float64 query probability with a rigorous error certificate.

    The sparse rung's counterpart of
    :class:`~repro.core.evaluation.results.ExactResult`: the
    probability is a float, and it never travels without a
    :class:`SolveCertificate` proving how far from the exact rational
    answer it can be.
    """

    probability: float
    certificate: SolveCertificate
    states_explored: int
    method: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")

    @property
    def interval(self) -> tuple[float, float]:
        """The certified enclosure of the exact answer, clipped to [0, 1]."""
        return (
            max(0.0, self.probability - self.certificate.bound),
            min(1.0, self.probability + self.certificate.bound),
        )
