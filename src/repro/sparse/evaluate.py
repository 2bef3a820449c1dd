"""The sparse certified rung: forever-query evaluation at scale.

Same semantic object as
:func:`~repro.core.evaluation.evaluate_forever_exact` — the Definition
3.2 long-run event probability over the Prop 5.4 chain — but the chain
is streamed into CSR form (:mod:`repro.sparse.assemble`) and solved
with a posteriori certification
(:mod:`repro.sparse.solve`).  The contract that makes this a
first-class degradation rung rather than a fast-but-loose path:

* every answer carries a :class:`~repro.sparse.SolveCertificate`;
* an answer whose certified bound exceeds the requested ``epsilon`` is
  *never returned* — the evaluator raises
  :class:`~repro.errors.SolveRefusedError` and the ladder falls
  through to the exact/lumped/MCMC rungs with the reason recorded on
  the :class:`~repro.runtime.RunReport`.

Metrics (when the run context carries a registry):
``repro_sparse_solves_total`` (outcome label), ``repro_sparse_refusals_total``,
``repro_sparse_solve_iterations`` and ``repro_sparse_certified_bound``
histograms.  Trace spans: ``sparse-assemble`` and ``sparse-solve``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.chain_builder import DEFAULT_MAX_STATES
from repro.core.queries import ForeverQuery
from repro.errors import SolveRefusedError
from repro.obs.trace import phase_scope
from repro.relational.database import Database
from repro.sparse.assemble import assemble_sparse_chain
from repro.sparse.certificate import CertifiedResult, SolveCertificate
from repro.sparse.solve import solve_long_run

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.context import RunContext

__all__ = ["evaluate_forever_sparse", "DEFAULT_SPARSE_EPSILON"]

#: Default certified accuracy of the sparse rung.  Far tighter than the
#: sampling rungs' default (0.1): the solver is deterministic and the
#: bound is usually near machine precision, so a loose default would
#: hide real regressions.
DEFAULT_SPARSE_EPSILON = 1e-6


def _observe(
    context: "RunContext | None",
    certificate: SolveCertificate,
    outcome: str,
) -> None:
    metrics = getattr(context, "metrics", None) if context is not None else None
    if metrics is None:
        return
    metrics.counter(
        "repro_sparse_solves_total",
        "Sparse certified solves by outcome",
    ).inc(outcome=outcome)
    if outcome == "refused":
        metrics.counter(
            "repro_sparse_refusals_total",
            "Sparse solves refused because the certificate missed epsilon",
        ).inc()
    metrics.histogram(
        "repro_sparse_solve_iterations",
        "Iterative-solver iterations per sparse solve",
        buckets=(10, 100, 1_000, 10_000, 100_000),
    ).observe(float(certificate.iterations))
    metrics.histogram(
        "repro_sparse_certified_bound",
        "Certified error bound per sparse solve",
        buckets=(1e-12, 1e-9, 1e-6, 1e-3, 1.0),
    ).observe(float(certificate.bound))


def evaluate_forever_sparse(
    query: ForeverQuery,
    initial: Database,
    epsilon: float = DEFAULT_SPARSE_EPSILON,
    delta: float = 0.0,
    max_states: int = DEFAULT_MAX_STATES,
    max_iterations: int = 50_000,
    context: "RunContext | None" = None,
) -> CertifiedResult:
    """Certified float64 result of a forever-query.

    The rung lowers the query (:func:`repro.kernel.lower`) and so runs
    on the columnar kernel whenever the program lowers; an ineligible
    program streams off the interpreter, with the reason recorded.  The
    answer is identical either way — only assembly speed differs.

    Raises
    ------
    SolveRefusedError
        When the certified bound cannot meet ``epsilon``.  The rung
        refuses rather than return an uncertified float; degradation
        ladders treat this exactly like a state-space overflow.
    StateSpaceLimitExceeded
        When the reachable chain outgrows ``max_states``.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> result = evaluate_forever_sparse(query, db, epsilon=1e-9)
    >>> round(result.probability, 9)
    0.25
    >>> result.certificate.satisfies()
    True
    """
    from repro.kernel.lowering import lower, lowered

    query, initial = lower(query, initial, context)
    with phase_scope(context, "sparse-assemble") as scope:
        chain = assemble_sparse_chain(
            query.kernel,
            initial,
            event=query.event.holds,
            max_states=max_states,
            context=context,
        )
        scope.annotate(states=chain.size, nnz=chain.nnz)
    if context is not None:
        context.check()
    with phase_scope(context, "sparse-solve", states=chain.size) as scope:
        value, certificate, structure = solve_long_run(
            chain, epsilon=epsilon, delta=delta, max_iterations=max_iterations
        )
        scope.annotate(
            iterations=certificate.iterations, bound=certificate.bound
        )
    structure["backend"] = "columnar" if lowered(query) else "frozenset"
    if not certificate.satisfies():
        _observe(context, certificate, "refused")
        raise SolveRefusedError(
            f"sparse solve certified |error| <= {certificate.bound:.3e}, "
            f"which misses the requested epsilon={epsilon:.3e} "
            f"after {certificate.iterations} iterations; refusing to "
            "return an uncertified answer",
            details={
                "epsilon": epsilon,
                "delta": delta,
                "certified_bound": certificate.bound,
                "residual_norm": certificate.residual_norm,
                "iterations": certificate.iterations,
                "states": chain.size,
            },
        )
    _observe(context, certificate, "ok")
    method = (
        "sparse-prop-5.4" if structure["irreducible"] else "sparse-thm-5.5"
    )
    return CertifiedResult(
        probability=value,
        certificate=certificate,
        states_explored=chain.size,
        method=method,
        details=structure,
    )
