"""Certified solves on CSR chains (Prop 5.4 / Thm 5.5 shape).

Every linear system is a nonsingular M-matrix solved by one
:class:`_System`: factored once by sparse LU (SuperLU) when its
elimination is cheap, else solved per right-hand side by a Krylov run
(CG when symmetric, restarted GMRES otherwise) and factored only after
a run misses its budget.  The certificates trust none of it, only
residuals measured afterwards:

* **Stationary mass** of an irreducible block — power iteration on the
  lazified matrix ``(P + I) / 2`` (same stationary distribution,
  provably aperiodic, so periodic blocks converge too) picks the anchor
  ``s``, the state of largest mass.  The answer is certified through
  the *regeneration system*: the expected-visits vector ``w`` (visits
  to each other state between returns to ``s``) solves
  ``(I - Q̃)ᵀ wᵀ = pᵀ`` and the stationary distribution is
  ``π = (1, w) / (1 + Σw)`` up to relabelling.  ``ŵ`` is whichever of
  that system's solution and the power iterate's ratio ``μ / μ(s)``
  has the smaller residual; with the amplifier ``ĉ`` of
  ``(I - Q̃)ᵀ c = 1`` it gives the elementwise enclosure
  ``|w - ŵ| <= ||r||_inf · ĉ / (1 - ||s_c||_inf)``.
* **Absorption probabilities** into the leaf SCCs — the system
  ``I - Q`` over the transient states yields every leaf's ``â`` of
  ``(I - Q) a = b`` and the expected-exit-time amplifier of
  ``(I - Q) t = 1``, which certifies them:
  ``|a - â|(start) <= ||r||_inf · t̂(start) / (1 - ||s||_inf)``.

A factorisation that float64 rounding made exactly singular (a
self-loop of ``1 - 1e-17`` rounds to 1, so ``I - Q`` gets a zero
column) leaves its system without an amplifier, and the enclosure
degrades to ``(0, 1)``.  Both bounds rest on the inverse-positivity of
M-matrices (``(I - Q)^{-1} >= 0`` for substochastic ``Q`` with spectral
radius below one); every residual carries the float64 error of its own
evaluation.  See ``docs/sparse.md`` for the derivation, the solver
choice and the rounding allowance added on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse import csgraph as _csgraph
from scipy.sparse import linalg as _spla

from repro.errors import MarkovChainError
from repro.sparse.assemble import SparseChain
from repro.sparse.certificate import SolveCertificate

__all__ = ["solve_long_run"]

#: Amplification solves only need a loose residual; past this the
#: enclosure ``c <= ĉ / (1 - ||s||_inf)`` stops being usable.
_MAX_AMPLIFIER_RESIDUAL = 0.5

#: Inner-iteration cap per Krylov run, and the yardstick for factoring:
#: a system is factored when its elimination costs at most this many
#: matrix–vector products.
_KRYLOV_BUDGET = 512

_EPS = float(np.finfo(np.float64).eps)


def _rounding_margin(size: int) -> float:
    """Allowance for float64 summation/rounding across one component.

    Numpy reduces with pairwise summation, so accumulated rounding
    grows with ``log2`` of the term count; the factor 64 is a generous
    envelope over the handful of dependent operations per entry.
    """
    return 64.0 * _EPS * (1.0 + float(np.log2(size + 2)))


@dataclass
class _Tally:
    """Running totals across the component solves of one answer."""

    iterations: int = 0
    residual_norm: float = 0.0
    solvers: tuple[str, ...] = ()

    def absorb(self, iterations: int, residual: float, solver: str) -> None:
        self.iterations += int(iterations)
        self.residual_norm = max(self.residual_norm, float(residual))
        if solver and solver not in self.solvers:
            self.solvers = self.solvers + (solver,)


def _identity_minus(q: Any) -> Any:
    return (_sparse.identity(q.shape[0], format="csr") - q).tocsr()


def _elimination_work(matrix: Any) -> float:
    """Multiply–adds of eliminating ``matrix`` inside its envelope.

    Renumbered in reverse Cuthill–McKee order, elimination without
    pivoting (an M-matrix needs none) fills nothing outside the
    envelope of the symmetrised pattern, so ``Σ w_i²`` over its row
    widths ``w_i`` bounds the work: about ``n`` on path- and cycle-like
    chains, towards ``n³`` on well-connected ones.  SuperLU factors in
    its own column order, which filled less than this envelope on every
    chain shape measured (``docs/sparse.md``).
    """
    n = matrix.shape[0]
    position = np.empty(n, dtype=np.int64)
    position[_csgraph.reverse_cuthill_mckee(matrix)] = np.arange(n)
    coo = matrix.tocoo()
    row, col = position[coo.row], position[coo.col]
    first = np.arange(n)
    np.minimum.at(first, np.maximum(row, col), np.minimum(row, col))
    width = (np.arange(n) - first).astype(np.float64)
    return float(width @ width)


class _System:
    """A nonsingular M-matrix (``I - Q`` shape) and its solves.

    Factored once by SuperLU when :func:`_elimination_work` is at most
    ``_KRYLOV_BUDGET`` matrix–vector products, and every right-hand
    side solved from that factor; otherwise CG (symmetric) or
    restarted GMRES per right-hand side, factored only once a run
    misses its budget.  An exactly singular factor answers NaN, which
    fails every residual check.
    """

    def __init__(self, matrix: Any, tally: _Tally) -> None:
        self.matrix = matrix
        # |A| from the arrays: ``abs(matrix)`` would sort ``matrix``'s
        # indices in place and change the rounding of ``matrix @ x``.
        self.magnitude = _sparse.csr_matrix(
            (np.abs(matrix.data), matrix.indices, matrix.indptr),
            shape=matrix.shape)
        self.terms = np.diff(matrix.indptr) + 2
        self.tally = tally
        self.lu: Any = None
        self.krylov = _elimination_work(matrix) > _KRYLOV_BUDGET * matrix.nnz
        self.symmetric = self.krylov and (matrix != matrix.T).nnz == 0
        if not self.krylov:
            self._factor()

    def _factor(self) -> None:
        self.krylov = False
        self.tally.absorb(0, 0.0, "direct")
        try:
            self.lu = _spla.splu(self.matrix.tocsc())
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            self.lu = None

    def solve(self, rhs: np.ndarray, rtol: float) -> np.ndarray:
        if self.krylov:
            steps = [0]

            def count(_arg: object) -> None:
                steps[0] += 1

            if self.symmetric:
                x, info = _spla.cg(self.matrix, rhs, rtol=rtol, atol=0.0,
                                   maxiter=_KRYLOV_BUDGET, callback=count)
            else:
                # gmres counts restart cycles in maxiter: convert the
                # inner-iteration budget so both spend comparable work.
                x, info = _spla.gmres(self.matrix, rhs, rtol=rtol, atol=0.0,
                                      restart=64, maxiter=_KRYLOV_BUDGET // 64,
                                      callback=count, callback_type="pr_norm")
            self.tally.absorb(steps[0], 0.0,
                              "cg" if self.symmetric else "gmres")
            if info == 0:
                return np.asarray(x)
            self._factor()
        if self.lu is None:
            return np.full(rhs.shape, np.nan)
        return np.asarray(self.lu.solve(rhs))

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """``max|rhs - A x|`` plus the float64 error of computing it.

        Row ``i`` of ``A x`` sums ``k_i`` products, so under the
        IEEE-754 standard model the computed residual is off by at most
        ``(k_i + 2) · eps · (|rhs| + |A| |x|)_i``, with room for the
        rounding of ``1 - q_ii`` when ``A`` was formed and of this bound
        itself.
        """
        slack = self.terms * _EPS * (np.abs(rhs) + self.magnitude @ np.abs(x))
        return float(np.max(np.abs(rhs - self.matrix @ x) + slack))

    def amplifier(self) -> np.ndarray | None:
        """Certified elementwise upper bound on ``A^{-1} @ 1``.

        Returns ``None`` when even the loose residual the enclosure
        needs is missed (a NaN residual misses it too) — the caller
        then has no finite certificate and must refuse.
        """
        ones = np.ones(self.matrix.shape[0])
        c_hat = self.solve(ones, 1e-10)
        residual = self.residual(c_hat, ones)
        if not residual < _MAX_AMPLIFIER_RESIDUAL:
            return None
        return np.maximum(c_hat, 0.0) / (1.0 - residual)


def _power_iterate(matrix: Any, tolerance: float, maxiter: int,
                   tally: _Tally) -> np.ndarray:
    """Power iteration for the stationary vector of an irreducible block.

    Iterates ``μ ← μ (P + I) / 2`` from uniform; lazification keeps
    the spectrum in the right half plane, so periodic blocks converge
    to the same ``π`` instead of oscillating.  Stops on the L1 step
    change; the caller certifies the result independently, so an
    early exit here can only inflate the certified bound, never break
    its rigour.
    """
    n = matrix.shape[0]
    transposed = matrix.T.tocsr()
    mu = np.full(n, 1.0 / n)
    steps = 0
    for steps in range(1, maxiter + 1):
        nxt = 0.5 * (mu + transposed @ mu)
        total = nxt.sum()
        if total > 0.0:
            nxt /= total
        change = float(np.abs(nxt - mu).sum())
        mu = nxt
        if change < tolerance:
            break
    tally.absorb(steps, 0.0, "power")
    return mu


def _stationary_event_interval(
    block: Any,
    mask: np.ndarray,
    rtol: float,
    maxiter: int,
    tally: _Tally,
) -> tuple[float, float]:
    """Certified enclosure of the event mass under the block's π."""
    m = block.shape[0]
    if m == 1:
        value = 1.0 if mask[0] else 0.0
        return value, value
    if not mask.any():
        return 0.0, 0.0
    if mask.all():
        return 1.0, 1.0
    power_tol = max(m * _EPS, min(1e-12, rtol))
    mu = _power_iterate(block, power_tol, maxiter, tally)
    anchor = int(np.argmax(mu))
    keep = np.delete(np.arange(m), anchor)
    q_tilde = block[keep][:, keep]
    p_row = block[anchor].toarray().ravel()[keep]
    system = _System(_identity_minus(q_tilde).T.tocsr(), tally)
    w_hat = mu[keep] / mu[anchor] if mu[anchor] > 0.0 else mu[keep]
    residual = system.residual(w_hat, p_row)
    amplifier = system.amplifier()
    if amplifier is None:
        tally.absorb(0, residual, "")
        return 0.0, 1.0
    # Keep the power ratio unless the solved ŵ has a smaller residual,
    # so the certificate can only tighten.
    w_solved = system.solve(p_row, rtol)
    residual_solved = system.residual(w_solved, p_row)
    if residual_solved < residual:
        w_hat, residual = w_solved, residual_solved
    tally.absorb(0, residual, "")
    delta = residual * amplifier
    w_lo = np.maximum(w_hat - delta, 0.0)
    w_hi = w_hat + delta
    in_event = mask[keep]
    anchor_mass = 1.0 if mask[anchor] else 0.0
    numerator_lo = float(w_lo[in_event].sum()) + anchor_mass
    numerator_hi = float(w_hi[in_event].sum()) + anchor_mass
    denominator_lo = 1.0 + float(w_lo.sum())
    denominator_hi = 1.0 + float(w_hi.sum())
    margin = _rounding_margin(m)
    low = max(0.0, numerator_lo / denominator_hi - margin)
    high = min(1.0, numerator_hi / denominator_lo + margin)
    return low, high


def _absorption_intervals(
    rows: Any,
    leaf_sizes: np.ndarray,
    start: int,
    rtol: float,
    tally: _Tally,
) -> list[tuple[float, float]]:
    """Certified absorption-probability enclosures from ``start``.

    ``rows`` are the transient states' rows, columns ordered transient
    states first and then each leaf's states, leaf by leaf, with
    ``leaf_sizes`` states each; ``start`` is a transient index.
    Returns one ``(low, high)`` per leaf, in that order; every one is
    ``(0, 1)`` when the exit-time amplifier cannot be certified.
    """
    transient = rows.shape[0]
    system = _System(_identity_minus(rows[:, :transient]), tally)
    amplifier = system.amplifier()
    if amplifier is None:
        return [(0.0, 1.0)] * len(leaf_sizes)
    # Column k of ``into``: the one-step probability of entering leaf k.
    leaf_of = np.repeat(np.arange(len(leaf_sizes)), leaf_sizes)
    collect = _sparse.csr_matrix(
        (np.ones(len(leaf_of)), (np.arange(len(leaf_of)), leaf_of)),
        shape=(len(leaf_of), len(leaf_sizes)),
    )
    into = (rows[:, transient:] @ collect).tocsc()
    margin = _rounding_margin(transient)
    intervals: list[tuple[float, float]] = []
    for k in range(len(leaf_sizes)):
        rhs = into[:, [k]].toarray().ravel()
        a_hat = system.solve(rhs, rtol)
        residual = system.residual(a_hat, rhs)
        tally.absorb(0, residual, "")
        error = residual * float(amplifier[start]) + margin
        value = float(a_hat[start])
        intervals.append((max(0.0, value - error), min(1.0, value + error)))
    return intervals


def solve_long_run(
    chain: SparseChain,
    epsilon: float,
    delta: float = 0.0,
    max_iterations: int = 50_000,
) -> tuple[float, SolveCertificate, dict[str, Any]]:
    """Certified Definition 3.2 long-run event probability of a chain.

    Returns ``(value, certificate, structure)`` where ``structure``
    mirrors :func:`repro.markov.analysis.classify` in integer-id
    space.  Never raises on accuracy grounds — callers compare
    ``certificate.satisfies()`` and decide whether to refuse (the
    sparse evaluator turns dissatisfaction into
    :class:`~repro.errors.SolveRefusedError`).  ``max_iterations``
    caps the power iteration of each leaf block.

    Raises :class:`~repro.errors.MarkovChainError` for structurally
    broken inputs (non-stochastic rows).
    """
    if epsilon <= 0.0:
        raise MarkovChainError(f"epsilon must be positive, got {epsilon}")
    matrix = chain.matrix
    n = matrix.shape[0]
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    if n and float(np.max(np.abs(row_sums - 1.0))) > 1e-9:
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise MarkovChainError(
            f"row {worst} sums to {row_sums[worst]!r}; the chain is not "
            "closed (every state needs a full outgoing distribution)",
            details={"row": worst, "row_sum": float(row_sums[worst])},
        )
    rtol = max(1e-14, min(1e-10, epsilon * 1e-3))
    tally = _Tally()
    n_components, labels = _csgraph.connected_components(
        matrix, directed=True, connection="strong"
    )
    # A leaf SCC is one that no transition leaves.
    coo = matrix.tocoo()
    source, target = labels[coo.row], labels[coo.col]
    is_leaf = np.ones(n_components, dtype=bool)
    is_leaf[source[source != target]] = False
    in_leaf = is_leaf[labels]
    transient = n - int(np.count_nonzero(in_leaf))
    # Renumber the states: transient ones first, then each leaf's in
    # label order, keeping id order within each group, so every block
    # below is a contiguous slice of one permuted matrix.
    order = np.argsort(np.where(in_leaf, labels, -1), kind="stable")
    permuted = matrix[order][:, order]
    event_mask = chain.event_mask[order]
    leaf_sizes = np.bincount(labels, minlength=n_components)[is_leaf]
    leaf_stops = transient + np.cumsum(leaf_sizes)
    structure: dict[str, Any] = {
        "states": n,
        "nnz": chain.nnz,
        "sccs": int(n_components),
        "leaf_sccs": len(leaf_sizes),
        "irreducible": n_components == 1,
        "transient_states": transient,
    }

    def leaf_interval(k: int) -> tuple[float, float]:
        block = slice(int(leaf_stops[k] - leaf_sizes[k]), int(leaf_stops[k]))
        return _stationary_event_interval(
            permuted[block, block], event_mask[block], rtol, max_iterations,
            tally,
        )

    start = int(np.flatnonzero(order == chain.initial_index)[0])
    if start >= transient:
        # Already inside a closed component (covers the irreducible
        # case): the answer is that component's stationary event mass.
        low, high = leaf_interval(int(np.searchsorted(leaf_stops, start, "right")))
    else:
        absorption = _absorption_intervals(
            permuted[:transient], leaf_sizes, start, rtol, tally
        )
        low = high = 0.0
        for k, (a_lo, a_hi) in enumerate(absorption):
            if a_hi <= 0.0:
                continue
            e_lo, e_hi = leaf_interval(k)
            low += a_lo * e_lo
            high += a_hi * e_hi
    margin = _rounding_margin(n)
    low = max(0.0, low - margin)
    high = min(1.0, high + margin)
    value = min(1.0, max(0.0, 0.5 * (low + high)))
    bound = max(0.0, 0.5 * (high - low)) + margin
    certificate = SolveCertificate(
        bound=bound,
        residual_norm=tally.residual_norm,
        epsilon=epsilon,
        delta=delta,
        iterations=tally.iterations,
        solver="+".join(tally.solvers) if tally.solvers else "exact",
        components=max(1, len(leaf_sizes)),
    )
    return value, certificate, structure
