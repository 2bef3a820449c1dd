"""Sparse certified-solver subsystem: CSR chains + residual-certified solves.

The degradation rung between exact and sampling (ROADMAP
"sparse/numeric solver rungs"): assemble the Prop 5.4 chain as a
``scipy.sparse`` CSR matrix by streaming frontier exploration
(:mod:`repro.sparse.assemble`), solve stationary distributions by
power iteration and absorption probabilities by SCC condensation plus
per-block sparse LU or CG/GMRES, chosen by predicted fill
(:mod:`repro.sparse.solve`),
and wrap every answer in a :class:`SolveCertificate` converting a
posteriori residual norms into a rigorous error interval
(:mod:`repro.sparse.certificate`).  Answers that cannot be certified
to the requested ``epsilon`` are refused
(:class:`~repro.errors.SolveRefusedError`), never returned.

See ``docs/sparse.md`` for the certificate mathematics and the rung's
position on the degradation ladder.
"""

from repro.sparse.assemble import (
    SparseChain,
    assemble_sparse_chain,
    sparse_chain_from_markov,
)
from repro.sparse.certificate import CertifiedResult, SolveCertificate
from repro.sparse.evaluate import (
    DEFAULT_SPARSE_EPSILON,
    evaluate_forever_sparse,
)
from repro.sparse.solve import solve_long_run

__all__ = [
    "CertifiedResult",
    "DEFAULT_SPARSE_EPSILON",
    "SolveCertificate",
    "SparseChain",
    "assemble_sparse_chain",
    "evaluate_forever_sparse",
    "solve_long_run",
    "sparse_chain_from_markov",
]
