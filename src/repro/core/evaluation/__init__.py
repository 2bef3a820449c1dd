"""Query-evaluation algorithms (Sections 4 and 5 of the paper)."""

from repro.core.evaluation.exact_inflationary import (
    absorption_event_probability,
    evaluate_inflationary_exact,
    fixpoint_masses,
)
from repro.core.evaluation.exact_noninflationary import evaluate_forever_exact
from repro.core.evaluation.lumped import evaluate_forever_lumped
from repro.core.evaluation.passage import (
    event_expected_hitting_time,
    event_hitting_probability,
    event_hitting_time_distribution,
    forever_state_distribution,
    inflationary_fixpoint_distribution,
)
from repro.core.evaluation.results import (
    ExactResult,
    ExactSolution,
    SamplingResult,
    SolutionStore,
)
from repro.core.evaluation.series import (
    event_occupancy_series,
    event_probability_series,
    query_pc_database,
)
from repro.core.evaluation.sampling_inflationary import (
    evaluate_inflationary_sampling,
    sample_fixpoint,
)
from repro.core.evaluation.sampling_noninflationary import (
    adaptive_burn_in,
    computed_burn_in,
    evaluate_forever_mcmc,
)

__all__ = [
    "ExactResult",
    "ExactSolution",
    "SamplingResult",
    "SolutionStore",
    "absorption_event_probability",
    "adaptive_burn_in",
    "computed_burn_in",
    "evaluate_forever_exact",
    "evaluate_forever_lumped",
    "evaluate_forever_mcmc",
    "evaluate_inflationary_exact",
    "evaluate_inflationary_sampling",
    "event_expected_hitting_time",
    "event_hitting_probability",
    "event_hitting_time_distribution",
    "event_occupancy_series",
    "event_probability_series",
    "fixpoint_masses",
    "forever_state_distribution",
    "inflationary_fixpoint_distribution",
    "query_pc_database",
    "sample_fixpoint",
]
