"""Markov-chain substrate (Section 2.3 of the paper): finite chains,
structural analysis, stationary distributions, absorption into leaf
SCCs, mixing times, and random-walk simulation."""

from repro.markov.absorption import (
    absorption_probabilities,
    expected_absorption_time,
    long_run_event_probability,
    long_run_state_distribution,
)
from repro.markov.analysis import (
    classify,
    is_absorbing_state,
    is_aperiodic,
    is_ergodic,
    is_irreducible,
    is_positively_recurrent,
    leaf_components,
    period,
    period_of_component,
    reachable_states,
    strongly_connected_components,
)
from repro.markov.chain import MarkovChain, chain_from_edges
from repro.markov.conductance import (
    cheeger_bounds,
    conductance,
    is_reversible,
    set_conductance,
)
from repro.markov.linalg import identity, solve_exact, solve_exact_gauss, solve_exact_vector
from repro.markov.lumping import (
    coarsest_lumping,
    is_lumpable,
    lumped_event_probability,
    quotient_chain,
)
from repro.markov.passage import (
    expected_hitting_time,
    hitting_probability,
    hitting_time_distribution,
)
from repro.markov.mixing import (
    eigenvalue_gap,
    mixing_time,
    mixing_time_lower_bound,
    mixing_time_upper_bound,
    relaxation_time,
    tv_distance_curve,
    tv_from_stationary,
)
from repro.markov.simulate import (
    event_frequency,
    occupancy_frequencies,
    state_after,
    walk_states,
)
from repro.markov.stationary import (
    cesaro_average,
    is_stationary,
    power_iteration,
    stationary_distribution,
    stationary_distribution_float,
)

__all__ = [
    "MarkovChain",
    "absorption_probabilities",
    "cesaro_average",
    "chain_from_edges",
    "cheeger_bounds",
    "classify",
    "coarsest_lumping",
    "conductance",
    "eigenvalue_gap",
    "event_frequency",
    "expected_absorption_time",
    "expected_hitting_time",
    "hitting_probability",
    "hitting_time_distribution",
    "identity",
    "is_absorbing_state",
    "is_aperiodic",
    "is_ergodic",
    "is_irreducible",
    "is_lumpable",
    "is_positively_recurrent",
    "is_reversible",
    "is_stationary",
    "leaf_components",
    "long_run_event_probability",
    "long_run_state_distribution",
    "lumped_event_probability",
    "mixing_time",
    "mixing_time_lower_bound",
    "mixing_time_upper_bound",
    "occupancy_frequencies",
    "period",
    "period_of_component",
    "power_iteration",
    "quotient_chain",
    "reachable_states",
    "relaxation_time",
    "set_conductance",
    "solve_exact",
    "solve_exact_gauss",
    "solve_exact_vector",
    "state_after",
    "stationary_distribution",
    "stationary_distribution_float",
    "strongly_connected_components",
    "tv_distance_curve",
    "tv_from_stationary",
    "walk_states",
]
