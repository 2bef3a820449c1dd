"""repro — probabilistic fixpoint and Markov chain query languages.

A from-scratch reproduction of Deutch, Koch & Milo, *On Probabilistic
Fixpoint and Markov Chain Query Languages* (PODS 2010): relational
algebra with the ``repair-key`` construct, probabilistic c-tables,
probabilistic datalog with probabilistic rules, inflationary and
non-inflationary (forever-query / Markov-chain) semantics, the paper's
exact and sampling evaluation algorithms, and its two 3-SAT hardness
constructions.

Quickstart
----------
>>> from fractions import Fraction
>>> import repro
>>> graph = repro.cycle_graph(4)
>>> query, db = repro.random_walk_query(graph, start="n0", target="n2")
>>> repro.evaluate_forever_exact(query, db).probability
Fraction(1, 4)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    ForeverQuery,
    InflationaryQuery,
    Interpretation,
    QueryEvent,
    RelationNonEmpty,
    TupleIn,
    build_state_chain,
    evaluate_forever_exact,
    evaluate_forever_mcmc,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
    inflationary_interpretation,
    simulate_trajectory,
)
from repro.core.evaluation import ExactResult, SamplingResult
from repro.ctables import CTable, PCDatabase, boolean_variable, var_eq, var_ne
from repro.datalog import (
    InflationaryDatalogEngine,
    Program,
    Rule,
    evaluate_datalog_exact,
    evaluate_datalog_sampling,
    parse_program,
    parse_rule,
)
from repro.errors import (
    AlgebraError,
    BudgetExceededError,
    CheckpointError,
    ConditionError,
    DatalogError,
    EvaluationError,
    MarkovChainError,
    NotInflationaryError,
    ProbabilityError,
    ReproError,
    RunCancelledError,
    SchemaError,
    StateSpaceLimitExceeded,
)
from repro.markov import (
    MarkovChain,
    chain_from_edges,
    is_ergodic,
    is_irreducible,
    mixing_time,
    stationary_distribution,
)
from repro.probability import Distribution, hoeffding_sample_count, paper_sample_count
from repro.reductions import (
    CNFFormula,
    build_thm41_instance,
    build_thm51_instance,
    random_3cnf,
)
from repro.runtime import (
    Budget,
    Checkpoint,
    DegradationPolicy,
    RunContext,
    RunReport,
    evaluate_forever_resilient,
    load_checkpoint,
)
from repro.relational import (
    Database,
    Relation,
    parse_expression,
    parse_interpretation,
    difference,
    enumerate_worlds,
    evaluate,
    join,
    literal,
    product,
    project,
    rel,
    rename,
    repair_key,
    sample_world,
    select,
    union,
)
from repro.workloads import (
    BayesianNetwork,
    WeightedGraph,
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    layered_dag,
    pagerank_query,
    random_network,
    random_walk_query,
    reachability_program,
    reachability_query,
    sprinkler_network,
)

def _resolve_version() -> str:
    """The installed distribution version, or the source-tree fallback.

    When the package is installed (``pip install -e .``) this reads the
    authoritative version from the distribution metadata, so
    ``repro --version`` always matches ``pyproject.toml``; running
    straight from the source tree (``PYTHONPATH=src``) falls back to
    the pinned literal below, which must be kept in lockstep.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        return "1.0.0"


__version__ = _resolve_version()

__all__ = [
    "AlgebraError",
    "BayesianNetwork",
    "Budget",
    "BudgetExceededError",
    "CNFFormula",
    "CTable",
    "Checkpoint",
    "CheckpointError",
    "ConditionError",
    "Database",
    "DatalogError",
    "DegradationPolicy",
    "Distribution",
    "EvaluationError",
    "ExactResult",
    "ForeverQuery",
    "InflationaryDatalogEngine",
    "InflationaryQuery",
    "Interpretation",
    "MarkovChain",
    "MarkovChainError",
    "NotInflationaryError",
    "PCDatabase",
    "ProbabilityError",
    "Program",
    "QueryEvent",
    "Relation",
    "RelationNonEmpty",
    "ReproError",
    "Rule",
    "RunCancelledError",
    "RunContext",
    "RunReport",
    "SamplingResult",
    "SchemaError",
    "StateSpaceLimitExceeded",
    "TupleIn",
    "WeightedGraph",
    "barbell_graph",
    "boolean_variable",
    "build_state_chain",
    "build_thm41_instance",
    "build_thm51_instance",
    "chain_from_edges",
    "complete_graph",
    "cycle_graph",
    "difference",
    "enumerate_worlds",
    "erdos_renyi",
    "evaluate",
    "evaluate_datalog_exact",
    "evaluate_datalog_sampling",
    "evaluate_forever_exact",
    "evaluate_forever_mcmc",
    "evaluate_forever_resilient",
    "evaluate_inflationary_exact",
    "evaluate_inflationary_sampling",
    "hoeffding_sample_count",
    "inflationary_interpretation",
    "is_ergodic",
    "is_irreducible",
    "join",
    "layered_dag",
    "literal",
    "load_checkpoint",
    "mixing_time",
    "pagerank_query",
    "paper_sample_count",
    "parse_expression",
    "parse_interpretation",
    "parse_program",
    "parse_rule",
    "product",
    "project",
    "random_3cnf",
    "random_network",
    "random_walk_query",
    "reachability_program",
    "reachability_query",
    "rel",
    "rename",
    "repair_key",
    "sample_world",
    "select",
    "simulate_trajectory",
    "sprinkler_network",
    "stationary_distribution",
    "union",
    "var_eq",
    "var_ne",
]
