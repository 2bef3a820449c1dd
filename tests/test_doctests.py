"""Run the doctests embedded in the library's docstrings.

Every public-API example in a docstring is executable documentation;
this test keeps them honest.  Modules whose examples depend on
randomness without a fixed seed are excluded by construction (all
doctests in the codebase are deterministic).
"""

import doctest

import pytest

import repro.baselines.seminaive
import repro.core.chain_builder
import repro.core.evaluation.exact_inflationary
import repro.core.evaluation.exact_noninflationary
import repro.core.events
import repro.core.interpretation
import repro.core.queries
import repro.ctables.pctable
import repro.datalog.engine
import repro.datalog.parser
import repro.kernel.lowering
import repro.markov.chain
import repro.probability.distribution
import repro.reductions.cnf
import repro.relational.database
import repro.relational.parser
import repro.relational.prob_eval
import repro.relational.relation
import repro.relational.repair
import repro.runtime.budget
import repro.runtime.context
import repro.runtime.degradation
import repro.service.metrics
import repro.service.request
import repro.service.result_cache
import repro.service.scheduler
import repro.service.session
import repro.service.service
import repro.workloads.programs

MODULES = [
    repro.baselines.seminaive,
    repro.core.chain_builder,
    repro.core.evaluation.exact_inflationary,
    repro.core.evaluation.exact_noninflationary,
    repro.core.events,
    repro.core.interpretation,
    repro.core.queries,
    repro.ctables.pctable,
    repro.datalog.engine,
    repro.datalog.parser,
    repro.kernel.lowering,
    repro.markov.chain,
    repro.probability.distribution,
    repro.reductions.cnf,
    repro.relational.database,
    repro.relational.parser,
    repro.relational.prob_eval,
    repro.relational.relation,
    repro.relational.repair,
    repro.runtime.budget,
    repro.runtime.context,
    repro.runtime.degradation,
    repro.service.metrics,
    repro.service.request,
    repro.service.result_cache,
    repro.service.scheduler,
    repro.service.session,
    repro.service.service,
    repro.workloads.programs,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


def test_doctests_actually_present():
    """Guard against the doctest suite silently going empty."""
    total = sum(doctest.testmod(m, verbose=False).attempted for m in MODULES)
    assert total >= 20
