"""Cross-process sampling determinism without hash-seed pinning.

String hashing is randomized per interpreter process; if any code path
iterated a set/dict of rows in hash order, seeded sampler tallies would
differ between processes.  These tests run the same seeded evaluation
in subprocesses with *different* ``PYTHONHASHSEED`` values and require
byte-identical output — the canonical-ordering guarantee the columnar
kernel's RNG parity rests on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SCRIPT = r"""
import json, random, sys
from fractions import Fraction
from repro.core import evaluate_forever_mcmc, evaluate_inflationary_sampling
from repro.kernel import lower
from repro.workloads import (
    cycle_graph, layered_dag, random_walk_query, reachability_query,
)

columnar = len(sys.argv) > 1
on_kernel = lower if columnar else (lambda query, db: (query, db))

query, db = random_walk_query(cycle_graph(6), "n0", "n3")
mcmc = evaluate_forever_mcmc(
    *on_kernel(query, db), samples=120, burn_in=4, rng=7
)

rng = random.Random(21)
state = db
trace = []
for _ in range(25):
    state = query.kernel.sample_transition(state, rng)
    trace.append(query.event.holds(state))

reach_query, reach_db = reachability_query(
    layered_dag(2, 3, rng=random.Random(3)), "v0_0", "sink"
)
infl = evaluate_inflationary_sampling(
    *on_kernel(reach_query, reach_db), samples=80, rng=5
)

print(json.dumps({
    "mcmc": [str(mcmc.estimate), mcmc.positive, mcmc.samples],
    "trace": trace,
    "inflationary": [str(infl.estimate), infl.positive],
    "rng_tail": random.Random(21).random(),
}, sort_keys=True))
"""


def run_with_hashseed(seed: str, backend: str | None) -> str:
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    argv = [sys.executable, "-c", SCRIPT] + ([backend] if backend else [])
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=300,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("backend", [None, "columnar"], ids=["frozenset", "columnar"])
def test_tallies_identical_across_hash_seeds(backend):
    out_a = run_with_hashseed("1", backend)
    out_b = run_with_hashseed("31337", backend)
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["mcmc"][2] == 120


def test_backends_agree_across_processes():
    # The frozenset run under one hash seed and the columnar run under
    # another must still produce identical seeded tallies.
    out_f = json.loads(run_with_hashseed("2", None))
    out_c = json.loads(run_with_hashseed("99", "columnar"))
    assert out_f["mcmc"] == out_c["mcmc"]
    assert out_f["trace"] == out_c["trace"]
    assert out_f["inflationary"] == out_c["inflationary"]
