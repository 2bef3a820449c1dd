#!/usr/bin/env python
"""CI smoke for the sparse certified rung (see ``docs/sparse.md``).

Two layers, both gated against the exact gambler's-ruin closed form:

1. **Library, full size** (default 10^4 states): a drifted birth-death
   chain is solved through :func:`repro.sparse.solve_long_run` to a
   certified ``1e-9``.  At this size the bottleneck in CI would be the
   relational transition evaluation, not the solver, so the full-size
   chain enters through :func:`sparse_chain_from_markov`; the solver and
   certificate machinery are exactly what the CLI dispatches to.
2. **CLI, kernel-streamed** (default 1200 states): the same workload
   expressed as a ``.ra`` program streams state-by-state off the
   columnar kernel with ``--backend sparse``, and a budget-starved
   ``--fallback sparse`` run demonstrates the recorded downgrade onto
   the sparse rung.

Exits nonzero on any violated certificate, wrong answer, or missing
downgrade.  Run under ``PYTHONHASHSEED=random`` in CI: nothing here may
depend on hash ordering.

Usage::

    PYTHONPATH=src python benchmarks/sparse_smoke.py
    PYTHONPATH=src python benchmarks/sparse_smoke.py --states 100000
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

DOWN = Fraction(55, 100)
EPSILON = 1e-9


def ruin_probability(n: int, k: int, down: Fraction) -> Fraction:
    """Closed-form P[hit 0 before n | start k] with down-drift ``down``."""
    r = down / (1 - down)
    return (r ** k - r ** n) / (1 - r ** n)


def library_smoke(states: int) -> None:
    from repro.markov.chain import chain_from_edges
    from repro.sparse import solve_long_run, sparse_chain_from_markov

    edges = []
    for i in range(1, states):
        edges.append((i, i - 1, DOWN))
        edges.append((i, i + 1, 1 - DOWN))
    edges.append((0, 0, Fraction(1)))
    edges.append((states, states, Fraction(1)))
    chain = chain_from_edges(edges)
    start = states // 2
    sparse = sparse_chain_from_markov(chain, start, event=lambda s: s == 0)

    begin = time.perf_counter()
    value, certificate, structure = solve_long_run(sparse, epsilon=EPSILON)
    elapsed = time.perf_counter() - begin

    exact = float(ruin_probability(states, start, DOWN))
    error = abs(value - exact)
    assert certificate.satisfies(), (
        f"certificate dissatisfied: bound={certificate.bound:.3e}")
    assert error <= certificate.bound <= EPSILON, (
        f"|answer - exact| = {error:.3e}, bound = {certificate.bound:.3e}")
    print(f"library ok: {structure['states']} states solved in {elapsed:.2f}s "
          f"({certificate.solver}, {certificate.iterations} iters), "
          f"|answer - exact| = {error:.3e} <= bound = "
          f"{certificate.bound:.3e} <= {EPSILON:.0e}")


def write_workload(directory: Path, states: int) -> dict[str, str]:
    rows = []
    for i in range(1, states):
        rows.append([f"s{i}", f"s{i - 1}", 55])
        rows.append([f"s{i}", f"s{i + 1}", 45])
    rows.append(["s0", "s0", 1])
    rows.append([f"s{states}", f"s{states}", 1])
    db = directory / "walk.db.json"
    db.write_text(json.dumps({"relations": {
        "C": {"columns": ["I"], "rows": [[f"s{states // 2}"]]},
        "E": {"columns": ["I", "J", "P"], "rows": rows},
    }}))
    program = directory / "walk.ra"
    program.write_text(
        "C := rename[J->I](project[J](repair-key[I@P](C join E)))\n")
    return {"db": str(db), "program": str(program)}


def run_cli(argv: list[str]) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout)


def cli_smoke(states: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_workload(Path(tmp), states)
        base = [
            "forever", paths["program"], "--db", paths["db"],
            "--event", "C(s0)", "--json",
        ]

        begin = time.perf_counter()
        payload = run_cli(base + ["--backend", "sparse",
                                  "--epsilon", str(EPSILON)])
        elapsed = time.perf_counter() - begin
        exact = float(ruin_probability(states, states // 2, DOWN))
        certificate = payload["certificate"]
        error = abs(payload["probability_float"] - exact)
        assert payload["kind"] == "sparse", payload["kind"]
        assert certificate["satisfied"], certificate
        assert error <= certificate["bound"] <= EPSILON, (error, certificate)
        print(f"cli ok: {states + 1} states streamed off the kernel in "
              f"{elapsed:.2f}s, |answer - exact| = {error:.3e} <= bound = "
              f"{certificate['bound']:.3e}")

        # A budget the exact rung cannot meet must *downgrade* onto the
        # sparse rung, with the reason on the run report.  The sparse
        # rung gets a 25x state allowance (SPARSE_STATE_FACTOR in
        # repro.runtime.degradation), so a budget of states/25 + 1 starves
        # exact while leaving sparse feasible.
        budget = states // 25 + 1
        payload = run_cli(base + ["--fallback", "sparse",
                                  "--max-states", str(budget)])
        downgrades = payload.get("downgrades") or []
        assert [(d["from"], d["to"]) for d in downgrades] == [
            ("exact", "sparse")], downgrades
        assert f"max_states={budget}" in downgrades[0]["reason"], downgrades
        print(f"cli fallback ok: downgraded exact -> sparse "
              f"({downgrades[0]['reason']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=10_000,
                        help="library-path chain size (default 10^4)")
    parser.add_argument("--cli-states", type=int, default=1_200,
                        help="kernel-streamed CLI chain size")
    args = parser.parse_args(argv)

    library_smoke(args.states)
    cli_smoke(args.cli_states)
    print("sparse smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
