#!/usr/bin/env python
"""The perf-trajectory harness: curated benchmarks + result checksums.

Runs a small, stable subset of the repository's workloads — chain
build (cold vs cache-warmed, and the interpreter vs the compiled kernel
one state per call vs batched on the cold-exact walk shapes), the
Theorem 4.3 inflationary sampler, the Theorem 5.6 MCMC
sampler (sequential / ``workers=4`` / transition-cached), the columnar
kernel vs the frozenset interpreter over the Thm 5.6 family (with
per-operator timings), cross-process sampler determinism under varying
``PYTHONHASHSEED``, a closed-loop service loadgen (p50/p99 latency +
QPS per backend, gated against the latest committed baseline), the
supervised warm worker pool vs a one-shot (spawn-per-call) pool, the
exact linear solver (Bareiss vs the Gauss–Jordan reference), and the
sparse certified solver (kernel-streamed CSR assembly, a 10^4-state
birth-death chain solved to a residual-certified 1e-9, a
kernel-streamed 1000-state lazy cycle, a complete(40) walk whose BFS
frontier the kernel expands in one batch, and a 3-walker torus solved
by CG) — and writes
``BENCH_<date>.json`` with the median wall-clock of each plus SHA-256
checksums of every result that must not drift.

Correctness gates (always enforced; any failure exits nonzero):

* ``workers=1`` sampler results are bit-identical to the sequential
  path, and ``workers=4`` runs are seed-stable (two runs, same tallies);
* the supervised warm pool reproduces a one-shot pool's tallies
  bit-for-bit and finishes the run with all workers alive, zero
  restarts;
* the columnar backend's sampler tallies are checksum-equal to the
  frozenset interpreter on every Thm 5.6 family member, its transition
  distribution is Fraction-exact, and seeded tallies are identical
  across interpreter processes with different ``PYTHONHASHSEED``;
* every loadgen request completes (no failures, both backends);
* the Bareiss solver agrees entry-for-entry with ``solve_exact_gauss``;
* sampler estimates sit within the Chernoff tolerance of the exact
  evaluator's answer;
* every sparse certified answer satisfies its own ``SolveCertificate``
  *and* sits within that bound of the exact Fraction reference
  (the closed-form gambler's-ruin value on the large chain, itself
  validated against the dense solver at a dense-feasible size; ``1/n``
  on the lazy cycle, ``1/k`` on the torus), and an
  unreachable tolerance is *refused*, not silently mis-answered;
* kernel-batched CSR assembly equals the interpreter-streamed assembly
  bit for bit (same states, ``indptr``, ``indices`` and ``data``) on
  the lazy cycle and the complete(40) walk;
* loadgen QPS stays within 20% of the latest committed ``BENCH_*.json``
  baseline per backend (enforced only on a host with the same usable
  core count, and never under ``--quick``);
* the cache-warmed chain rebuild produces the same chain, and the
  interpreter, the compiled kernel one state per call and the batched
  compiled kernel build equal chains (externed states, Fraction rows);
* tracing never perturbs sampler results, and the disabled (no-op)
  tracer costs < 2% versus the bare evaluator (the ``tracing_*``
  entries also record per-phase wall/CPU timings from a traced run).

Speedup targets (``workers=4`` ≥ 2x on the Thm 5.6 bench, cache alone
≥ 1.3x at ``workers=1``, columnar ≥ 3x median over the Thm 5.6
family) are measured and recorded in the JSON under
``"targets"``; each is *enforced* only where the machine can express it
(the multi-core target needs ≥ 2 usable cores, and timing-based targets
are advisory under ``--quick``, whose rounds are too short to be
stable).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py           # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from repro.core import (
    evaluate_forever_exact,
    evaluate_forever_mcmc,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
)
from repro.core.chain_builder import build_state_chain
from repro.markov.linalg import identity, solve_exact, solve_exact_gauss
from repro.perf import ParallelConfig, TransitionCache
from repro.workloads import (
    complete_graph,
    cycle_graph,
    layered_dag,
    random_walk_query,
    reachability_query,
)

SEED = 11
WORKERS = 4


def checksum(payload: object) -> str:
    """SHA-256 of a canonical JSON rendering (Fractions as strings)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(fn, rounds: int):
    """(median seconds, last result) over ``rounds`` calls."""
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), result


class Harness:
    def __init__(self, quick: bool):
        self.quick = quick
        self.rounds = 3 if quick else 5
        self.benchmarks: dict[str, dict] = {}
        self.checks: list[dict] = []
        self.targets: dict[str, dict] = {}

    def record(self, name: str, median_s: float, result_checksum: str, **extra):
        entry = {"median_s": round(median_s, 6), "rounds": self.rounds,
                 "checksum": result_checksum, **extra}
        self.benchmarks[name] = entry
        print(f"  {name:<28} {median_s * 1e3:9.1f} ms   checksum={result_checksum}")

    def check(self, name: str, ok: bool, detail: str):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")

    def target(self, name: str, measured: float, floor: float, enforced: bool,
               note: str = ""):
        met = measured >= floor
        self.targets[name] = {
            "measured": round(measured, 3), "target": floor,
            "enforced": enforced, "met": met, "note": note,
        }
        status = "met" if met else ("MISSED" if enforced else "missed (advisory)")
        print(f"  speedup {name}: {measured:.2f}x (target {floor}x) — {status}")

    @property
    def failed(self) -> bool:
        if any(not check["ok"] for check in self.checks):
            return True
        return any(t["enforced"] and not t["met"] for t in self.targets.values())


def bench_chain_build(h: Harness) -> None:
    print("chain build (Prop 5.4 BFS) — cold vs cache-warmed rebuild")
    query, db = random_walk_query(cycle_graph(6 if h.quick else 10), "n0", "n3")
    cold_s, chain = timed(lambda: build_state_chain(query.kernel, db), h.rounds)
    cache = query.kernel.cached()
    build_state_chain(query.kernel, db, cache=cache)  # warm it
    warm_s, rebuilt = timed(
        lambda: build_state_chain(query.kernel, db, cache=cache), h.rounds
    )
    exact = evaluate_forever_exact(query, db)
    h.record("chain_build_cold", cold_s, checksum(
        {"size": chain.size, "probability": exact.probability}))
    h.record("chain_build_warm", warm_s, checksum(
        {"size": rebuilt.size}), cache=cache.stats())
    h.check("chain_rebuild_identical", rebuilt.size == chain.size,
            f"warm rebuild has {rebuilt.size} states, cold {chain.size}")
    h.target("chain_rebuild_cache", cold_s / warm_s if warm_s else float("inf"),
             1.3, enforced=not h.quick,
             note="cache-warmed rebuild vs cold BFS")


class _OneStatePerCall:
    """A compiled kernel seen through ``transition`` alone: the chain
    builder then expands one state per call, as it did before batching."""

    def __init__(self, kernel):
        self.kernel = kernel

    def check_schema(self, state):
        self.kernel.check_schema(state)

    def expand(self, states):
        return [self.kernel.transition(state) for state in states]


def _chain_rows(chain, extern=lambda state: state):
    """A chain as BFS-ordered (state, [(successor, weight)]) pairs."""
    return [
        (extern(state),
         [(extern(successor), weight)
          for successor, weight in chain.successors(state).items()])
        for state in chain.states
    ]


def bench_chain(h: Harness) -> None:
    """Prop 5.4 chain builds on the cold-exact walk shapes at their
    largest sizes, three ways: the interpreter, the compiled kernel one
    state per ``transition`` call, and the compiled kernel batched
    (``expand``).  The three chains must be equal (states externed,
    Fraction rows, BFS order)."""
    from repro.kernel import extern_database, lower
    from repro.workloads import pagerank_query

    print("chain build (Prop 5.4 BFS) — interpreter vs compiled vs batched")
    shapes = {
        "pagerank_cycle24": pagerank_query(cycle_graph(24), Fraction(1, 5), "n0", "n7"),
        "walk_complete16": random_walk_query(complete_graph(16), "n0", "n5"),
        "walk_cycle63": random_walk_query(cycle_graph(63), "n0", "n31"),
    }
    for name, (query, db) in shapes.items():
        lowered, initial = lower(query, db)
        interpreter_s, reference = timed(
            lambda: build_state_chain(query.kernel, db), h.rounds)
        single_s, single = timed(lambda: build_state_chain(
            _OneStatePerCall(lowered.kernel), initial), h.rounds)
        batched_s, batched = timed(
            lambda: build_state_chain(lowered.kernel, initial), h.rounds)
        rows = _chain_rows(reference)
        equal = (
            _chain_rows(single, extern_database) == rows
            and _chain_rows(batched, extern_database) == rows
        )
        index = {state: i for i, (state, _row) in enumerate(rows)}
        n = reference.size
        h.record(
            f"chain_{name}", batched_s,
            checksum([[(index[target], str(weight)) for target, weight in row]
                      for _state, row in rows]),
            states=n,
            interpreter_us_per_state=round(interpreter_s / n * 1e6, 1),
            single_us_per_state=round(single_s / n * 1e6, 1),
            batched_us_per_state=round(batched_s / n * 1e6, 1),
        )
        h.check(f"chain_{name}_paths_equal", equal,
                f"{n} states: interpreter == compiled one state per call == "
                "compiled batched (externed states, Fraction rows, BFS order)")


def bench_thm43(h: Harness) -> None:
    print("Thm 4.3 inflationary sampler — sequential vs workers")
    graph = layered_dag(3, 3, rng=7)
    query, db = reachability_query(graph, "v0_0", "v2_2")  # P = 89/210
    samples = 150 if h.quick else 600
    seq_s, seq = timed(lambda: evaluate_inflationary_sampling(
        query, db, samples=samples, rng=SEED), h.rounds)
    one = evaluate_inflationary_sampling(
        query, db, samples=samples, rng=SEED, parallel=ParallelConfig(workers=1))
    par_s, par = timed(lambda: evaluate_inflationary_sampling(
        query, db, samples=samples, rng=SEED,
        parallel=ParallelConfig(workers=WORKERS)), h.rounds)
    par_again = evaluate_inflationary_sampling(
        query, db, samples=samples, rng=SEED,
        parallel=ParallelConfig(workers=WORKERS))
    exact = float(evaluate_inflationary_exact(query, db).probability)

    h.record("thm43_sequential", seq_s,
             checksum({"positive": seq.positive, "samples": seq.samples}),
             samples=samples)
    h.record(f"thm43_workers{WORKERS}", par_s,
             checksum({"positive": par.positive, "samples": par.samples}),
             samples=samples)
    h.check("thm43_workers1_bit_identical",
            (one.positive, one.samples) == (seq.positive, seq.samples),
            f"workers=1 positive={one.positive}, sequential={seq.positive}")
    h.check(f"thm43_workers{WORKERS}_seed_stable",
            par.positive == par_again.positive,
            f"two workers={WORKERS} runs: {par.positive} vs {par_again.positive}")
    tolerance = 3.0 / (samples ** 0.5)  # generous Hoeffding envelope
    h.check("thm43_estimate_near_exact",
            abs(seq.estimate - exact) <= tolerance
            and abs(par.estimate - exact) <= tolerance,
            f"exact={exact:.4f} seq={seq.estimate:.4f} par={par.estimate:.4f}")


def bench_thm56(h: Harness, cores: int) -> None:
    print("Thm 5.6 MCMC sampler — sequential vs workers=4 vs cached")
    query, db = random_walk_query(cycle_graph(8), "n0", "n4")
    samples = 200 if h.quick else 1_000
    burn_in = 10 if h.quick else 25

    seq_s, seq = timed(lambda: evaluate_forever_mcmc(
        query, db, samples=samples, burn_in=burn_in, rng=SEED), h.rounds)
    one = evaluate_forever_mcmc(
        query, db, samples=samples, burn_in=burn_in, rng=SEED,
        parallel=ParallelConfig(workers=1))
    par_s, par = timed(lambda: evaluate_forever_mcmc(
        query, db, samples=samples, burn_in=burn_in, rng=SEED,
        parallel=ParallelConfig(workers=WORKERS)), h.rounds)
    par_again = evaluate_forever_mcmc(
        query, db, samples=samples, burn_in=burn_in, rng=SEED,
        parallel=ParallelConfig(workers=WORKERS))
    cached_s, cached = timed(lambda: evaluate_forever_mcmc(
        query, db, samples=samples, burn_in=burn_in, rng=SEED,
        cache_size=256), h.rounds)
    # The same run on one cache an untimed first run warmed: what a
    # service session's later requests pay.
    warm_cache = TransitionCache(query.kernel, maxsize=256)

    def cached_warm():
        return evaluate_forever_mcmc(
            query, db, samples=samples, burn_in=burn_in, rng=SEED,
            cache=warm_cache)

    cached_warm()
    warm_s, warm = timed(cached_warm, h.rounds)
    exact = float(evaluate_forever_exact(query, db).probability)

    h.record("thm56_sequential", seq_s,
             checksum({"positive": seq.positive, "samples": seq.samples}),
             samples=samples, burn_in=burn_in)
    h.record(f"thm56_workers{WORKERS}", par_s,
             checksum({"positive": par.positive, "samples": par.samples}),
             samples=samples, burn_in=burn_in)
    h.record("thm56_cached", cached_s,
             checksum({"positive": cached.positive, "samples": cached.samples}),
             samples=samples, burn_in=burn_in,
             cache=cached.details.get("cache"))
    h.record("thm56_cached_warm", warm_s,
             checksum({"positive": warm.positive, "samples": warm.samples}),
             samples=samples, burn_in=burn_in,
             cache=warm.details.get("cache"))
    h.check("thm56_cached_warm_bit_identical",
            (warm.positive, warm.samples) == (cached.positive, cached.samples),
            f"warm cache positive={warm.positive}, cold={cached.positive}")
    h.check("thm56_workers1_bit_identical",
            (one.positive, one.samples) == (seq.positive, seq.samples),
            f"workers=1 positive={one.positive}, sequential={seq.positive}")
    h.check(f"thm56_workers{WORKERS}_seed_stable",
            par.positive == par_again.positive,
            f"two workers={WORKERS} runs: {par.positive} vs {par_again.positive}")
    tolerance = 3.0 / (samples ** 0.5)
    h.check("thm56_estimates_near_exact",
            all(abs(r.estimate - exact) <= tolerance for r in (seq, par, cached)),
            f"exact={exact:.4f} seq={seq.estimate:.4f} "
            f"par={par.estimate:.4f} cached={cached.estimate:.4f}")

    h.target(f"thm56_workers{WORKERS}", seq_s / par_s if par_s else float("inf"),
             2.0, enforced=cores >= 2 and not h.quick,
             note=f"pool of {WORKERS} on {cores} usable core(s); "
                  "needs >= 2 cores to be expressible")
    h.target("thm56_cache", seq_s / cached_s if cached_s else float("inf"),
             1.3, enforced=not h.quick,
             note="TransitionCache(256) at workers=1 vs uncached sequential")


def bench_kernel(h: Harness) -> None:
    print("columnar kernel vs frozenset interpreter — Thm 5.6 family")
    from repro.kernel import compile_query, extern_database, lower
    from repro.workloads import complete_graph, grid_graph

    family = [
        ("cycle8", random_walk_query(cycle_graph(8), "n0", "n4")),
        ("complete16", random_walk_query(complete_graph(16), "n0", "n4")),
        ("complete20", random_walk_query(complete_graph(20), "n0", "n4")),
        ("grid10x10", random_walk_query(grid_graph(10, 10), "g0_0", "g5_5")),
    ]
    samples = 60 if h.quick else 200
    burn_in = 5 if h.quick else 15
    speedups = []
    for name, (query, db) in family:
        froz_s, froz = timed(lambda: evaluate_forever_mcmc(
            query, db, samples=samples, burn_in=burn_in, rng=SEED), h.rounds)
        # Lowering is timed too, as the columnar rows always have been.
        col_s, col = timed(lambda: evaluate_forever_mcmc(
            *lower(query, db), samples=samples, burn_in=burn_in, rng=SEED),
            h.rounds)
        froz_sum = checksum({"positive": froz.positive, "samples": froz.samples})
        col_sum = checksum({"positive": col.positive, "samples": col.samples})
        h.record(f"kernel_frozenset_{name}", froz_s, froz_sum,
                 samples=samples, burn_in=burn_in)
        h.record(f"kernel_columnar_{name}", col_s, col_sum,
                 samples=samples, burn_in=burn_in,
                 speedup=round(froz_s / col_s, 2) if col_s else None)
        h.check(f"kernel_checksum_equal_{name}", froz_sum == col_sum,
                f"columnar={col_sum} frozenset={froz_sum}")
        speedups.append(froz_s / col_s if col_s else float("inf"))

    # Exact transition-distribution parity (Fraction-for-Fraction) on the
    # smallest family member: the strongest per-step equivalence gate.
    query, db = family[0][1]
    compiled = compile_query(query, db)
    exact_f = dict(query.kernel.transition(db).items())
    exact_c = {extern_database(state): weight
               for state, weight in
               compiled.kernel.transition(compiled.initial).items()}
    h.check("kernel_transition_distribution_exact", exact_c == exact_f,
            f"{len(exact_f)} outcomes, exact Fraction weights")

    median_speedup = statistics.median(speedups)
    h.target("kernel_columnar_family_median", median_speedup, 3.0,
             enforced=not h.quick,
             note="median columnar speedup over the Thm 5.6 family; "
                  "checksums forced equal above")


_DETERMINISM_SCRIPT = r"""
import json, random
from repro.core import evaluate_forever_mcmc
from repro.kernel import lower
from repro.workloads import cycle_graph, random_walk_query
query, db = random_walk_query(cycle_graph(6), "n0", "n3")
out = {}
for backend, pair in (("None", (query, db)), ("columnar", lower(query, db))):
    result = evaluate_forever_mcmc(*pair, samples=80, burn_in=4, rng=7)
    out[backend] = [str(result.estimate), result.positive]
rng = random.Random(13)
state = db
out["trace"] = [query.event.holds(
    state := query.kernel.sample_transition(state, rng)) for _ in range(20)]
print(json.dumps(out, sort_keys=True))
"""


def bench_determinism(h: Harness) -> None:
    print("cross-process determinism — seeded tallies vs PYTHONHASHSEED")
    import subprocess

    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(hash_seed: str) -> str:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        return proc.stdout

    out_a = run("1")
    out_b = run("31337")
    h.check("sampler_cross_process_deterministic", out_a == out_b,
            "seeded tallies identical across interpreter invocations "
            "with different PYTHONHASHSEED")
    h.benchmarks["sampler_determinism"] = {
        "checksum": checksum(out_a),
        "hash_seeds": ["1", "31337"],
    }


def latest_baseline(before: str) -> tuple[str, dict] | None:
    """The newest committed ``BENCH_<date>.json`` strictly older than
    ``before`` (so a rerun never gates against its own output)."""
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.glob("BENCH_*.json"), reverse=True):
        if path.stem.removeprefix("BENCH_") >= before:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not payload.get("quick"):
            return path.name, payload
    return None


def bench_loadgen(h: Harness, cores: int) -> None:
    print("service loadgen — closed-loop submits, p50/p99 latency + QPS")
    from repro.service.loadgen import default_corpus, run_loadgen

    baseline = latest_baseline(datetime.date.today().isoformat())
    total = 24 if h.quick else 60
    concurrency = 4
    for backend in ("frozenset", "columnar"):
        corpus = default_corpus(total, samples=30, burn_in=5, backend=backend)
        report = run_loadgen(corpus, concurrency=concurrency)
        payload = report.as_dict()
        h.benchmarks[f"loadgen_{backend}"] = payload
        h.check(f"loadgen_{backend}_all_completed",
                report.completed == total and report.failed == 0,
                f"{report.completed}/{total} completed, {report.failed} failed")
        print(f"  loadgen[{backend}]: qps={payload['qps']} "
              f"p50={payload['latency_ms']['p50']}ms "
              f"p99={payload['latency_ms']['p99']}ms")

        # Regression gate: QPS must stay within 20% of the latest
        # committed baseline.  Only comparable when the host exposes the
        # same number of usable cores, and --quick rounds are too short
        # to gate on.
        base_entry = baseline[1]["benchmarks"].get(
            f"loadgen_{backend}") if baseline else None
        base_qps = base_entry.get("qps") if base_entry else None
        if not base_qps:
            payload["baseline"] = {"available": False}
            continue
        base_cores = baseline[1].get("host", {}).get("usable_cores")
        ratio = payload["qps"] / base_qps
        comparable = base_cores == cores and not h.quick
        payload["baseline"] = {
            "file": baseline[0], "qps": base_qps,
            "usable_cores": base_cores, "ratio": round(ratio, 3),
            "enforced": comparable,
        }
        if comparable:
            h.check(f"loadgen_{backend}_qps_regression", ratio >= 0.8,
                    f"qps={payload['qps']} vs baseline {base_qps} "
                    f"({baseline[0]}): {ratio:.2f}x, floor 0.80x")
        else:
            print(f"  loadgen[{backend}]: baseline {baseline[0]} "
                  f"({base_qps} qps) advisory — "
                  f"cores {base_cores} vs {cores}, quick={h.quick}")


def bench_supervisor(h: Harness, cores: int) -> None:
    print("worker supervisor — warm pool vs spawn-per-call dispatch")
    from repro.perf import prewarm, warm_pool_stats
    from repro.perf import supervisor as supervisor_module

    query, db = random_walk_query(cycle_graph(8), "n0", "n4")
    # Deliberately a *small* job in both modes: this bench measures
    # per-call dispatch overhead (process spawn + import vs warm
    # hand-off), which a long run would amortise into the noise.  The
    # workers=4 throughput story lives in bench_thm56.
    samples = 100
    burn_in = 10

    config = ParallelConfig(workers=WORKERS)

    def run():
        return evaluate_forever_mcmc(
            query, db, samples=samples, burn_in=burn_in, rng=SEED,
            parallel=config)

    def run_one_shot():
        # Hold the warm pool as a concurrent run would: the dispatch then
        # spawns a one-shot WorkerSupervisor for this call and closes it.
        busy = supervisor_module._lease_warm_pool(
            supervisor_module.SupervisorConfig.from_parallel(config))
        try:
            return run()
        finally:
            if busy is not None:
                busy._run_lock.release()

    prewarm(WORKERS)  # the one-time spawn happens outside the timed region
    warm_s, warm = timed(run, h.rounds)
    spawn_s, spawned = timed(run_one_shot, h.rounds)
    stats = warm_pool_stats()

    h.record("supervisor_warm_pool", warm_s,
             checksum({"positive": warm.positive, "samples": warm.samples}),
             samples=samples, burn_in=burn_in, pool=stats)
    h.record("supervisor_spawn_per_call", spawn_s,
             checksum({"positive": spawned.positive,
                       "samples": spawned.samples}),
             samples=samples, burn_in=burn_in)
    # Both pools use identical seeds, chunking, and merge order, so the
    # warm pool must reproduce the one-shot pool's tallies bit-for-bit.
    h.check("supervisor_matches_spawn_per_call",
            (warm.positive, warm.samples) == (spawned.positive, spawned.samples),
            f"warm positive={warm.positive}, spawn-per-call={spawned.positive}")
    h.check("supervisor_pool_healthy",
            stats["alive"] == WORKERS and stats["restarts"] == 0,
            f"alive={stats['alive']}/{WORKERS} restarts={stats['restarts']}")
    # On a multi-core runner the warm pool also overlaps worker start-up,
    # so the acceptance floor rises from 1.2x to 1.5x when >= 2 cores
    # are usable; a single-core host can only express dispatch overhead.
    floor = 1.5 if cores >= 2 else 1.2
    h.target("supervisor_warm_vs_spawn",
             spawn_s / warm_s if warm_s else float("inf"),
             floor, enforced=not h.quick,
             note=f"same chunks and seeds on {cores} usable core(s); warm "
                  "dispatch skips per-call process spawn + import "
                  "(floor 1.2x on one core, 1.5x on multi-core runners)")


def bench_solver(h: Harness) -> None:
    print("exact solve — Bareiss vs Gauss-Jordan reference")
    n = 24 if h.quick else 60
    rng = random.Random(7)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        a[i][i] += Fraction(50)
    b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))] for _ in range(n)]

    bareiss_s, x_bareiss = timed(lambda: solve_exact(a, b), h.rounds)
    gauss_s, x_gauss = timed(lambda: solve_exact_gauss(a, b), h.rounds)
    h.record("solve_bareiss", bareiss_s, checksum(x_bareiss), n=n)
    h.record("solve_gauss", gauss_s, checksum(x_gauss), n=n)
    h.check("bareiss_matches_gauss", x_bareiss == x_gauss,
            f"{n}x{n} dense Fraction system, entry-for-entry equality")
    h.check("bareiss_identity_sanity",
            solve_exact(identity(3), [[Fraction(1)], [Fraction(2)], [Fraction(3)]])
            == [[Fraction(1)], [Fraction(2)], [Fraction(3)]],
            "I . x = b returns b")
    h.target("bareiss_vs_gauss", gauss_s / bareiss_s if bareiss_s else float("inf"),
             1.0, enforced=False, note="advisory: exactness is the contract")


def _birth_death(n: int, down: Fraction):
    """Drifted gambler's ruin: absorbing walls at 0 and n."""
    from repro.markov.chain import chain_from_edges

    edges = []
    for i in range(1, n):
        edges.append((i, i - 1, down))
        edges.append((i, i + 1, 1 - down))
    edges.append((0, 0, Fraction(1)))
    edges.append((n, n, Fraction(1)))
    return chain_from_edges(edges)


def _ruin_probability(n: int, k: int, down: Fraction) -> Fraction:
    """Closed-form P[hit 0 before n | start k]: (r^k - r^n) / (1 - r^n)
    with r = down/up — the exact Fraction reference at sizes where the
    dense solver is infeasible."""
    r = down / (1 - down)
    return (r ** k - r ** n) / (1 - r ** n)


def bench_sparse(h: Harness) -> None:
    print("sparse certified solver — CSR assembly + (eps, delta) certificates")
    from repro.errors import SolveRefusedError
    from repro.kernel import lower
    from repro.markov.absorption import long_run_event_probability
    from repro.sparse import (
        SparseChain,
        evaluate_forever_sparse,
        solve_long_run,
        sparse_chain_from_markov,
    )

    epsilon = 1e-9

    # (1) Kernel-streamed assembly + solve vs the exact evaluator; the
    # rung runs the kernel it is given, so lowering is timed here.
    query, db = random_walk_query(cycle_graph(8), "n0", "n4")
    kernel_s, certified = timed(
        lambda: evaluate_forever_sparse(*lower(query, db), epsilon=epsilon),
        h.rounds)
    exact = float(evaluate_forever_exact(query, db).probability)
    cert = certified.certificate
    err = abs(certified.probability - exact)
    h.record("sparse_kernel_cycle8", kernel_s,
             checksum({"interval": [repr(x) for x in certified.interval]}),
             states=certified.states_explored,
             certificate=cert.as_dict())
    h.check("sparse_kernel_within_certificate",
            cert.satisfies() and err <= cert.bound <= epsilon,
            f"|answer - exact| = {err:.3e} <= bound = {cert.bound:.3e} "
            f"<= eps = {epsilon:.0e}")

    # (2) An unreachable tolerance must be *refused*, never mis-answered.
    try:
        evaluate_forever_sparse(*lower(query, db), epsilon=1e-300)
        refused, detail = False, "no refusal raised"
    except SolveRefusedError as exc:
        refused = exc.details["certified_bound"] > 1e-300
        detail = (f"refused: certified bound "
                  f"{exc.details['certified_bound']:.3e} > eps=1e-300")
    h.check("sparse_unreachable_tolerance_refused", refused, detail)

    # (3) Closed-form reference validated against the dense Fraction
    # solver at a dense-feasible size; the dense wall-clock also anchors
    # the cubic extrapolation below.
    down = Fraction(55, 100)
    n_dense = 100 if h.quick else 200
    dense_chain = _birth_death(n_dense, down)
    dense_s, dense_exact = timed(lambda: long_run_event_probability(
        dense_chain, n_dense // 2, lambda s: s == 0), 1)
    h.record("sparse_dense_reference", dense_s,
             checksum({"probability": dense_exact}), n=n_dense, rounds=1)
    h.check("sparse_closed_form_matches_dense",
            _ruin_probability(n_dense, n_dense // 2, down) == dense_exact,
            f"gambler's-ruin closed form == dense Fraction solve at "
            f"n={n_dense}")

    # (4) The large chain: certified solve at 10^4 states (2·10^3 under
    # --quick), gated against the closed form.
    n_large = 2_000 if h.quick else 10_000
    chain = _birth_death(n_large, down)
    sparse = sparse_chain_from_markov(
        chain, n_large // 2, event=lambda s: s == 0)
    solve_rounds = max(1, h.rounds - 2)
    large_s, (value, large_cert, structure) = timed(
        lambda: solve_long_run(sparse, epsilon=epsilon), solve_rounds)
    exact_large = float(_ruin_probability(n_large, n_large // 2, down))
    err_large = abs(value - exact_large)
    h.record("sparse_certified_large", large_s,
             checksum({"interval": [repr(value - large_cert.bound),
                                    repr(value + large_cert.bound)]}),
             n=n_large, rounds=solve_rounds, structure=structure,
             certificate=large_cert.as_dict())
    h.check("sparse_large_within_certificate",
            large_cert.satisfies() and err_large <= large_cert.bound <= epsilon,
            f"n={n_large}: |answer - exact| = {err_large:.3e} <= bound = "
            f"{large_cert.bound:.3e} <= eps = {epsilon:.0e}")

    # The dense Fraction solver is O(n^3) with bignum growth on top;
    # extrapolating its n_dense wall-clock cubically (an undercount) to
    # n_large shows why the sparse rung exists at all.
    dense_projected = dense_s * (n_large / n_dense) ** 3
    h.target("sparse_vs_dense_projected",
             dense_projected / large_s if large_s else float("inf"),
             50.0, enforced=not h.quick,
             note=f"dense O(n^3) extrapolated {n_dense}->{n_large} "
                  f"({dense_projected:.0f}s projected) vs certified sparse "
                  f"solve ({large_s:.2f}s median)")

    # (5) A kernel-streamed lazy cycle past 512 states: the shape that
    # made restarted GMRES spend its whole 512-step budget before
    # falling back to LU.  The row times the solve alone; building the
    # chain is timed by ``sparse_assemble_lazy_cycle`` below.
    n_cycle = 600 if h.quick else 1_000
    cycle_source = random_walk_query(cycle_graph(n_cycle), "n0", f"n{n_cycle // 2}")
    assemble_s, cycle_chain = _bench_assembly(
        h, "sparse_assemble_lazy_cycle", "lazy cycle", cycle_source)
    cycle_s, (cycle_value, cycle_cert, _) = timed(
        lambda: solve_long_run(cycle_chain, epsilon=epsilon), h.rounds)
    cycle_err = abs(cycle_value - 1 / n_cycle)
    h.record("sparse_kernel_lazy_cycle", cycle_s,
             checksum({"interval": [repr(cycle_value - cycle_cert.bound),
                                    repr(cycle_value + cycle_cert.bound)]}),
             states=cycle_chain.size, assemble_s=round(assemble_s, 6),
             assemble_us_per_state=round(assemble_s / cycle_chain.size * 1e6, 1),
             certificate=cycle_cert.as_dict())
    h.check("sparse_kernel_lazy_cycle_within_certificate",
            cycle_cert.satisfies() and cycle_err <= cycle_cert.bound <= epsilon,
            f"n={n_cycle}: |answer - 1/n| = {cycle_err:.3e} <= bound = "
            f"{cycle_cert.bound:.3e} <= eps = {epsilon:.0e}")

    # (6) A wide BFS frontier: every state of a complete-graph walk is
    # queued after the first expansion, so the kernel expands them in
    # one batch.
    _bench_assembly(
        h, "sparse_assemble_complete40", "complete(40)",
        random_walk_query(complete_graph(40), "n0", "n5"))

    # (7) Three lazy walkers on a k-cycle: a 3-D torus, whose LU factor
    # fills far past the input, so the rung must run CG rather than
    # factor it.  The stationary distribution is uniform: the first
    # walker sits at node 0 with probability 1/k.
    import numpy as np
    from scipy import sparse as sp

    k = 12 if h.quick else 20
    step = sp.csr_matrix(
        (np.repeat([0.5, 0.25, 0.25], k),
         (np.tile(np.arange(k), 3),
          np.concatenate([np.arange(k), (np.arange(k) + 1) % k,
                          (np.arange(k) - 1) % k]))),
        shape=(k, k))
    torus = SparseChain(
        matrix=sp.kron(sp.kron(step, step), step, format="csr"),
        states=range(k ** 3), event_mask=np.arange(k ** 3) < k * k)
    torus_s, (torus_value, torus_cert, _) = timed(
        lambda: solve_long_run(torus, epsilon=epsilon), h.rounds)
    torus_err = abs(torus_value - 1 / k)
    h.record("sparse_krylov_torus3", torus_s,
             checksum({"interval": [repr(torus_value - torus_cert.bound),
                                    repr(torus_value + torus_cert.bound)]}),
             states=k ** 3, certificate=torus_cert.as_dict())
    h.check("sparse_krylov_torus3_within_certificate",
            torus_cert.solver == "power+cg" and torus_cert.satisfies()
            and torus_err <= torus_cert.bound <= epsilon,
            f"{k}^3 states, solver {torus_cert.solver}: |answer - 1/k| = "
            f"{torus_err:.3e} <= bound = {torus_cert.bound:.3e} <= "
            f"eps = {epsilon:.0e}")


def _bench_assembly(h: Harness, name: str, label: str, source):
    """Time CSR assembly of ``source`` on the compiled kernel over
    ``h.rounds`` rounds, record its CSR checksum and microseconds per
    state, and check it against the interpreter-streamed assembly.
    Returns (median seconds, chain)."""
    from repro.kernel import extern_database, lower
    from repro.sparse import assemble_sparse_chain

    query, db = source
    lowered, initial = lower(query, db)
    assemble_s, chain = timed(lambda: assemble_sparse_chain(
        lowered.kernel, initial, event=lowered.event.holds), h.rounds)
    matrix = chain.matrix
    h.record(name, assemble_s,
             checksum({"indptr": matrix.indptr.tolist(),
                       "indices": matrix.indices.tolist(),
                       "data": [x.hex() for x in matrix.data.tolist()]}),
             states=chain.size, nnz=chain.nnz,
             assemble_us_per_state=round(assemble_s / chain.size * 1e6, 1))
    reference = assemble_sparse_chain(query.kernel, db, event=query.event.holds)
    identical = (
        [extern_database(state) for state in chain.states] == list(reference.states)
        and matrix.indptr.tolist() == reference.matrix.indptr.tolist()
        and matrix.indices.tolist() == reference.matrix.indices.tolist()
        and matrix.data.tobytes() == reference.matrix.data.tobytes()
    )
    h.check(f"{name}_matches_interpreter", identical,
            f"{label}: {chain.size} states, {chain.nnz} entries; kernel CSR "
            "== interpreter-streamed CSR (same states, bitwise-equal data)")
    return assemble_s, chain


def _walker_family(quick: bool):
    """Independent lazy walkers, one relation per walker: the static
    planner splits them, monolithic evaluation pays the product chain."""
    return ((2, 4), (3, 3), (2, 6)) if quick else ((2, 6), (3, 4), (2, 10))


def _walker_problem(walkers: int, size: int):
    from repro.core import ForeverQuery, Interpretation, TupleIn
    from repro.core.events import AndEvent
    from repro.relational import (
        Database, Relation, join, project, rel, rename, repair_key,
    )

    edges = cycle_graph(size).edge_relation()
    relations = {}
    queries = {}
    factors = []
    for i in range(walkers):
        walker, graph = f"W{i}", f"E{i}"
        relations[walker] = Relation(("I",), [("n0",)])
        relations[graph] = edges
        queries[walker] = rename(
            project(
                repair_key(join(rel(walker), rel(graph)), ("I",), "P"), "J"
            ),
            J="I",
        )
        factors.append(TupleIn(walker, (f"n{size // 2}",)))
    event = factors[0]
    for factor in factors[1:]:
        event = AndEvent(event, factor)
    return ForeverQuery(Interpretation(queries), event), Database(relations)


def bench_partition(h: Harness) -> None:
    print("partition planner — static decomposition vs monolithic exact")
    from repro.analysis.partition import compute_partition_plan
    from repro.runtime import evaluate_partitioned

    speedups = []
    plan_s = part_s = 0.0
    for walkers, size in _walker_family(h.quick):
        label = f"{walkers}x{size}"
        query, db = _walker_problem(walkers, size)

        plan_s, plan = timed(
            lambda: compute_partition_plan(
                query.kernel, database=db, semantics="forever"
            ),
            h.rounds,
        )
        h.check(f"partition_plan_splits_{label}",
                plan.splittable and len(plan.components) == walkers,
                f"{len(plan.components)} components for {walkers} walkers "
                f"(planned in {plan_s * 1e3:.1f} ms)")

        whole_s, whole = timed(
            lambda: evaluate_forever_exact(query, db, max_states=200_000),
            h.rounds,
        )
        part_s, part = timed(
            lambda: evaluate_partitioned(
                query, db, plan, max_states=200_000
            ),
            h.rounds,
        )
        h.check(f"partition_bit_identical_{label}",
                part.probability == whole.probability
                and part.method == "partition-exact",
                f"partitioned == monolithic == {whole.probability} "
                f"({part.states_explored} vs {whole.states_explored} states)")
        speedup = whole_s / part_s if part_s else float("inf")
        speedups.append(speedup)
        h.record(f"partition_{label}", part_s,
                 checksum({"probability": part.probability}),
                 monolithic_s=round(whole_s, 6),
                 states=part.states_explored,
                 monolithic_states=whole.states_explored,
                 speedup=round(speedup, 3))

    # Pruning: an event touching one walker must skip the others.
    query, db = _walker_problem(3, 4)
    from repro.core import ForeverQuery, TupleIn
    pruned_query = ForeverQuery(query.kernel, TupleIn("W0", ("n2",)))
    result = evaluate_partitioned(pruned_query, db, max_states=200_000)
    h.check("partition_prunes_untouched_components",
            len(result.details["pruned"]) == 2,
            f"event on W0 pruned {result.details['pruned']}")

    h.record("partition_plan_3x4", plan_s,
             checksum({"components": 3}), note="planner wall-clock only")
    median_speedup = statistics.median(speedups)
    h.target("partition_family_median", median_speedup, 2.0,
             enforced=not h.quick,
             note="partitioned exact vs monolithic exact, family median")


def bench_tracing(h: Harness) -> None:
    print("observability — disabled-tracer overhead + per-phase timings")
    from repro.obs import MemorySink, Tracer
    from repro.runtime import RunContext

    query, db = random_walk_query(cycle_graph(8), "n0", "n4")
    samples = 200 if h.quick else 1_000
    burn_in = 10 if h.quick else 25
    rounds = h.rounds * 2  # the <2% bound needs tighter timing than 5 rounds

    def run(context=None):
        return evaluate_forever_mcmc(
            query, db, samples=samples, burn_in=burn_in, rng=SEED,
            context=context)

    # Interleave the variants round-by-round and take the per-variant
    # minimum: frequency scaling then biases all the same way instead of
    # whichever variant happened to run first.
    base_best = disabled_best = profiled_best = float("inf")
    base = disabled = profiled = None
    for _ in range(rounds):
        start = time.perf_counter()
        base = run()
        base_best = min(base_best, time.perf_counter() - start)
        context = RunContext()  # constructed outside the timed region
        start = time.perf_counter()
        disabled = run(context)
        disabled_best = min(disabled_best, time.perf_counter() - start)
        # Profiling on: a live in-memory tracer (what `--trace` and the
        # service's per-job tracing use).
        profiled_context = RunContext(tracer=Tracer(MemorySink()))
        start = time.perf_counter()
        profiled = run(profiled_context)
        profiled_best = min(profiled_best, time.perf_counter() - start)

    def traced():
        context = RunContext(tracer=Tracer(MemorySink()))
        result = run(context)
        context.finish()
        return result, context

    traced_s, (traced_result, traced_context) = timed(traced, h.rounds)
    phases = {
        name: timing.as_dict()
        for name, timing in traced_context.report().phases.items()
    }

    h.record("tracing_baseline", base_best,
             checksum({"positive": base.positive, "samples": base.samples}),
             samples=samples, burn_in=burn_in)
    h.record("tracing_disabled", disabled_best,
             checksum({"positive": disabled.positive,
                       "samples": disabled.samples}),
             samples=samples, burn_in=burn_in)
    h.record("tracing_enabled", traced_s,
             checksum({"positive": traced_result.positive,
                       "samples": traced_result.samples}),
             samples=samples, burn_in=burn_in, phases=phases)

    h.record("tracing_profiled", profiled_best,
             checksum({"positive": profiled.positive,
                       "samples": profiled.samples}),
             samples=samples, burn_in=burn_in)

    h.check("tracing_does_not_perturb_results",
            (base.positive, disabled.positive, profiled.positive,
             traced_result.positive)
            == (base.positive,) * 4,
            f"positives: baseline={base.positive} disabled={disabled.positive} "
            f"profiled={profiled.positive} traced={traced_result.positive}")
    h.check("traced_run_records_phases", "sample" in phases,
            f"phases recorded: {sorted(phases)}")
    # < 2% disabled-tracer overhead <=> speed ratio stays above 0.98.
    h.target("tracing_disabled_overhead",
             base_best / disabled_best if disabled_best else float("inf"),
             0.98, enforced=not h.quick,
             note="RunContext with its span recorder vs bare evaluator; "
                  "target 0.98x = < 2% overhead")
    # < 3% profiling-on overhead <=> speed ratio stays above 0.97.
    h.target("tracing_profiled_overhead",
             base_best / profiled_best if profiled_best else float("inf"),
             0.97, enforced=not h.quick,
             note="live tracer (profiling on) vs bare evaluator; "
                  "target 0.97x = < 3% overhead")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller workloads, fewer rounds")
    parser.add_argument("--output", type=Path, default=None,
                        help="output path (default: BENCH_<date>.json in repo root)")
    args = parser.parse_args(argv)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    h = Harness(quick=args.quick)
    print(f"run_benchmarks: quick={args.quick} rounds={h.rounds} cores={cores}")

    bench_chain_build(h)
    bench_chain(h)
    bench_thm43(h)
    bench_thm56(h, cores)
    bench_kernel(h)
    bench_determinism(h)
    bench_loadgen(h, cores)
    bench_supervisor(h, cores)
    bench_solver(h)
    bench_sparse(h)
    bench_partition(h)
    bench_tracing(h)

    report = {
        "date": datetime.date.today().isoformat(),
        "quick": args.quick,
        "seed": SEED,
        "cores": cores,
        "python": platform.python_version(),
        # Numbers are only comparable across runs on comparable hosts;
        # record enough of the host to tell.
        "host": {
            "python_version": platform.python_version(),
            "python_implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
            "usable_cores": cores,
        },
        "benchmarks": h.benchmarks,
        "targets": h.targets,
        "checks": h.checks,
        "passed": not h.failed,
    }
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parent.parent / (
            f"BENCH_{report['date']}.json")
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if h.failed:
        print("FAILED: checksum drift or enforced speedup target missed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
