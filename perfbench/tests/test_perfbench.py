"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.

Tiny runs (a dozen requests) of each workload, through the same entry
point the full benchmark uses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import runners  # noqa: E402
import traffic  # noqa: E402

WORKLOADS = ("cold-exact", "warm-sample", "http-churn")
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def _bench(*args: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED="random"),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = _bench("--workload", workload, "--seed", "3",
                           "--requests", "12", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for name, unit in END_TO_END.items():
        assert table[name][-1] == unit, table.get(name)
        float(table[name][1])
    assert set(result["metrics"]) == set(END_TO_END) - {"error_rate"}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name] and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_an_error(workload, monkeypatch, capsys):
    generate = traffic.generate

    def corrupted(name, seed, total):
        generated = generate(name, seed, total)
        if generated.timed:
            check = generated.timed[0].check
            generated.timed[0].check = instances.Check(
                check.kind, check.reference + Fraction(1, 3), check.epsilon, check.samples
            )
        return generated

    monkeypatch.setattr(traffic, "generate", corrupted)
    assert run.main(["--workload", workload, "--seed", "4", "--requests", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["attempted"] == 6 and result["failed"] == 1
    assert not result["correct"]
    assert any(line.startswith("FAILED #0") and "wrong answer" in line for line in out)
    rate = next(line for line in out if line.startswith("error_rate"))
    assert float(rate.split()[1]) == pytest.approx(1 / 6, abs=1e-4)


def test_sampled_check_rejects_a_biased_estimate():
    check = instances.Check("sampled", Fraction(1, 4), samples=200)
    width = instances.hoeffding_halfwidth(200)
    assert check.verdict({"estimate": 0.25 + 0.9 * width, "samples": 200}) is None
    assert check.verdict({"estimate": 0.25 + 1.1 * width, "samples": 200})
    assert check.verdict({"estimate": 0.25, "samples": 100})


def test_pooled_check_catches_a_sampler_that_always_answers_zero():
    """Each estimate passes its own envelope; the class fails as a whole."""
    requests, outcomes = [], []
    for index in range(20):
        check = instances.Check("sampled", Fraction(1, 10), samples=400)
        assert check.verdict({"estimate": 0.0, "samples": 400}) is None
        requests.append(traffic.Request("mcmc", "forever", "", {}, "", {}, check))
        outcomes.append(runners.Outcome(index, "mcmc", 0, 0.01, None,
                                        estimate=0.0, samples=400))
    honest = [runners.Outcome(o.index, o.cls, 0, 0.01, None, estimate=0.1, samples=400)
              for o in outcomes]
    assert runners.pool_sampled(requests, honest) == []
    assert all(o.error is None for o in honest)
    failures = runners.pool_sampled(requests, outcomes)
    assert len(failures) == 1 and failures[0].startswith("mcmc: pooled estimate")
    assert runners.summarize(outcomes)[1] == 20


def test_reference_speed_averages_the_nearest_samples():
    sampler = pace.Sampler("warm-sample")
    sampler.times = [float(t) for t in range(100)]
    sampler.seconds = [pace.REFERENCE_S] * 50 + [2 * pace.REFERENCE_S] * 50
    k = pace.ELASTICITY["warm-sample"]
    assert sampler.factor() == pytest.approx((2 / 3) ** k)
    assert sampler.factor_at(10.0, 12.0) == pytest.approx(1.0)
    assert sampler.factor_at(90.0, 99.5) == pytest.approx(0.5**k)
    assert sampler.factor_at(44.0, 55.0) == pytest.approx((2 / 3) ** k)
    live = pace.Sampler("cold-exact")
    live.sample()
    live.sample()  # within EVERY_S of the first: skipped
    live.sample(client=1)
    assert len(live.seconds) == 2 and all(s > 0 for s in live.seconds)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests_and_counts(workload):
    def traced(seed: str) -> tuple[str, str, dict]:
        lines, result = _bench("--workload", workload, "--seed", seed,
                               "--requests", "14", "--trace", "1")
        assert result["correct"], [line for line in lines if line.startswith(("COVERAGE", "FAILED"))]
        checksum = next(line for line in lines if line.startswith("request-checksum:"))
        counts = next(line for line in lines if line.startswith("counts:"))
        return checksum, counts, result["metrics"]

    first, second = traced("8"), traced("8")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert traced("9")[0] != first[0]
    for name in ("trace.overhead_ratio", "cli.import_ms", "error_rate"):
        assert name in first[2]
