#!/usr/bin/env python3
"""Closed-loop benchmark of ``repro``: end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``cold-exact``, ``warm-sample`` and
``http-churn`` (see ``perfbench/README.md``).  The seed makes the
request list; ``--seconds`` sizes it (``traffic.RATES``), so a run lasts
about that long on the host the rates were measured on.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced pass with ``--trace 1``.
Every answer is checked against a reference; a wrong answer counts as a
failed request.  Times are reported at reference speed (``pace``): the
wall time scaled by how fast the host ran a fixed loop around the work;
the raw wall-clock figures are printed too.  The program is imported
from ``src/`` of the checkout and nowhere else: without it the run exits
with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

WORKLOADS = ("cold-exact", "warm-sample", "http-churn")

#: Set-ups per run; ``setup_s`` is their median.  The first is this
#: process's own, the rest run in fresh interpreters, so that each pays
#: the same first-use costs.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override the request count (the benchmark's own tests use this)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up in this interpreter and print it (internal)",
    )
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with status 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    # Everything the runners call, so set-up time starts after imports.
    import repro.cli  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.http  # noqa: F401


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_setups(args: argparse.Namespace, count: int) -> list[dict]:
    """Time ``count`` set-ups, each in a fresh interpreter, one at a time.

    A child inherits its parent thread's CPUs, so this thread first gets
    back every CPU the run was given, as the first set-up had.
    """
    import runners

    os.sched_setaffinity(0, runners.CPUS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    _import_program()
    import runners
    import traffic as traffic_mod

    total = 0 if args.setup_only else (
        args.requests or traffic_mod.request_count(args.workload, args.seconds)
    )
    traffic = traffic_mod.generate(args.workload, args.seed, total)
    workdir = WORKDIR / str(os.getpid())
    try:
        if args.setup_only:
            runner, setup = runners.set_up(args.workload, traffic, workdir)
            runner.teardown()
            print(json.dumps({"raw_s": setup.raw_s, "reference_s": setup.reference_s}))
            return 0
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(traffic.timed)} requests {traffic.class_counts()}")
        print(f"request-checksum: {traffic.checksum()}")
        if args.trace:
            import layers

            spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = layers.traced_run(args.workload, traffic, workdir, SRC, spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            result = _untraced_run(args, traffic, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _untraced_run(args: argparse.Namespace, traffic, workdir: Path) -> dict:
    import pace
    import runners

    setup, outcomes, wall = runners.run_pass(args.workload, traffic, workdir, "timed")
    peak_rss = _peak_rss_mb()
    runners.pool_sampled(traffic.timed, outcomes)
    attempted, failed, failures = runners.summarize(outcomes)
    for line in failures[:20]:
        print(f"FAILED {line}")
    setups = [{"raw_s": setup.raw_s, "reference_s": setup.reference_s}]
    setups += _child_setups(args, SETUP_REPEATS - 1)
    ok = [o for o in outcomes if o.error is None]
    latencies = [o.reference_s * 1e3 for o in ok]
    metrics = {
        "setup_s": statistics.median(s["reference_s"] for s in setups),
        "throughput_qps": len(ok) / wall.reference_s,
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_p90_ms": _percentile(latencies, 90),
        "peak_rss_mb": peak_rss,
    }
    raw = [o.latency_s * 1e3 for o in ok]
    beyond_p90 = sum(1 for value in latencies if value > metrics["latency_p90_ms"])
    print("set-ups (s, raw / at reference speed): "
          + ", ".join(f"{s['raw_s']:.3f}/{s['reference_s']:.3f}" for s in setups))
    print(f"latency samples: {len(latencies)} ({beyond_p90} beyond p90); "
          f"timed region {wall.raw_s:.2f} s raw, {wall.reference_s:.2f} s at reference speed")
    print(f"raw wall clock: throughput_qps {len(ok) / wall.raw_s:.4f}, "
          f"latency_p50_ms {_percentile(raw, 50):.4f}, latency_p90_ms {_percentile(raw, 90):.4f}")
    loops = wall.sampler.seconds
    print(f"host speed: loop mean {1e3 * statistics.fmean(loops):.3f} ms, "
          f"{1e3 * min(loops):.3f}-{1e3 * max(loops):.3f} ms over {len(loops)} samples "
          f"(reference {1e3 * pace.REFERENCE_S:.3f} ms)")
    for cls in sorted({o.cls for o in outcomes}):
        values = [o.reference_s * 1e3 for o in ok if o.cls == cls]
        if values:
            print(f"  class {cls:<13} n={len(values):<5} median {statistics.median(values):8.2f} ms"
                  f"  max {max(values):8.2f} ms")
    windows = [0] * 5
    for outcome in outcomes:
        windows[min(4, int(5 * outcome.end_s / wall.raw_s))] += 1
    print("raw throughput by fifth of the run (queries/s): "
          + ", ".join(f"{5 * count / wall.raw_s:.2f}" for count in windows))
    for name, value in metrics.items():
        print(f"{name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"{'error_rate':<16} {failed / attempted:12.4f} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
