"""Trace-replay benchmark for the decremental shortest-path stack.

One workload run:

    python3 perfbench/run.py --workload sssp-light --seed 1 --seconds 40 --trace 0

prints a human-readable summary and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  The exit code is 1 when
any op failed its check.

Every workload, each in a fresh process, one after another:

    python3 perfbench/run.py --all --seed 1 --seconds 40

See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh processes per untraced run.  The same ops timed in different
# processes on one host differ by up to 1.8x on the Fraction-heavy query
# path, and by much less on builds and deletions; a run takes several
# processes so that no single one decides its figures.
MAX_WORKERS = 12


def run_workers(workload: str, seed: int, seconds: float):
    """Untraced passes in fresh worker processes, one after another.

    Worker j replays passes j, j + MAX_WORKERS, ... for a MAX_WORKERS-th
    of `seconds`, and at least one pass.  Workers start while the next one
    still fits in `seconds`; the first always starts.
    Returns (metrics, samples, passes), or None if a worker died."""
    start = time.perf_counter()
    runs = []
    while len(runs) < MAX_WORKERS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--worker",
             str(len(runs)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds / MAX_WORKERS)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        out = json.loads(proc.stdout)
        runs.append(([bench.Pass.from_json(p) for p in out["passes"]],
                      out["peak_rss_mb"]))
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    return (*bench.end_to_end(runs), [p for passes, _ in runs for p in passes])


def run_worker(workload: str, seed: int, seconds: float, j: int) -> int:
    passes, peak = bench.run_passes(WORKLOADS[workload], seed, seconds,
                                    first=j, step=MAX_WORKERS)
    print(json.dumps({"peak_rss_mb": peak,
                      "passes": [p.to_json() for p in passes]}))
    return 0


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    samples = None
    if trace:
        metrics, passes = bench.run_traced(WORKLOADS[workload], seed)
    else:
        got = run_workers(workload, seed, seconds)
        if got is None:
            return 1
        metrics, samples, passes = got
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "ops_failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:10],
    }
    if samples is not None:
        detail["samples"] = samples
        detail["host_slowdown"] = statistics.median(
            p.host_slowdown for p in passes)
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    bad = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        print(f"{name}: correct={last.get('correct')} "
              f"attempted={last.get('attempted')} failed={last.get('failed')}")
        for metric, m in last.get("metrics", {}).items():
            print(f"  {metric:<20} {m['value']:>14.6g} {m['unit']}")
        if proc.returncode != 0 or not last.get("correct"):
            bad += 1
            sys.stderr.write(proc.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills the worker it waits for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload or --all")
    if args.worker is not None:
        return run_worker(args.workload, args.seed, args.seconds, args.worker)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
