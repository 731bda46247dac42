#!/usr/bin/env python3
"""Time-to-verdict benchmark for opaq, stdlib only.

Usage (from the repository root):

    python3 perfbench/run.py --workload {nth-last,wide-chain,crosscheck,all} \
        --seed N --seconds S --trace {0,1}

Each workload runs in its own child process, one after another, so that
``peak_rss_mb`` belongs to that workload alone.  The child imports ``opaq``
from ``src/`` of this checkout, measures for S seconds and prints a report,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = tuple(workloads.WORKLOADS)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "opaq", "__init__.py")):
        print(f"error: no opaq package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # A run starts no pass it expects to end past --seconds; the rest covers
    # a slow pass, the set-ups and the import.
    timeout = 2 * args.seconds + 60
    results = {}
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        # A fixed hash seed per --seed fixes the iteration order of the
        # program's sets, so that the same seed runs the same work.
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {timeout:g} s", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        print(f"  wall {time.perf_counter() - started:.1f} s")
        results[name] = json.loads(lines[-1])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
