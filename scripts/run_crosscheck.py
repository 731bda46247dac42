#!/usr/bin/env python3
"""Run the seeded agreement batch and print a per-property summary table.

Usage: python3 scripts/run_crosscheck.py [models] [seed]
Writes crosscheck_report.jsonl and any divergence fixtures to ./divergences/.
Arguments other than at most two integers, with at least one model, print
the usage to stderr and exit 2.
"""

from __future__ import annotations

import sys
from collections import Counter

from opaq.crosscheck import run_crosscheck

USAGE = "usage: python3 scripts/run_crosscheck.py [models] [seed]"


def main(argv: list[str]) -> int:
    try:
        models, seed = [int(arg) for arg in argv] + [500, 7][len(argv):]
    except ValueError:
        # A non-integer, or more than two arguments.
        models = 0
    if models < 1:
        print(USAGE, file=sys.stderr)
        print("error: models must be a positive integer and seed an integer", file=sys.stderr)
        return 2
    result = run_crosscheck(
        models=models,
        max_states=5,
        ks=(0, 1, 2, 3),
        seed=seed,
        report_path="crosscheck_report.jsonl",
        fixtures_dir="divergences",
    )
    totals: Counter[str] = Counter()
    agreed: Counter[str] = Counter()
    for row in result.rows:
        totals[row["property"]] += 1
        agreed[row["property"]] += row["agree"]
    print(f"{'property':<12}{'checks':>8}{'agree':>8}{'rate':>9}")
    for prop in ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong"):
        n, a = totals[prop], agreed[prop]
        print(f"{prop:<12}{n:>8}{a:>8}{a / n:>9.4f}")
    rate = len(result.rows) / result.elapsed if result.elapsed > 0 else float("inf")
    print(f"\nelapsed: {result.elapsed:.1f}s over {result.models} models ({rate:,.0f} checks/s)")
    for path in result.divergence_fixtures:
        print(f"divergence fixture: {path}")
    for line in result.structural_failures:
        print(f"structural failure: {line}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
