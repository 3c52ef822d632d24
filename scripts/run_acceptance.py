#!/usr/bin/env python3
"""Run every acceptance suite and print one line per criterion."""

import argparse
import sys

from dilcalc.suites import CHECKS, run_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prefix", type=int, default=200)
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--depth", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--only", choices=sorted(CHECKS), default=None)
    args = parser.parse_args()

    names = [args.only] if args.only else list(CHECKS)
    worst = 0
    for name in names:
        reports = run_check(
            name,
            prefix=args.prefix,
            trials=args.trials,
            depth=args.depth,
            seed=args.seed,
        )
        for rep in reports:
            status = "PASS" if rep.ok else "FAIL"
            print(
                f"{status} {rep.name}: {len(rep.details)} checks, "
                f"{len(rep.skips)} skips, {len(rep.violations)} violations "
                f"({rep.duration:.1f}s)"
            )
            for line in rep.violations:
                print(f"    violation: {line}")
            for line in rep.skips:
                print(f"    skip: {line}")
            if not rep.ok:
                worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
