"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seed N] [--other-seed M] [--seconds S]

Run from the root of a checkout.  For every workload: two traced runs with
the same seed must give identical answers and identical exact counts (every
per-layer count, cache size and ratio; self times are measured, so they
are left out), and a timed run with a different seed must fail no op.
Exits 1 if any workload fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def traced_once(workload: str, seed: int) -> tuple:
    res = run.worker("fixed", "--workload", workload, "--seed", seed,
                     "--blocks", run.TRACE_BLOCKS[workload], "--trace", 1)
    exact = {k: v for k, v in res["layers"].items() if not k.endswith("self_s")}
    return res["answers"], exact, res["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    ok = True
    with open(run.HERE / "expected.json") as fh:
        expected = json.load(fh)["answers"]
    for workload in workloads.WORKLOADS:
        first, second = traced_once(workload, args.seed), traced_once(workload, args.seed)
        same_answers = first[0] == second[0]
        diff = sorted(k for k in first[1] if first[1][k] != second[1][k])
        other = argparse.Namespace(workload=workload, seed=args.other_seed, seconds=args.seconds)
        _, attempted, failed, _ = run.end_to_end(other, expected)
        passed = same_answers and not diff and not first[2] and failed == 0
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {workload}: answers identical={same_answers}, "
              f"counts differing={diff}, traced failures={len(first[2])}, "
              f"seed {args.other_seed}: {failed}/{attempted} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
