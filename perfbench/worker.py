"""One benchmark child process; ``run.py`` starts it, one at a time.

Every child is a fresh interpreter, so the kernel's module-level caches
start empty.  Modes:

  setup   import the kernel and build the workload's inputs, then exit
  timed   run whole blocks of ops until --seconds have passed
  fixed   run the first --blocks blocks; with --trace 1, traced and followed
          by the layer probe
  series  one point of a scaling series (J/J'/psi of Id*n, important_index
          by arity, in-process CLI dispatch)

The child prints one JSON object as the last line of its standard output.
Answers are rendered and checked against expected.json outside the timed
region of each op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACE_DIR = Path.cwd() / ".perfbench"
sys.path.insert(0, str(HERE))
# cli.main sets the same limit; j_eval(Id*400, w) needs it
sys.setrecursionlimit(20000)

import workloads  # noqa: E402
from hostspeed import HostClock, reference_seconds  # noqa: E402


def import_kernel() -> float:
    start = time.perf_counter()
    import dilcalc.cli  # noqa: F401

    return time.perf_counter() - start


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["answers"]


class Runner:
    """Runs ops, times each kernel call, and checks answers afterwards."""

    def __init__(self):
        from dilcalc.errors import FRAGMENT_ERRORS

        self.refusals = FRAGMENT_ERRORS
        self.records = []  # (key, seconds, answer)
        self.starts = []

    def run(self, op):
        start = time.perf_counter()
        self.starts.append(start)
        try:
            result = op.call()
        except self.refusals as exc:
            elapsed = time.perf_counter() - start
            answer = workloads.refusal(exc)
        except RecursionError:
            # a failed op, never an honest refusal
            elapsed = time.perf_counter() - start
            answer = "error:RecursionError"
        else:
            elapsed = time.perf_counter() - start
            answer = op.render(result)
        self.records.append((op.key, elapsed, answer))
        return elapsed

    def failures(self, expected: dict) -> list:
        return [key for key, _, answer in self.records
                if answer.startswith("error:") or expected.get(key) != answer]

    def answers(self) -> list:
        return [[key, answer] for key, _, answer in self.records]


def mode_setup(args) -> dict:
    """Set-up ends when the inputs exist; the reference is timed after it."""
    import_s = import_kernel()
    if args.workload == "cli-scenario":
        workloads.cli_schedule(args.seed)
    else:
        workloads.BUILDERS[args.workload](args.seed)
    ready = time.perf_counter()
    reference = statistics.median(reference_seconds() for _ in range(3))
    return {"import_s": import_s, "ready": ready, "reference": reference}


def mode_timed(args) -> dict:
    import_s = import_kernel()
    blocks = workloads.BUILDERS[args.workload](args.seed)
    runner = Runner()
    clock = HostClock()
    start = time.perf_counter()
    done = 0
    peak_kb = 0
    for block in blocks:
        for op in block:
            runner.run(op)
            clock.tick()
        done += 1
        if done <= workloads.RSS_BLOCKS[args.workload]:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    failed = runner.failures(load_expected())
    return {
        "import_s": import_s,
        "blocks": done,
        "peak_kb": peak_kb,
        "wall_s": wall,
        "latencies": [r[1] for r in runner.records],
        "starts": runner.starts,
        "failed": failed,
        "reference": clock.samples,
    }


def mode_fixed(args) -> dict:
    import_s = import_kernel()
    blocks = workloads.BUILDERS[args.workload](args.seed)[: args.blocks]
    probe = workloads.probe_ops() if args.trace else []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner()
    start = time.perf_counter()
    for block in blocks:
        for op in block:
            runner.run(op)
    wall = time.perf_counter() - start
    for op in probe:
        runner.run(op)
    out = {
        "import_s": import_s,
        "wall_s": wall,
        "ops": len(runner.records),
        "failed": runner.failures(load_expected()),
        "answers": runner.answers(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
        write_trace(args, tracer, runner)
    return out


def write_trace(args, tracer, runner):
    """Write the traced run's op spans and per-function totals to .perfbench/."""
    TRACE_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [{"key": key, "ms": 1000 * seconds} for key, seconds, _ in runner.records],
        "functions": {name: {"calls": tracer.calls[name], "self_s": tracer.self_s.get(name, 0.0)}
                      for name in sorted(tracer.calls)},
    }
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=0) + "\n")


def mode_series(args) -> dict:
    import_s = import_kernel()
    runner = Runner()
    kind, _, arg = args.point.partition("/")
    if kind == "arity":
        ops = workloads.arity_ops()
        seconds = []
        for op in ops:
            seconds.append(statistics.median(
                runner.run(op) for _ in range(workloads.SERIES_ARITY_REPEATS)))
    elif kind == "dispatch":
        ops = [workloads.cli_op(line) for line in workloads.CLI_DISPATCH]
        seconds = [statistics.median(runner.run(op) for op in ops)]
    else:
        seconds = [runner.run(workloads.series_op(kind, int(arg)))]
    return {
        "import_s": import_s,
        "seconds": seconds,
        "ops": len(runner.records),
        "failed": runner.failures(load_expected()),
    }


MODES = {"setup": mode_setup, "timed": mode_timed, "fixed": mode_fixed, "series": mode_series}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--point", default="")
    args = parser.parse_args()
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
