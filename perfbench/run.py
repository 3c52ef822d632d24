"""dilcalc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the kernel is imported from ./src.  The
runner itself never imports the kernel.  It starts at most one child
process at a time (``worker.py``, or ``python -m dilcalc.cli`` for
cli-scenario), waits for each, and prints every metric by name and unit,
then one JSON result object as the last line.

--trace 0  end-to-end metrics.  Set-up time is the median of several fresh
           children that only import the kernel and build the inputs.  Then
           one fresh child (for cli-scenario: one process per command) runs
           whole blocks of ops in a closed loop with one caller until
           --seconds have passed.  Metrics are over the ops of those blocks;
           times are reported at the reference speed of hostspeed.py, and
           the measured times are printed on the metadata line.  A
           cli-scenario op's time is its process's CPU time, and a bare
           interpreter start after each op is its reference.
--trace 1  per-layer metrics.  The first blocks of the same schedule run in
           one untraced and one traced child; the traced child ends with a
           fixed layer probe, shared by every workload, that calls each
           layer once.  Then the scaling series run, one fresh child per
           point.  Every answer of every child is checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
# set-up samples taken before and as many after the timed phase, so that a
# slow spell of the machine does not own all of them
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# blocks of the schedule that the traced run replays, per workload
TRACE_BLOCKS = {"functor-sums": 1, "element-oracles": 30, "collapse-fuzz": 10,
                "cli-scenario": 1}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list, capture_stderr: bool = False):
    """Run one child to completion; returns (stdout, exit code, rusage, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL if not capture_stderr else None,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, usage, elapsed


def worker(mode: str, *args) -> dict:
    """Run worker.py in one mode; returns the JSON object it prints last."""
    out, code, _, _ = spawn(
        [sys.executable, str(HERE / "worker.py"), mode, *map(str, args)], capture_stderr=True)
    if code != 0 or not out.strip():
        raise BenchError(f"worker {mode} {' '.join(map(str, args))} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def fit_exponent(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


# ---------------------------------------------------------------------------
# end-to-end run


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_cli_timed(seed: int, seconds: float, expected: dict):
    """Times each command as its process's CPU time; see hostspeed.py."""
    latencies, walls, starts, failed, peak_kb, blocks, samples = [], [], [], [], 0, 0, []
    start = time.perf_counter()
    for block in workloads.cli_schedule(seed):
        for line in block:
            starts.append(time.perf_counter())
            out, code, usage, elapsed = spawn(
                [sys.executable, "-m", "dilcalc.cli", *shlex.split(line)])
            latencies.append(cpu_seconds(usage))
            walls.append(elapsed)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            if expected.get(workloads.cli_key(line)) != workloads.cli_answer(code, out):
                failed.append(workloads.cli_key(line))
            sampled = time.perf_counter()
            _, code, usage, _ = spawn([sys.executable, "-c", "pass"])
            if code != 0:
                raise BenchError(f"reference interpreter start exited with {code}")
            samples.append((sampled, cpu_seconds(usage)))
        blocks += 1
        if time.perf_counter() - start >= seconds:
            break
    return latencies, walls, starts, failed, peak_kb, blocks, samples


def end_to_end(args, expected: dict) -> tuple:
    setups, scaled_setups = [], []

    def setup_samples():
        """Spawn to inputs ready, and the same at the reference speed."""
        for _ in range(SETUP_REPEATS):
            spawned = time.perf_counter()
            res = worker("setup", "--workload", args.workload, "--seed", args.seed)
            setups.append(res["ready"] - spawned)
            scaled_setups.append(setups[-1] * hostspeed.REFERENCE_S / res["reference"])

    setup_samples()
    reference = hostspeed.REFERENCE_S
    walls = None
    if args.workload == "cli-scenario":
        latencies, walls, starts, failed, peak_kb, blocks, samples = run_cli_timed(
            args.seed, args.seconds, expected)
        reference = hostspeed.SPAWN_REFERENCE_S
    else:
        res = worker("timed", "--workload", args.workload, "--seed", args.seed,
                           "--seconds", args.seconds)
        latencies, starts, failed, peak_kb, blocks, samples = (
            res["latencies"], res["starts"], res["failed"], res["peak_kb"], res["blocks"],
            res["reference"])
    setup_samples()
    if not latencies:
        raise BenchError("no op completed")
    attempted = len(latencies)
    scaled = hostspeed.at_reference_speed(starts, latencies, samples, reference)
    pct = workloads.TAIL_PERCENTILE[args.workload]
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "ops_per_s": attempted / sum(scaled),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * percentile(scaled, pct),
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": (attempted - len(failed)) / attempted,
    }
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * percentile(latencies, pct),
        "reference_ms": 1000 * statistics.median(r for _, r in samples),
    }
    if walls:
        measured["wall_p50_ms"] = 1000 * statistics.median(walls)
        measured["wall_tail_ms"] = 1000 * percentile(walls, pct)
    meta = {"ops": attempted, "blocks": blocks, "tail_percentile": pct,
            "ops_beyond_tail": sum(v > metrics["op_tail_ms"] / 1000 for v in scaled),
            "measured": measured, "failed_keys": failed[:10]}
    return metrics, attempted, len(failed), meta


# ---------------------------------------------------------------------------
# traced run


def traced(args) -> tuple:
    blocks = TRACE_BLOCKS[args.workload]
    plain = worker("fixed", "--workload", args.workload, "--seed", args.seed,
                         "--blocks", blocks, "--trace", 0)
    traced_res = worker("fixed", "--workload", args.workload, "--seed", args.seed,
                              "--blocks", blocks, "--trace", 1)
    if plain["answers"] != traced_res["answers"][: plain["ops"]]:
        raise BenchError("traced answers differ from untraced answers")
    attempted = plain["ops"] + traced_res["ops"]
    failed = plain["failed"] + traced_res["failed"]
    imports = [plain["import_s"], traced_res["import_s"]]
    metrics = dict(traced_res["layers"])
    metrics["trace_overhead_ratio"] = traced_res["wall_s"] / plain["wall_s"]

    series = {}
    for fn in workloads.SERIES_FNS:
        for n in workloads.SERIES_N:
            res = worker("series", "--point", f"{fn}/{n}")
            series[fn, n] = res["seconds"][0]
            attempted += res["ops"]
            failed += res["failed"]
            imports.append(res["import_s"])
        metric = {"j": "jfunctor.j_eval", "jprime": "jfunctor.jprime_eval",
                  "psi": "psi.psi_clause_otp"}[fn]
        for n in workloads.SERIES_N:
            metrics[f"{metric}.ms_n{n}"] = 1000 * series[fn, n]
        metrics[f"{metric}.scaling_exponent"] = fit_exponent(
            workloads.SERIES_N, [series[fn, n] for n in workloads.SERIES_N])
    for point, prefix in (("arity", "analysis.important_index.ms_arity"),
                          ("dispatch", "cli.dispatch_ms")):
        res = worker("series", "--point", point)
        attempted += res["ops"]
        failed += res["failed"]
        imports.append(res["import_s"])
        if point == "arity":
            for arity, seconds in enumerate(res["seconds"], start=1):
                metrics[f"{prefix}{arity}"] = 1000 * seconds
        else:
            metrics[prefix] = 1000 * res["seconds"][0]
    metrics["cli.import_s"] = statistics.median(imports)
    meta = {"traced_blocks": blocks, "traced_ops": traced_res["ops"],
            "failed_keys": failed[:10]}
    return metrics, attempted, len(failed), meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    kernel = ROOT / "src" / "dilcalc" / "cli.py"
    if not spec_path.is_file() or not kernel.is_file():
        print(f"run from a dilcalc checkout: need {spec_path} and {kernel}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)["answers"]

    try:
        if args.trace:
            metrics, attempted, failed, meta = traced(args)
        else:
            metrics, attempted, failed, meta = end_to_end(args, expected)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print(f"metric set differs from BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1

    meta.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0))})
    for m in declared:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
