#!/usr/bin/env python3
"""Kernel scaling series and CLI start-up times, written to BENCH_<tag>.json.

    python scripts/bench.py --tag T

Times J, J', psi and otp of ``Id*n`` at w for each n in SIZES, at the
interpreter's default recursion limit.  Each point runs REPEATS times on a
freshly built expression with the module caches (``_PSI_CACHE``,
``_OTP_CACHE``) emptied, and the median is kept with a sha1 of the value, so
two checkouts can be compared value for value, and with the number of entries
each cache holds after the last call.  A point that raises records
the error; after an error, or a median above MAX_SECONDS, the series records
its larger sizes as skipped.  Each series runs in PROCESSES fresh
interpreters, one after another, and each point keeps the median of the
interpreters' medians, with their least and greatest: one interpreter's
reading can be far from another's (``fresh_spread``; every other point but
the CLI series runs the same way).  Each series gets the least-squares
slope of log time on log n over the medians of its timed points.  The peel
series, with the same rules, times ``expr._split_trailing`` applied to
``Id*n`` until only its first summand is left.

The CLI series runs each line of ``scripts/lemma_suite.commands`` as
``python -m dilcalc.cli`` and, beside it, a bare ``python -c pass``, each
CLI_REPEATS times in alternation, and keeps the median of each child's user
plus system CPU time (from ``os.wait4``) with its exit code.  Children
inherit this process's environment, so whether they may write bytecode is
recorded too: without cached bytecode every child compiles the kernel.
The check-all point runs ``python -m dilcalc.cli check all`` the same way in
PROCESSES children and keeps the median CPU time, with the exit codes and
the sha1s of the children's stdout.

The translation series times ``coherence.sum_inject`` (of ``Id*n`` and
``Id``), ``coherence.prefix_inject`` (into ``Id*n+1``) and
``coherence.limit_prefix_inject`` (into ``Id*w``, whose fund(n) is ``Id*n``)
on the element of the last summand of ``Id*n`` over one point, with the same
sizes, repeats, error, skip and interpreter rules, and a sha1 of the image's
``element_str``.

The element series times the brute-force oracle layer on the atom
ELEMENT_ATOM, under the trace budget of the element-oracles workload:
``important_index`` on the first trace term of each arity 1-4 (median of
ELEMENT_REPEATS calls, with the slot it answers), and ``compare_elements``
per call over the adjacent pairs of the arity-4 term's embedding images,
sorted by ``element_key``, so that each call compares two neighbours in the
images' order (median of ELEMENT_REPEATS passes).  It also times
``ll_relation`` per call, with a sha1 of its answers, over every ordered
pair of the trace terms up to arity 2 of the sum ELEMENT_SUM, the sum the
element-oracles workload relates (median of ELEMENT_REPEATS passes), and
over every ordered pair of ELEMENT_ATOM's trace terms up to arity 3, the
arities the workload relates on its atoms (median of REPEATS passes: that
is 432 terms, so 186,624 pairs).

The refusal point times one ``jplus_eval`` of REFUSAL at w, REPEATS times
in CPU seconds, in PROCESSES fresh interpreters, and records its answer or
``type: message``; it once ran J to ``DEPTH_CAP`` and now refuses with
``OutOfNotation`` at once, since a head over constants is a constant.  The
depth-cap point does the same for ``j_eval`` of DEPTH_CAP_EXPR, a limit tower
one level above LIMIT_TOWER's top, which still runs J to ``DEPTH_CAP``.  The
deep-chain point does the same for ``jplus_eval`` of DEEP_CHAIN at w, whose
separations nest once per summand: it shows whether J reaches its answer or
refusal at the default recursion limit, or stops with ``RecursionError``.
Each of the three starts in its own interpreters, so none reads what
another left in its process.

The limit-tower point times ``j_eval`` of each LIMIT_TOWER expression at w
(median of REPEATS calls, in CPU seconds) and counts its steps per clause,
in PROCESSES fresh interpreters.  The tower nests one ``*w`` limit per
level, so it shows what a limit costs.

The psi-enum point times ``psi_enum`` at depth 2 of each PSI_ENUMS order, the
four enumerations of the collapse-fuzz workload (median of REPEATS calls, in
CPU seconds), with the term count and the sha1 of the terms rendered one per
line, in PROCESSES fresh interpreters.

The enum-elements point times ``enum_trace_terms`` under ELEMENT_BUDGET, the
trace budget of the element-oracles workload, of each ELEMENT_ATOMS atom up
to arity 4 and of ELEMENT_SUM up to arity 2, the enumerations that workload's
set-up makes (median of REPEATS calls, in CPU seconds), with the term count
and the sha1 of the terms rendered one per line with their arity, in
PROCESSES fresh interpreters.

The chain-search point times ``chain_search`` (CHAIN_TRIALS trials, chain
depth CHAIN_DEPTH) at each of CHAIN_SEEDS for each CHAIN_ORDERS order, the
four search orders of the collapse-fuzz workload and a sum of three parts
(median of REPEATS passes over the seeds, in CPU seconds), with a sha1 of the
search answers and one of every term the search drew, in PROCESSES fresh
interpreters.  The orders are well-founded, so every answer reads
``NoneFound``; the drawn terms show that the seeded draws stay the same.

The stream point takes STREAM_ELEMENTS elements of each STREAM_EXPRS
expression over STREAM_POINTS points through ``prefix_elements`` (median of
REPEATS calls, in CPU seconds), with the sha1 of the elements rendered one
per line, and counts the elements that ``ambient_stream`` yields before it
refuses at each pull cap of STREAM_CAPS, in PROCESSES fresh interpreters.
The expressions are the heads of the pinned pull table in the tests and
the ``omega[...]`` expressions of the element-oracles workload.

The sep-fold point times ``otp_symbolic`` at 1 of SEP_FOLD for each n in
SEP_FOLD_SIZES (median of REPEATS calls, in CPU seconds, ``_OTP_CACHE``
emptied before each), with the answer or ``type: message``, in PROCESSES
fresh interpreters.  The separation's slices at w+k build a ``*w`` chain
one node per unit of the constant's finite tail, so it shows what such a
chain costs.

The kernel is imported from the ``src`` directory next to this script, so
the script measures the checkout it sits in.  Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dilcalc import analysis, coherence, psi  # noqa: E402
from dilcalc.analysis import (  # noqa: E402
    enum_trace_terms,
    important_index,
    ll_relation,
    otp_symbolic,
)
from dilcalc.errors import BudgetExceeded, DilcalcError  # noqa: E402
from dilcalc.expr import (  # noqa: E402
    D_ID,
    D_ONE,
    _split_trailing,
    mk_mul_nat,
    mk_sum,
    parse_dil,
    to_str,
)
from dilcalc.jfunctor import j_eval, jplus_eval, jprime_eval  # noqa: E402
from dilcalc.ordinal import ord_str, parse_ord  # noqa: E402
from dilcalc.semantics import (  # noqa: E402
    EnumBudget,
    Right,
    ambient_stream,
    apply_embedding,
    compare_elements,
    element_key,
    element_str,
    prefix_elements,
    support_of,
)

SIZES = (100, 200, 400, 800, 1600, 3000)
REPEATS = 3
MAX_SECONDS = 5.0
CLI_REPEATS = 5
COMMANDS = ROOT / "scripts" / "lemma_suite.commands"
ELEMENT_ATOM = "omega_head(1;omega_head(0;Id))"
ELEMENT_ATOMS = ("Id", "omega_head(0;Id)", "omega_head(Id;Id)", ELEMENT_ATOM)
ELEMENT_SUM = "Id+omega_head(0;Id)+Id"
ELEMENT_BUDGET = dict(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3)
ELEMENT_REPEATS = 51
PROCESSES = 3
LIMIT_TOWER = ("Id*w", "Id*w*w", "Id*w*w*w", "Id*w*w*w*w")
REFUSAL = "omega_head(0;Id)+Id+1+Const(w)+Id"
DEPTH_CAP_EXPR = "Id*w*w*w*w*w"
DEEP_CHAIN = "Id*1200"
PSI_ENUMS = (("omega[Id]+Id", "1"), ("omega[Id]", "0"), ("Id*2", "w"), ("Const(w)+Id", "w^2"))
CHAIN_ORDERS = (("omega[Id]", "0"), ("Id", "w"), ("Id*2", "w"), ("Const(w)+Id", "w^2"),
                ("Id+1+Id", "w"))
CHAIN_SEEDS = range(25)
STREAM_EXPRS = ("omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(Const(w);Id)",
                "omega_head(1;omega_head(0;Id))", "omega_head(omega[Id];Id)", "omega[Id]",
                "omega[Id+1]", "omega[Id*2]", "omega[Id]+Id")
STREAM_POINTS = 3
STREAM_ELEMENTS = 10000
STREAM_CAPS = (100, 1000)
CHAIN_TRIALS = 20
CHAIN_DEPTH = 30
SEP_FOLD = "sep@(omega_head(Id;Id);w+{n};w+{n})"
SEP_FOLD_SIZES = (25, 50, 100, 200)
SERIES = {
    "j": lambda d, w: j_eval(d, w).value,
    "jprime": lambda d, w: jprime_eval(d, w).value,
    "psi": psi.psi_clause_otp,
    "otp": otp_symbolic,
}



def kernel_setup(fn):
    """A series point of fn at Id*n and w, its value shown as an ordinal."""
    def setup(n: int):
        d, w = mk_mul_nat(D_ID, n), parse_ord("w")
        return (lambda: fn(d, w)), ord_str
    return setup


def peel_setup(n: int):
    """``_split_trailing`` down Id*n to its first summand, shown as text."""
    d = mk_mul_nat(D_ID, n)

    def peel():
        rest = d
        while rest is not None:
            rest, last = _split_trailing(rest)
        return last
    return peel, to_str


def sum_inject_setup(n: int):
    d = mk_mul_nat(D_ID, n)
    elem = coherence.top_inject(d, Right(0))
    target = mk_sum(d, D_ID)
    return (lambda: coherence.sum_inject((d, D_ID), 0, elem)), lambda r: element_str(target, r)


def prefix_inject_setup(n: int):
    d = mk_mul_nat(D_ID, n)
    elem, target = coherence.top_inject(d, Right(0)), mk_sum(d, D_ONE)
    return (lambda: coherence.prefix_inject(target, elem)), lambda r: element_str(target, r)


def limit_prefix_inject_setup(n: int):
    d, elem = parse_dil("Id*w"), coherence.top_inject(mk_mul_nat(D_ID, n), Right(0))
    return (lambda: coherence.limit_prefix_inject(d, n, elem)), lambda r: element_str(d, r)


TRANSLATIONS = {"sum_inject": sum_inject_setup, "prefix_inject": prefix_inject_setup,
                "limit_prefix_inject": limit_prefix_inject_setup}
SETUPS = {**{name: kernel_setup(fn) for name, fn in SERIES.items()}, "peel": peel_setup,
          **TRANSLATIONS}


def time_point(setup, n: int) -> dict:
    """REPEATS timed calls of the call that setup(n) builds afresh each time."""
    runs, digest = [], None
    for _ in range(REPEATS):
        psi._PSI_CACHE.clear()
        analysis._OTP_CACHE.clear()
        call, show = setup(n)
        start = time.perf_counter()
        try:
            value = call()
        except (DilcalcError, RecursionError) as exc:
            return {"n": n, "error": f"{type(exc).__name__}: {exc}"[:200]}
        runs.append(time.perf_counter() - start)
        digest = hashlib.sha1(show(value).encode()).hexdigest()
    return {"n": n, "median_s": statistics.median(runs), "runs_s": runs, "value_sha1": digest,
            "otp_cache_entries": len(analysis._OTP_CACHE),
            "psi_cache_entries": len(psi._PSI_CACHE)}


def fit_exponent(points: list):
    timed = [p for p in points if "s" in p]
    if len(timed) < 2:
        return None
    xs = [math.log(p["n"]) for p in timed]
    ys = [math.log(p["s"]["median"]) for p in timed]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_series(name: str) -> list:
    """The points of SETUPS[name], timed in this process."""
    points = []
    for n in SIZES:
        if points and points[-1].get("median_s", math.inf) > MAX_SECONDS:
            points.append({"n": n, "skipped": True})
            continue
        points.append(time_point(SETUPS[name], n))
        print(f"  n={n}: {points[-1].get('median_s', points[-1].get('error'))}", file=sys.stderr)
    return points


def median_s(fn, repeats: int) -> tuple:
    """The median and the runs of ``repeats`` timed calls of fn."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs), runs


def pos_key(p) -> tuple:
    """The position key of the default position order: frozen positions by
    value, below the live points by label."""
    return (1, p.point) if p.__class__ is Right else (0, p.value)


def element_series() -> dict:
    atom = parse_dil(ELEMENT_ATOM)
    firsts = {}
    for term, arity in enum_trace_terms(atom, 4, EnumBudget(**ELEMENT_BUDGET)):
        firsts.setdefault(arity, term)
    index = []
    for arity in range(1, 5):
        term = firsts[arity]
        med, runs = median_s(lambda: important_index(atom, term), ELEMENT_REPEATS)
        index.append({"arity": arity, "slot": important_index(atom, term),
                      "median_ms": 1000 * med, "runs_ms": [1000 * r for r in runs]})
        print(f"  important_index arity {arity}: {1000 * med:.3f} ms", file=sys.stderr)
    term = firsts[4]
    pts = support_of(atom, term)
    images = sorted(
        (apply_embedding(atom, term, dict(zip(pts, c)))
         for c in itertools.combinations(range(8), 4)),
        key=lambda x: element_key(atom, x, pos_key))
    pairs = list(zip(images, images[1:]))
    med, runs = median_s(lambda: [compare_elements(atom, x, y) for x, y in pairs], ELEMENT_REPEATS)
    print(f"  compare_elements: {1e6 * med / len(pairs):.2f} us per call", file=sys.stderr)
    d = parse_dil(ELEMENT_SUM)
    sum_terms = [t for t, _ in enum_trace_terms(d, 2, EnumBudget(**ELEMENT_BUDGET))]
    atom_terms = [t for t, arity in enum_trace_terms(atom, 4, EnumBudget(**ELEMENT_BUDGET))
                  if arity <= 3]
    return {
        "atom": ELEMENT_ATOM,
        "budget": ELEMENT_BUDGET,
        "repeats": ELEMENT_REPEATS,
        "important_index": index,
        "compare_elements": {"pairs": len(pairs), "median_us_per_call": 1e6 * med / len(pairs),
                             "runs_us_per_call": [1e6 * r / len(pairs) for r in runs]},
        "ll_relation": {"sum": ELEMENT_SUM, **ll_point(d, sum_terms, ELEMENT_REPEATS)},
        "ll_relation_atom": {"atom": ELEMENT_ATOM, "max_arity": 3,
                             **ll_point(atom, atom_terms, REPEATS)},
    }


def ll_point(d, terms: list, repeats: int) -> dict:
    """Microseconds per ``ll_relation`` call over every ordered pair of terms
    (median of ``repeats`` passes), with the sha1 of the answers."""
    pairs = list(itertools.product(terms, repeat=2))
    med, runs = median_s(lambda: [ll_relation(d, t1, t2) for t1, t2 in pairs], repeats)
    answers = "\n".join(ll_relation(d, t1, t2) for t1, t2 in pairs)
    print(f"  ll_relation on {to_str(d)}: {1e6 * med / len(pairs):.2f} us per call",
          file=sys.stderr)
    return {"pairs": len(pairs), "answers_sha1": hashlib.sha1(answers.encode()).hexdigest(),
            "median_us_per_call": 1e6 * med / len(pairs),
            "runs_us_per_call": [1e6 * r / len(pairs) for r in runs]}


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "per_process": values}


def fresh_spread(call: str):
    """This script's ``call``, such as ``element_series()``, run in
    PROCESSES fresh interpreters, its results merged by ``merge_runs``."""
    return merge_runs([in_fresh_process(call) for _ in range(PROCESSES)])


def merge_runs(runs: list):
    """One result from the interpreters' results of one call.  Lists merge
    item by item.  In a dict, each ``median_<x>`` becomes ``<x>``, the
    ``spread`` of the medians, and ``runs_<x>`` is dropped; other values
    merge the same way.  Only the dicts that hold a median count, so a series
    point that one interpreter skipped or failed is left out of its spread,
    and one that no interpreter timed keeps the first one's skip or error."""
    first = runs[0]
    if isinstance(first, list):
        return [merge_runs(list(row)) for row in zip(*runs)]
    if not isinstance(first, dict):
        return first
    timed = [run for run in runs if any(key.startswith("median_") for key in run)] or runs
    out = {}
    for key in timed[0]:
        if key.startswith("median_"):
            out[key[len("median_"):]] = spread([run[key] for run in timed])
        elif not key.startswith("runs_"):
            out[key] = merge_runs([run[key] for run in timed])
    return out


EVALUATORS = {"j": j_eval, "jplus": jplus_eval}


def eval_point(verb: str, text: str) -> dict:
    """CPU seconds and value or ``type: message`` of the ``verb`` evaluator
    at text and w, REPEATS times."""
    d, w = parse_dil(text), parse_ord("w")
    runs, answer = [], None
    for _ in range(REPEATS):
        psi._PSI_CACHE.clear()
        analysis._OTP_CACHE.clear()
        start = time.process_time()
        try:
            answer = ord_str(EVALUATORS[verb](d, w).value)
        except (DilcalcError, RecursionError) as exc:
            answer = f"{type(exc).__name__}: {exc}"
        runs.append(time.process_time() - start)
    print(f"  {statistics.median(runs):.2f} s, {answer}", file=sys.stderr)
    return {"verb": verb, "expr": text, "gamma": "w", "answer": answer,
            "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs}


def limit_tower() -> list:
    """CPU seconds (median of REPEATS calls) and steps per clause of j_eval
    at w, for each LIMIT_TOWER expression."""
    w, rows = parse_ord("w"), []
    for text in LIMIT_TOWER:
        d, runs = parse_dil(text), []
        for _ in range(REPEATS):
            analysis._OTP_CACHE.clear()
            start = time.process_time()
            res = j_eval(d, w)
            runs.append(time.process_time() - start)
        steps = collections.Counter(s.clause for s in res.steps)
        print(f"  {text}: {statistics.median(runs):.4f} s, {len(res.steps)} steps", file=sys.stderr)
        rows.append({"expr": text, "value": ord_str(res.value), "steps": dict(sorted(steps.items())),
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


def psi_enum_point() -> list:
    """CPU seconds (median of REPEATS calls), term count and sha1 of the
    rendered terms of psi_enum at depth 2, for each PSI_ENUMS order."""
    rows = []
    for text, gamma in PSI_ENUMS:
        order, runs = psi.PsiOrder(parse_dil(text), parse_ord(gamma)), []
        for _ in range(REPEATS):
            start = time.process_time()
            terms = psi.psi_enum(order, 2)
            runs.append(time.process_time() - start)
        rendered = "\n".join(psi.term_str(order, t) for t in terms)
        print(f"  {text} at {gamma}: {statistics.median(runs):.4f} s, {len(terms)} terms",
              file=sys.stderr)
        rows.append({"expr": text, "gamma": gamma, "count": len(terms),
                     "sha1": hashlib.sha1(rendered.encode()).hexdigest(),
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


def enum_elements_point() -> list:
    """CPU seconds (median of REPEATS calls), term count and sha1 of the
    rendered terms of enum_trace_terms under ELEMENT_BUDGET, for each
    ELEMENT_ATOMS atom up to arity 4 and for ELEMENT_SUM up to arity 2."""
    rows = []
    for text, max_arity in [*((atom, 4) for atom in ELEMENT_ATOMS), (ELEMENT_SUM, 2)]:
        d, runs = parse_dil(text), []
        for _ in range(REPEATS):
            start = time.process_time()
            terms = enum_trace_terms(d, max_arity, EnumBudget(**ELEMENT_BUDGET))
            runs.append(time.process_time() - start)
        rendered = "\n".join(f"{arity} {element_str(d, t)}" for t, arity in terms)
        print(f"  {text}: {statistics.median(runs):.4f} s, {len(terms)} terms", file=sys.stderr)
        rows.append({"expr": text, "max_arity": max_arity, "count": len(terms),
                     "sha1": hashlib.sha1(rendered.encode()).hexdigest(),
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


def sep_fold_point() -> list:
    """CPU seconds (median of REPEATS calls, each on an empty ``_OTP_CACHE``)
    and answer of otp_symbolic at 1 of SEP_FOLD, for each SEP_FOLD_SIZES n."""
    rows = []
    for n in SEP_FOLD_SIZES:
        text = SEP_FOLD.format(n=n)
        d, runs = parse_dil(text), []
        for _ in range(REPEATS):
            analysis._OTP_CACHE.clear()
            start = time.process_time()
            try:
                answer = ord_str(otp_symbolic(d, parse_ord("1")))
            except (DilcalcError, RecursionError) as exc:
                answer = f"{type(exc).__name__}: {exc}"
            runs.append(time.process_time() - start)
        print(f"  {text}: {statistics.median(runs):.4f} s, {answer}", file=sys.stderr)
        rows.append({"expr": text, "arg": "1", "answer": answer,
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


def stream_point() -> list:
    """CPU seconds (median of REPEATS calls) and sha1 of the rendered
    elements of prefix_elements taking STREAM_ELEMENTS elements over
    STREAM_POINTS points, and the elements yielded before the refusal at
    each STREAM_CAPS pull cap, for each STREAM_EXPRS expression."""
    rows = []
    for text in STREAM_EXPRS:
        d, runs = parse_dil(text), []
        for _ in range(REPEATS):
            start = time.process_time()
            elems = prefix_elements(d, STREAM_POINTS, STREAM_ELEMENTS)
            runs.append(time.process_time() - start)
        rendered = "\n".join(element_str(d, e) for e in elems)
        before_refusal = {}
        for cap in STREAM_CAPS:
            count = 0
            try:
                for _ in ambient_stream(d, range(STREAM_POINTS), pull_cap=cap):
                    count += 1
            except BudgetExceeded:
                before_refusal[cap] = count
        print(f"  {text}: {statistics.median(runs):.4f} s, refusals after {before_refusal}",
              file=sys.stderr)
        rows.append({"expr": text, "count": len(elems),
                     "sha1": hashlib.sha1(rendered.encode()).hexdigest(),
                     "before_refusal": before_refusal,
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


class DrawLog(psi.PsiSearchHandle):
    """The search handle of an order, keeping every term it draws."""

    def __init__(self, order):
        super().__init__(order)
        self.drawn = []

    def random_element(self, rng):
        term = super().random_element(rng)
        self.drawn.append(term)
        return term


def chain_search_point() -> list:
    """CPU seconds (median of REPEATS passes over CHAIN_SEEDS) of
    chain_search, with the sha1 of its answers and of the terms it drew, for
    each CHAIN_ORDERS order."""
    rows = []
    for text, gamma in CHAIN_ORDERS:
        order, runs = psi.PsiOrder(parse_dil(text), parse_ord(gamma)), []
        for _ in range(REPEATS):
            handle = DrawLog(order)
            start = time.process_time()
            results = [psi.chain_search(handle, CHAIN_TRIALS, CHAIN_DEPTH, seed)
                       for seed in CHAIN_SEEDS]
            runs.append(time.process_time() - start)
        answers = "\n".join(f"{r.summary} trials={r.trials} chain={len(r.chain)}" for r in results)
        drawn = "\n".join("-" if t is None else psi.term_str(order, t) for t in handle.drawn)
        print(f"  {text} at {gamma}: {statistics.median(runs):.4f} s, {len(handle.drawn)} draws",
              file=sys.stderr)
        rows.append({"expr": text, "gamma": gamma, "seeds": len(CHAIN_SEEDS),
                     "answers_sha1": hashlib.sha1(answers.encode()).hexdigest(),
                     "draws": len(handle.drawn),
                     "drawn_sha1": hashlib.sha1(drawn.encode()).hexdigest(),
                     "median_cpu_s": statistics.median(runs), "runs_cpu_s": runs})
    return rows


def in_fresh_process(call: str) -> dict:
    """The JSON result of this script's ``call``, such as ``element_series()``,
    run in a new interpreter."""
    code = f"import json, bench; print(json.dumps(bench.{call}))"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "scripts",
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def child_cpu(argv: list, stdout=subprocess.DEVNULL) -> tuple:
    """User+system CPU seconds of one child run to completion, and its exit code."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, proc.returncode


def cli_series() -> dict:
    lines = [line for line in COMMANDS.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    bare, runs, codes = [], {line: [] for line in lines}, {}
    for _ in range(CLI_REPEATS):
        bare.append(child_cpu([sys.executable, "-c", "pass"])[0])
        for line in lines:
            cpu, codes[line] = child_cpu([sys.executable, "-m", "dilcalc.cli", *shlex.split(line)])
            runs[line].append(cpu)
    verbs = [{"line": line, "exit": codes[line], "median_cpu_s": statistics.median(runs[line]),
              "runs_cpu_s": runs[line]} for line in lines]
    print(f"  bare start {statistics.median(bare):.3f} s, verbs "
          f"{statistics.median(v['median_cpu_s'] for v in verbs):.3f} s", file=sys.stderr)
    return {
        "repeats": CLI_REPEATS,
        "dont_write_bytecode": sys.dont_write_bytecode,
        "bare_median_cpu_s": statistics.median(bare),
        "bare_runs_cpu_s": bare,
        "verbs_median_cpu_s": statistics.median(v["median_cpu_s"] for v in verbs),
        "verbs": verbs,
    }


def check_all_point() -> dict:
    runs, exits, digests = [], set(), set()
    for _ in range(PROCESSES):
        with tempfile.TemporaryFile() as out:
            cpu, code = child_cpu([sys.executable, "-m", "dilcalc.cli", "check", "all"], out)
            out.seek(0)
            digests.add(hashlib.sha1(out.read()).hexdigest())
        runs.append(cpu)
        exits.add(code)
    print(f"  check all {statistics.median(runs):.3f} s", file=sys.stderr)
    return {"median_cpu_s": statistics.median(runs), "runs_cpu_s": runs,
            "exits": sorted(exits), "stdout_sha1s": sorted(digests)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    args = parser.parse_args()
    report = {
        "tag": args.tag,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "family": "Id*n at w",
        "repeats": REPEATS,
        "processes": PROCESSES,
        "max_seconds": MAX_SECONDS,
        "series": {},
        "translations": {},
    }
    for name in SETUPS:
        print(f"{name}:", file=sys.stderr)
        points = fresh_spread(f"run_series({name!r})")
        report["translations" if name in TRANSLATIONS else "series"][name] = {
            "points": points, "exponent": fit_exponent(points)}
    print("refusal:", file=sys.stderr)
    report["refusal"] = fresh_spread(f"eval_point('jplus', {REFUSAL!r})")
    print("depth cap:", file=sys.stderr)
    report["depth_cap"] = fresh_spread(f"eval_point('j', {DEPTH_CAP_EXPR!r})")
    print("deep chain:", file=sys.stderr)
    report["deep_chain"] = fresh_spread(f"eval_point('jplus', {DEEP_CHAIN!r})")
    print("limit tower:", file=sys.stderr)
    report["limit_tower"] = fresh_spread("limit_tower()")
    print("psi enum:", file=sys.stderr)
    report["psi_enum"] = fresh_spread("psi_enum_point()")
    print("enum elements:", file=sys.stderr)
    report["enum_elements"] = fresh_spread("enum_elements_point()")
    print("sep fold:", file=sys.stderr)
    report["sep_fold"] = fresh_spread("sep_fold_point()")
    print("stream:", file=sys.stderr)
    report["stream"] = fresh_spread("stream_point()")
    print("chain search:", file=sys.stderr)
    report["chain_search"] = fresh_spread("chain_search_point()")
    print("elements:", file=sys.stderr)
    report["elements"] = fresh_spread("element_series()")
    print("cli:", file=sys.stderr)
    report["cli"] = cli_series()
    print("check all:", file=sys.stderr)
    report["check_all"] = check_all_point()
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
