"""Build perfbench/expected.json: the answer of every pool item.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run from the root of a checkout.  Every answer is computed once with the
kernel, then validated by a route that does not go through the op under
test; any disagreement aborts without writing the file:

  J            composition law J(a+b, g) == J(b, J(a, g)), split mid-sum
  psi, otp     closed forms psi(Id*n, w) = w^(n+1) and otp(Id*n, k) = k*n;
               finite otp against exhaustive element counts
  important_index   equals the slot of important_position in the support
  ll_relation  connected atoms relate as equivalent; on a sum, the order of
               the components decides
  compare      agrees with the position in the ascending element stream
  apply_embedding   supports are natural: supp(f.e) = f[supp(e)]
  translations images equal the target expression's own stream prefix
  chain_search no chain on the well-founded orders, one on the fixture
  psi_enum     terms strictly ascending and valid
  CLI          a separate process prints what in-process cli.main prints

J' and psi on mixed sums have no independent route here; they are pinned
by the file as regression values.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from worker import Runner  # noqa: E402


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def functor_sums(k, runner, checks):
    atoms = {s: k.parse_dil(s) for s, _ in W.FS_CHUNK}
    atoms["omega[Id]"] = k.parse_dil("omega[Id]")
    answers = {}
    for track in W.fs_tracks():
        for op in W.fs_ops(track, atoms, k):
            runner.run(op)
            answers[op.key] = runner.records[-1][2]
        gamma = k.parse_ord(track.gamma)
        for n in W.FS_LADDER:
            parts = W.fs_parts(track, n, "j")
            whole = answers[W.fs_key(track, n, "j")]
            if whole.startswith("refused:"):
                continue
            mid = len(parts) // 2
            a = k.mk_sum_all([atoms[s] for s in parts[:mid]])
            b = k.mk_sum_all([atoms[s] for s in parts[mid:]])
            split = k.j_eval(b, k.j_eval(a, gamma).value).value
            expect(k.ord_str(split) == whole, f"J composition on {W.fs_key(track, n, 'j')}")
            checks["j_composition"] += 1
    # finite order types against exhaustive counts, on the finite summands
    finite = [s for s in W.fs_tracks()[0].spine if s in ("Id", "1", "Const(3)")]
    budget = k.EnumBudget(const_cap=10**6, max_count=10**6)
    for n in (12, 25, 50):
        d = k.mk_sum_all([atoms[s] for s in finite[:n]])
        for arg in range(4):
            count = len(k.enum_elements(d, arg, budget))
            expect(k.otp_symbolic(d, k.from_int(arg)) == k.from_int(count),
                   f"finite otp of {n} summands at {arg}")
            checks["otp_exhaustive"] += 1
    return answers


def series(k, runner, checks):
    answers = {}
    w = k.parse_ord("w")
    for fn in W.SERIES_FNS:
        for n in W.SERIES_N:
            op = W.series_op(fn, n)
            runner.run(op)
            answers[op.key] = runner.records[-1][2]
    for n in W.SERIES_N:
        expect(answers[f"series/psi/{n}"] == f"w^{n + 1}", f"psi(Id*{n}, w) closed form")
        a, b = k.parse_dil(f"Id*{n // 2}"), k.parse_dil(f"Id*{n - n // 2}")
        j = k.j_eval(b, k.j_eval(a, w).value).value
        expect(k.ord_str(j) == answers[f"series/j/{n}"], f"J composition on Id*{n}")
        for arg in (k.from_int(3), w):
            expect(k.otp_symbolic(k.parse_dil(f"Id*{n}"), arg) == k.ord_mul_nat(arg, n),
                   f"otp(Id*{n}, {k.ord_str(arg)}) closed form")
        checks["closed_forms"] += 3
    d = k.parse_dil("Id*25")
    answers["probe/otp"] = k.ord_str(k.otp_symbolic(d, w))
    expect(answers["probe/otp"] == "w*25", "otp(Id*25, w) closed form")
    return answers


def element_oracles(k, runner, checks):
    data = W.EoData(k)
    answers = {}
    keys = sorted({key for group in W.eo_pool(data).values() for key in group})
    for key in keys:
        runner.run(W.eo_op(data, key))
        answer = runner.records[-1][2]
        answers[key] = answer
        kind, args = key.split("/")[1], key.split("/")[2:]
        if kind == "ii":
            atom, t = data.atoms[int(args[0])], data.terms[int(args[0])][int(args[1])]
            slot = k.support_of(atom, t).index(k.important_position(atom, t).point)
            expect(answer == str(slot), f"important_index vs important_position on {key}")
        elif kind == "ll":
            if args[0] == "s":
                c1, c2 = (_component(data.sum_terms[int(a)]) for a in args[1:])
                want = ("much-less" if c1 < c2 else "much-greater" if c1 > c2
                        else "equivalent")
            else:
                want = "equivalent"
            expect(answer == want, f"ll_relation on {key}")
        elif kind == "cmp":
            i, j, m = map(int, args[1:])
            want = f"{sign(i - j)},{sign(j - m)},{sign(i - m)}"
            expect(answer == want, f"compare vs stream order on {key}")
        elif kind == "emb":
            ei = int(args[0])
            d, e = data.exprs[ei], data.elems[ei][int(args[1])]
            f = data.embeddings[int(args[2])]
            image = k.apply_embedding(d, e, f)
            expect(k.support_of(d, image) == sorted(f[p] for p in k.support_of(d, e)),
                   f"support naturality on {key}")
        elif kind == "shift":
            ei, gs, i = int(args[0]), args[1], int(args[2])
            target = k.prefix_elements(data.shift_dst[ei, gs], 2,
                                       len(data.shift_src[ei, gs]))
            expect(answer == k.element_str(data.shift_dst[ei, gs], target[i]),
                   f"shift translation vs target stream on {key}")
        elif kind == "prefix":
            ei, i = int(args[0]), int(args[1])
            target = k.prefix_elements(data.exprs[ei], 2, W.EO_PREFIX)
            expect(answer == k.element_str(data.exprs[ei], target[i]),
                   f"prefix injection vs stream on {key}")
        checks[f"eo_{kind}"] += 1
    return answers


def _component(term) -> int:
    """Component index of a trace term of EO_SUM = Id + omega_head(0;Id) + Id."""
    return 0 if term.side == 0 else 1 + term.inner.side


def collapse_fuzz(k, runner, checks):
    answers = {}
    for i, (ds, gs) in enumerate(W.CF_ORDERS):
        order = k.PsiOrder(k.parse_dil(ds), k.parse_ord(gs))
        seen = set()
        for op_seed in range(30):
            res = k.chain_search(k.PsiSearchHandle(order), W.CF_TRIALS, W.CF_DEPTH, op_seed)
            expect(not res.found, f"descending chain found in well-founded psi({ds})^{gs}")
            seen.add(W.search_answer(res))
        expect(len(seen) == 1, f"chain_search answers vary on psi({ds})^{gs}")
        answers[f"cf/chain/{i}"] = seen.pop()
        checks["cf_chain_seeds"] += 30
    seen = set()
    for op_seed in range(30):
        res = k.chain_search(k.IllFoundedFixture(), W.CF_FIXTURE_TRIALS, W.CF_DEPTH, op_seed)
        expect(res.found, "fixture chain not found")
        seen.add(W.search_answer(res))
    expect(len(seen) == 1, "fixture answers vary")
    answers["cf/fixture"] = seen.pop()
    for i, (ds, gs) in enumerate(W.CF_ENUM_ORDERS):
        order = k.PsiOrder(k.parse_dil(ds), k.parse_ord(gs))
        terms = k.psi_enum(order, W.CF_ENUM_DEPTH)
        expect(all(order.compare(a, b) == -1 for a, b in zip(terms, terms[1:])),
               f"psi_enum of ({ds}, {gs}) not strictly ascending")
        expect(all(order.valid(t) for t in terms), f"psi_enum of ({ds}, {gs}) invalid term")
        answers[f"cf/enum/{i}"] = W.enum_answer(order, terms, k.term_str)
        checks["cf_enum"] += 1
    return answers


def cli(checks):
    answers = {}
    for line in list(W.CLI_SCENARIO) + W.cli_pool():
        proc = subprocess.run([sys.executable, "-m", "dilcalc.cli", *shlex.split(line)],
                              capture_output=True, text=True, timeout=120)
        answer = W.cli_answer(proc.returncode, proc.stdout)
        expect(answer == W.cli_answer(*W.cli_in_process(line)),
               f"CLI process and in-process output differ on {line!r}")
        answers[W.cli_key(line)] = answer
        checks["cli_lines"] += 1
    return answers


def main() -> int:
    from collections import Counter

    k = W.Kernel()
    runner = Runner()
    checks = Counter()
    answers = {}
    try:
        for part in (functor_sums, series, element_oracles, collapse_fuzz):
            answers.update(part(k, runner, checks))
            print(f"{part.__name__}: {len(answers)} answers", file=sys.stderr)
        answers.update(cli(checks))
    except Mismatch as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 1
    errors = [key for key, answer in answers.items() if answer.startswith("error:")]
    if errors:
        print(f"ops failed: {errors[:5]}", file=sys.stderr)
        return 1
    refused = sorted(key for key, answer in answers.items() if answer.startswith("refused:"))
    doc = {"pool_seed": W.POOL_SEED, "checks": dict(sorted(checks.items())),
           "refused": refused, "answers": dict(sorted(answers.items()))}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=0, sort_keys=False) + "\n")
    print(f"wrote {len(answers)} answers; checks {dict(checks)}; {len(refused)} refusals",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
