"""Command-line entry point.

Verbs map one-to-one onto kernel operations; ``check`` runs a named
acceptance suite and ``run --file`` replays a line-oriented scenario.
Exit codes: 0 success, 1 failed check, 2 outside the supported fragment,
3 parse or usage error (an unreadable scenario file included).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .analysis import classify, components, decompose, otp_symbolic, sep
from .errors import FRAGMENT_ERRORS, DilcalcError, ParseError, UnsupportedDecomposition
from .expr import parse_dil, to_str
from .jfunctor import j_eval, j_guard_report, jplus_eval, jprime_eval
from .ordinal import ord_cmp, ord_str, parse_ord
from .psi import PsiOrder, psi_clause_otp, term_str
from .semantics import element_str, prefix_elements
from .suites import run_check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilcalc",
        description="symbolic kernel for coded dilators and collapse orders",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="classification of an expression")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("decompose", help="connected-sum decomposition")
    p.add_argument("expr")
    p.add_argument("--samples", type=int, default=3)
    common(p)

    p = sub.add_parser("enum", help="ascending prefix of the element order")
    p.add_argument("expr")
    p.add_argument("--x", type=int, default=2, help="argument order size")
    p.add_argument("--prefix", type=int, default=20)
    common(p)

    p = sub.add_parser("compare", help="compare two ordinal notations")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    for verb in ("jeval", "jprime", "jplus"):
        p = sub.add_parser(verb, help=f"evaluate the {verb} functor")
        p.add_argument("expr")
        p.add_argument("--gamma", required=True)
        p.add_argument("--audit", action="store_true")
        p.add_argument("--steps", action="store_true")
        common(p)

    p = sub.add_parser("psi-enum", help="enumerate collapse terms")
    p.add_argument("expr")
    p.add_argument("--gamma", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--prefix", type=int, default=200)
    common(p)

    p = sub.add_parser("psi-otp", help="order type of the collapse order")
    p.add_argument("expr")
    p.add_argument("--gamma", required=True)
    common(p)

    p = sub.add_parser("otp", help="symbolic order type at an argument")
    p.add_argument("expr")
    p.add_argument("--arg", required=True)
    common(p)

    p = sub.add_parser("sep", help="separation of variables")
    p.add_argument("expr")
    p.add_argument("--gamma", required=True)
    common(p)

    p = sub.add_parser("check", help="run a named acceptance suite")
    p.add_argument("name")
    p.add_argument("--prefix", type=int, default=200)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--seed", type=int, default=2024)
    common(p)

    p = sub.add_parser("run", help="run a scenario file of commands")
    p.add_argument("--file", required=True)
    return parser


def _emit(args, payload, text_lines) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "classify":
        expr = parse_dil(args.expr)
        tc = classify(expr)
        names = {"0": "0", "1": "1", "omega": "omega", "Omega": "Omega"}
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr},
            "result": {"type": names[tc.kind]},
        }
        if tc.kind == "1":
            payload["result"]["pred"] = to_str(tc.pred)
        _emit(args, payload, [f"type {tc.kind}" + (f", pred {to_str(tc.pred)}" if tc.kind == "1" else "")])
        return 0
    if verb == "decompose":
        expr = parse_dil(args.expr)
        dec = decompose(expr)
        payload = {"verb": verb, "inputs": {"expr": args.expr}}
        if dec.kind == "zero":
            payload["result"] = {"kind": "zero", "components": []}
            _emit(args, payload, ["[]"])
        elif dec.kind == "succ":
            try:
                comps = [to_str(c) for c in components(expr)]
                payload["result"] = {"kind": "successor", "components": comps}
                _emit(args, payload, ["[" + ", ".join(comps) + "]"])
            except UnsupportedDecomposition:
                payload["result"] = {
                    "kind": "successor",
                    "prefix": to_str(dec.prefix),
                    "top": to_str(dec.top),
                }
                _emit(args, payload, [f"prefix {to_str(dec.prefix)}", f"top {to_str(dec.top)}"])
        else:
            samples = [to_str(dec.fund(k)) for k in range(args.samples)]
            payload["result"] = {"kind": "limit", "partials": samples}
            _emit(args, payload, [f"limit; partial sums: {', '.join(samples)}"])
        return 0
    if verb == "enum":
        expr = parse_dil(args.expr)
        elems = prefix_elements(expr, args.x, args.prefix)
        shown = [element_str(expr, e) for e in elems]
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "x": args.x, "prefix": args.prefix},
            "result": shown,
        }
        _emit(args, payload, shown)
        return 0
    if verb == "compare":
        a, b = parse_ord(args.left), parse_ord(args.right)
        c = ord_cmp(a, b)
        word = {(-1): "less", 0: "equal", 1: "greater"}[c]
        payload = {
            "verb": verb,
            "inputs": {"left": args.left, "right": args.right},
            "result": word,
        }
        _emit(args, payload, [word])
        return 0
    if verb in ("jeval", "jprime", "jplus"):
        expr = parse_dil(args.expr)
        gamma = parse_ord(args.gamma)
        evaluator = {"jeval": j_eval, "jprime": jprime_eval, "jplus": jplus_eval}[verb]
        result = evaluator(expr, gamma)
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "gamma": args.gamma},
            "value": ord_str(result.value),
            "eta": ord_str(result.eta),
            "xi": ord_str(result.xi) if result.xi is not None else None,
        }
        lines = [f"value {ord_str(result.value)}",
                 f"guards eta={ord_str(result.eta)} xi={ord_str(result.xi) if result.xi is not None else '?'}"]
        if args.audit:
            audit = j_guard_report(result)
            payload["guardAudit"] = {
                "identical": audit.value_identical,
                "enlargedEta": ord_str(audit.enlarged_eta),
                "stepsChecked": audit.steps_checked,
                "rankViolations": list(audit.rank_violations),
                "unranked": audit.unranked_steps,
            }
            lines.append(
                f"audit identical={audit.value_identical} ranks_ok={not audit.rank_violations}"
            )
        if args.steps:
            payload["steps"] = [
                {
                    "expr": to_str(s.parent),
                    "clause": s.clause,
                    "value": ord_str(s.value),
                }
                for s in result.steps
            ]
            lines += [f"  [{s.clause}] {to_str(s.parent)} -> {ord_str(s.value)}" for s in result.steps]
        _emit(args, payload, lines)
        return 0
    if verb == "psi-enum":
        expr = parse_dil(args.expr)
        order = PsiOrder(expr, parse_ord(args.gamma))
        terms = order.enum(args.depth)[: args.prefix]
        shown = [term_str(order, t) for t in terms]
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "gamma": args.gamma, "depth": args.depth},
            "result": shown,
        }
        _emit(args, payload, shown)
        return 0
    if verb == "psi-otp":
        expr = parse_dil(args.expr)
        value = psi_clause_otp(expr, parse_ord(args.gamma))
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "gamma": args.gamma},
            "value": ord_str(value),
        }
        _emit(args, payload, [ord_str(value)])
        return 0
    if verb == "otp":
        expr = parse_dil(args.expr)
        value = otp_symbolic(expr, parse_ord(args.arg))
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "arg": args.arg},
            "value": ord_str(value),
        }
        _emit(args, payload, [ord_str(value)])
        return 0
    if verb == "sep":
        expr = parse_dil(args.expr)
        value = sep(expr, parse_ord(args.gamma))
        payload = {
            "verb": verb,
            "inputs": {"expr": args.expr, "gamma": args.gamma},
            "value": to_str(value),
        }
        _emit(args, payload, [to_str(value)])
        return 0
    if verb == "check":
        reports = run_check(
            args.name,
            prefix=args.prefix,
            trials=args.trials,
            depth=args.depth,
            seed=args.seed,
        )
        ok = all(r.ok for r in reports)
        payload = {
            "verb": verb,
            "inputs": {
                "name": args.name,
                "prefix": args.prefix,
                "trials": args.trials,
                "depth": args.depth,
                "seed": args.seed,
            },
            "result": [
                {
                    "suite": r.name,
                    "ok": r.ok,
                    "passed": len(r.details),
                    "skipped": len(r.skips),
                    "violations": r.violations,
                }
                for r in reports
            ],
        }
        lines = []
        for r in reports:
            lines.append(
                f"{'PASS' if r.ok else 'FAIL'} {r.name}: "
                f"{len(r.details)} checks, {len(r.skips)} skips, {len(r.violations)} violations"
            )
            lines += [f"  violation: {v}" for v in r.violations]
            lines += [f"  skip: {s}" for s in r.skips]
        _emit(args, payload, lines)
        return 0 if ok else 1
    if verb == "run":
        worst = 0
        with open(args.file) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                print(f"$ dilcalc {line}")
                code = main(shlex.split(line))
                worst = max(worst, code)
        return worst
    raise DilcalcError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    sys.setrecursionlimit(20000)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"expected one of: {', '.join(exc.expected)}", file=sys.stderr)
        return 3
    except FRAGMENT_ERRORS as exc:
        print(f"outside supported fragment: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DilcalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
