"""Command-line entry point.

Verbs map one-to-one onto kernel operations; ``check`` runs a named
acceptance suite and ``run --file`` replays a line-oriented scenario.
Exit codes: 0 success, 1 failed check, 2 outside the supported fragment
or refused (a budget, depth or recursion limit reached; one stderr line
``refused: <Type>: <message>``), 3 parse or usage error (an unreadable
scenario file included).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .analysis import classify, components, decompose, otp_symbolic, sep
from .errors import (
    FRAGMENT_ERRORS,
    BudgetExceeded,
    DepthExceeded,
    DilcalcError,
    ParseError,
    UnsupportedDecomposition,
)
from .expr import parse_dil, to_str
from .jfunctor import EVALUATORS, j_guard_report
from .ordinal import EQUAL, GREATER, LESS, ord_cmp, ord_str, parse_ord
from .psi import PsiOrder, psi_clause_otp, term_str
from .semantics import element_str, prefix_elements


def count(text: str) -> int:
    """A non-negative integer option; argparse names it in its errors."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


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
    p.add_argument("--samples", type=count, default=3)
    common(p)

    p = sub.add_parser("enum", help="ascending prefix of the element order")
    p.add_argument("expr")
    p.add_argument("--x", type=count, default=2, help="argument order size")
    p.add_argument("--prefix", type=count, default=20)
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
    p.add_argument("--depth", type=count, default=4)
    p.add_argument("--prefix", type=count, default=200)
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
    p.add_argument("--prefix", type=count, default=200)
    p.add_argument("--trials", type=count, default=10000)
    p.add_argument("--depth", type=count, default=30)
    p.add_argument("--seed", type=int, default=2024)
    common(p)

    p = sub.add_parser("run", help="run a scenario file of commands")
    p.add_argument("--file", required=True)
    return parser


# the arguments each verb echoes under "inputs" in its JSON line
_ECHOED = {
    "classify": ("expr",),
    "decompose": ("expr",),
    "enum": ("expr", "x", "prefix"),
    "compare": ("left", "right"),
    "jeval": ("expr", "gamma"),
    "jprime": ("expr", "gamma"),
    "jplus": ("expr", "gamma"),
    "psi-enum": ("expr", "gamma", "depth"),
    "psi-otp": ("expr", "gamma"),
    "otp": ("expr", "arg"),
    "sep": ("expr", "gamma"),
    "check": ("name", "prefix", "trials", "depth", "seed"),
}


def _dispatch(args) -> int:
    if args.verb == "run":
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
    fields, lines, code = _answer(args)
    if args.format == "json":
        inputs = {name: getattr(args, name) for name in _ECHOED[args.verb]}
        print(json.dumps({"verb": args.verb, "inputs": inputs, **fields}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _answer(args):
    """A verb's JSON fields besides verb and inputs, its text lines, its exit code."""
    verb = args.verb
    if verb == "classify":
        expr = parse_dil(args.expr)
        kind = classify(expr)
        if kind == "1":
            pred = to_str(decompose(expr).prefix)
            return {"result": {"type": "1", "pred": pred}}, [f"type 1, pred {pred}"], 0
        return {"result": {"type": kind}}, [f"type {kind}"], 0
    if verb == "decompose":
        expr = parse_dil(args.expr)
        dec = decompose(expr)
        if dec.kind == "zero":
            return {"result": {"kind": "zero", "components": []}}, ["[]"], 0
        if dec.kind == "succ":
            try:
                comps = [to_str(c) for c in components(expr)]
            except UnsupportedDecomposition:
                prefix, top = to_str(dec.prefix), to_str(dec.top)
                result = {"kind": "successor", "prefix": prefix, "top": top}
                return {"result": result}, [f"prefix {prefix}", f"top {top}"], 0
            result = {"kind": "successor", "components": comps}
            return {"result": result}, ["[" + ", ".join(comps) + "]"], 0
        samples = [to_str(dec.fund(k)) for k in range(args.samples)]
        result = {"kind": "limit", "partials": samples}
        return {"result": result}, [f"limit; partial sums: {', '.join(samples)}"], 0
    if verb == "enum":
        expr = parse_dil(args.expr)
        shown = [element_str(expr, e) for e in prefix_elements(expr, args.x, args.prefix)]
        return {"result": shown}, shown, 0
    if verb == "compare":
        c = ord_cmp(parse_ord(args.left), parse_ord(args.right))
        word = {LESS: "less", EQUAL: "equal", GREATER: "greater"}[c]
        return {"result": word}, [word], 0
    if verb in ("jeval", "jprime", "jplus"):
        evaluator = EVALUATORS["j" if verb == "jeval" else verb]
        result = evaluator(parse_dil(args.expr), parse_ord(args.gamma))
        value, eta = ord_str(result.value), ord_str(result.eta)
        xi = ord_str(result.xi) if result.xi is not None else None
        fields = {"value": value, "eta": eta, "xi": xi}
        lines = [f"value {value}", f"guards eta={eta} xi={xi or '?'}"]
        if args.audit:
            audit = j_guard_report(result)
            fields["guardAudit"] = {
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
            fields["steps"] = [
                {
                    "expr": to_str(s.parent),
                    "clause": s.clause,
                    "value": ord_str(s.value),
                }
                for s in result.steps
            ]
            lines += [f"  [{s.clause}] {to_str(s.parent)} -> {ord_str(s.value)}" for s in result.steps]
        return fields, lines, 0
    if verb == "psi-enum":
        order = PsiOrder(parse_dil(args.expr), parse_ord(args.gamma))
        shown = [term_str(order, t) for t in order.enum(args.depth)[: args.prefix]]
        return {"result": shown}, shown, 0
    if verb == "psi-otp":
        value = ord_str(psi_clause_otp(parse_dil(args.expr), parse_ord(args.gamma)))
        return {"value": value}, [value], 0
    if verb == "otp":
        value = ord_str(otp_symbolic(parse_dil(args.expr), parse_ord(args.arg)))
        return {"value": value}, [value], 0
    if verb == "sep":
        value = to_str(sep(parse_dil(args.expr), parse_ord(args.gamma)))
        return {"value": value}, [value], 0
    if verb == "check":
        from .suites import run_check  # only this verb needs the suites

        reports = run_check(
            args.name,
            prefix=args.prefix,
            trials=args.trials,
            depth=args.depth,
            seed=args.seed,
        )
        result = [
            {
                "suite": r.name,
                "ok": r.ok,
                "passed": len(r.details),
                "skipped": len(r.skips),
                "violations": r.violations,
            }
            for r in reports
        ]
        lines = []
        for r in reports:
            lines.append(
                f"{'PASS' if r.ok else 'FAIL'} {r.name}: "
                f"{len(r.details)} checks, {len(r.skips)} skips, {len(r.violations)} violations"
            )
            lines += [f"  violation: {v}" for v in r.violations]
            lines += [f"  skip: {s}" for s in r.skips]
        return {"result": result}, lines, 0 if all(r.ok for r in reports) else 1
    raise DilcalcError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        return _dispatch(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"expected one of: {', '.join(exc.expected)}", file=sys.stderr)
        return 3
    except FRAGMENT_ERRORS as exc:
        print(f"outside supported fragment: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, DepthExceeded, RecursionError) as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DilcalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    raise SystemExit(main())
