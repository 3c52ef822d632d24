"""Named check suites: each one realizes an acceptance criterion.

Every suite returns a report with per-instance outcomes.  Instances whose
values leave the notation fragment are recorded as skips, never as silent
passes; any mismatch is a violation and fails the suite.  A fragment refusal
is the skip ``<label> (<case>): <error type>``, and an element translation
the kernel lacks is the skip ``<tag>: <gap>``.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import combinations, islice, product

from . import coherence
from .analysis import (
    EQUIVALENT,
    _embeddings,
    classify,
    decompose,
    enum_trace_terms,
    important_index,
    ll_relation,
    otp_symbolic,
    sep,
    sep_signed,
    separate,
)
from .errors import FRAGMENT_ERRORS, DilcalcError
from .expr import (
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    D_ZERO,
    Dil,
    Sep,
    is_max_dominated,
    mk_mul_nat,
    mk_sep_atom,
    mk_shift,
    mk_sum,
    parse_dil,
    to_str,
)
from .jfunctor import EVALUATORS, j_eval, j_guard_report, jplus_eval, jprime_eval
from .ordinal import (
    EQUAL,
    GREATER,
    LESS,
    OMEGA,
    ONE,
    ZERO,
    Ord,
    Record,
    from_int,
    ord_add,
    ord_is_principal,
    ord_str,
    parse_ord,
)
from .psi import (
    IllFoundedFixture,
    PsiOrder,
    PsiSearchHandle,
    chain_search,
    psi_clause_otp,
)
from .semantics import (
    ESum,
    EnumBudget,
    Right,
    ambient_stream,
    apply_embedding,
    compare_elements,
    enum_elements,
    important_position,
    support_of,
)


class CheckReport(Record):
    def __init__(self, name: str, ok: bool = True, details: list = None, skips: list = None,
                 violations: list = None, duration: float = 0.0):
        self.name = name
        self.ok = ok
        self.details = [] if details is None else details
        self.skips = [] if skips is None else skips
        self.violations = [] if violations is None else violations
        self.duration = duration

    def passed(self, line: str):
        self.details.append(line)

    def skipped(self, line: str):
        self.skips.append(line)

    def refused(self, label: str, exc: Exception):
        """A fragment refusal, recorded as the skip ``<label>: <Type>``."""
        self.skipped(f"{label}: {type(exc).__name__}")

    def failed(self, line: str):
        self.ok = False
        self.violations.append(line)

    def check(self, condition: bool, line: str):
        if condition:
            self.passed(line)
        else:
            self.failed(line)


W = OMEGA
W2 = parse_ord("w^2")


# curated expression pools
J_SUITE = ["0", "1", "Const(3)", "Const(w)", "Const(w*2)", "Const(w^2)",
           "Id", "Id+1", "1+Id", "Id*2", "Const(w)+Id", "omega[Id]", "Id*w"]
GAMMAS = ["w", "w^2"]
# every expression here is of type Omega
OMEGA_TYPE_SUITE = ["Id", "1+Id", "Const(w)+Id", "omega[Id]", "omega[Id*2]", "Id*2"]
COHERENCE_SUITE = ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id",
                   "Id+Const(w)", "Id*2", "Id*w", "omega[Id]", "omega[Id+1]",
                   "omega[Id*2]", "Const(w)+Id", "omega[Id]+Id"]


# ---------------------------------------------------------------------------
# criterion 1: exact functor values


def check_j_exact(**_opts) -> CheckReport:
    rep = CheckReport("j-exact")
    cases = [
        ("j", "0", "w", "w"),
        ("j", "1", "w", "w+1"),
        ("j", "Id", "w", "w*3"),
        ("j", "Const(w)", "w", "w*2"),
        ("jprime", "Id", "w", "w*5"),
        ("jplus", "0", "w", "w*2"),
        ("jplus", "1", "w", "w^2"),
        ("j", "omega[Id]", "w", "w^(w+1)"),
    ]
    for variant, ds, gs, expected in cases:
        t0 = time.perf_counter()
        value = EVALUATORS[variant](parse_dil(ds), parse_ord(gs)).value
        dt = time.perf_counter() - t0
        tag = f"{variant}({ds},{gs}) = {ord_str(value)} [{dt*1000:.0f}ms]"
        rep.check(value == parse_ord(expected) and dt < 1.0, tag)
    return rep


# ---------------------------------------------------------------------------
# criterion 2: collapse clause values


def check_psi_values(**_opts) -> CheckReport:
    rep = CheckReport("psi-values")
    for alpha in ["0", "1", "2", "3", "w", "w^2"]:
        for gamma in ["0", "w"]:
            t0 = time.perf_counter()
            value = psi_clause_otp(Const(parse_ord(alpha)), parse_ord(gamma))
            dt = time.perf_counter() - t0
            rep.check(
                value == parse_ord(alpha) and dt < 1.0,
                f"psi(Const({alpha}))^{gamma} = {ord_str(value)}",
            )
    v = psi_clause_otp(parse_dil("Const(2)+Const(3)"), ZERO)
    rep.check(v == from_int(5), f"psi(Const(2)+Const(3))^0 = {ord_str(v)}")
    # the sum clause on its own pieces
    lhs = psi_clause_otp(parse_dil("Const(2)"), ZERO)
    rhs = psi_clause_otp(parse_dil("Const(3)"), ord_add(ZERO, lhs))
    rep.check(ord_add(lhs, rhs) == from_int(5), "sum clause re-derivation gives 5")
    v = psi_clause_otp(D_ID, W)
    rep.check(v == W2, f"psi(Id)^w = {ord_str(v)}")
    v = psi_clause_otp(D_ID, ZERO)
    rep.check(v == ZERO, f"psi(Id)^0 = {ord_str(v)}")
    order = PsiOrder(D_ID, ZERO)
    rep.check(order.enum(3) == [], "psi(Id)^0 enumerates to the empty order")
    return rep


# ---------------------------------------------------------------------------
# criterion 3: bound theorem


def check_bound_theorem(**_opts) -> CheckReport:
    rep = CheckReport("bound-theorem")
    for ds in ["0", "1", "Const(w)", "Id", "Id+1", "Id*2", "Id*w"]:
        for gs in GAMMAS:
            d, g = parse_dil(ds), parse_ord(gs)
            try:
                lhs = ord_add(g, psi_clause_otp(d, g))
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"psi side of ({ds},{gs})", exc)
                continue
            try:
                rhs = jplus_eval(d, g).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"closure side of ({ds},{gs})", exc)
                continue
            rep.check(
                lhs <= rhs,
                f"{gs}+psi({ds})^{gs} = {ord_str(lhs)} <= {ord_str(rhs)}",
            )
    if not rep.details:
        rep.failed("no pair of the bound suite evaluated on both sides")
    return rep


# ---------------------------------------------------------------------------
# criterion 4: functor law suites


def _instances(rep, label: str, cases, law, limit: int = None) -> int:
    """Run ``law(*case)`` over ``cases`` and count the cases it decides.

    Each line the law yields is a violation.  A fragment refusal goes to
    ``rep.refused`` as ``label.format(*case)`` (fields the label leaves out
    are not shown) and is not counted.  With a ``limit``, the run stops once that many cases are
    decided.
    """
    decided = 0
    for case in cases:
        if decided == limit:
            break
        try:
            for line in law(*case):
                rep.failed(line)
        except FRAGMENT_ERRORS as exc:
            rep.refused(label.format(*case), exc)
            continue
        decided += 1
    return decided


def check_j_laws(**_opts) -> CheckReport:
    rep = CheckReport("j-laws")

    def composes(ds, es, gs):
        d, e, g = parse_dil(ds), parse_dil(es), parse_ord(gs)
        lhs = j_eval(mk_sum(d, e), g).value
        mid = j_eval(d, g).value
        rhs = j_eval(e, mid).value
        if lhs != rhs:
            yield f"composition ({ds},{es},{gs}): {ord_str(lhs)} != {ord_str(rhs)}"

    def audited(ds, gs):  # determinism and guard independence
        audit = j_guard_report(j_eval(parse_dil(ds), parse_ord(gs)))
        if not audit.value_identical:
            yield f"determinism broke on ({ds},{gs})"
        if audit.rank_violations:
            yield f"rank decrease broke on ({ds},{gs}): {audit.rank_violations[:2]}"

    def monotone(ds, es, g1s, g2s):
        d = parse_dil(ds)
        small = j_eval(d, parse_ord(g1s)).value
        big = j_eval(mk_sum(d, parse_dil(es)), parse_ord(g2s)).value
        if not small <= big:
            yield f"monotonicity broke: J({ds},{g1s}) > J({ds}+{es},{g2s})"

    def grows(ds, n):
        d = parse_dil(ds)
        v1 = j_eval(mk_mul_nat(d, n), W).value
        v2 = j_eval(mk_mul_nat(d, n + 1), W).value
        if not v1 <= v2:
            yield f"monotonicity broke on {ds}*{n}"

    def properties(ds, gs):  # (a)-(d); a refused (c) is its own skip
        d, g = parse_dil(ds), parse_ord(gs)
        v = j_eval(d, g).value
        above = ord_add(g, ONE)
        if not g <= v:
            yield f"(a) broke on ({ds},{gs})"
        has_unit = not otp_symbolic(d, ZERO).is_zero()
        if has_unit and not above <= v:
            yield f"(b) broke on ({ds},{gs})"
        if d != D_ZERO and not (above <= v or v == g == ZERO):
            yield f"(d) broke on ({ds},{gs})"
        if classify(d) == "Omega" and has_unit:
            def separated(ds, gs):
                if not j_eval(sep(d, above), g).value <= v:
                    yield f"(c) broke on ({ds},{gs})"

            _instances(rep, "(c) ({},{})", [(ds, gs)], separated)

    def proper_part(ds, es):  # (e)
        d, e = parse_dil(ds), parse_dil(es)
        whole = j_eval(mk_sum(d, e), W).value
        part = j_eval(d, W).value
        if not whole.is_zero() and e != D_ZERO and not part < whole:
            yield f"(e) broke on ({ds},{es})"

    def eightfold(ds, gs):  # the primed functor is bounded by the eightfold sum
        d, g = parse_dil(ds), parse_ord(gs)
        lhs = jprime_eval(d, g).value
        rhs = j_eval(mk_mul_nat(d, 8), g).value
        if not lhs <= rhs:
            yield f"eightfold bound broke on ({ds},{gs})"

    def shift_robust(ds, n, gs):
        d, g = parse_dil(ds), parse_ord(gs)
        lhs = jprime_eval(mk_shift(d, from_int(n)), g).value
        rhs = jprime_eval(d, g).value
        if lhs != rhs:
            yield f"shift robustness broke on ({ds},{n},{gs})"

    def principal(ds, gs):  # closure values are additively principal above gamma
        g = parse_ord(gs)
        v = jplus_eval(parse_dil(ds), g).value
        if not (ord_is_principal(v) and g < v):
            yield f"closure value not principal above gamma on ({ds},{gs})"
        rep.passed(f"closure value on ({ds},{gs}) = {ord_str(v)}")

    monotone_pairs = [("Id", "1"), ("Id", "Id"), ("Const(w)", "Id"), ("1", "omega[Id]"),
                      ("omega[Id]", "Id"), ("Id*2", "Const(w)")]
    monotone_cases = [(*p, *q) for p in monotone_pairs for q in [("w", "w"), ("w", "w*2"), ("1", "w")]]
    part_cases = [("Id", "1"), ("Id", "Id"), ("1", "Id"), ("Const(w)", "omega[Id]"),
                  ("omega[Id]", "1"), ("Id*2", "Id")]
    primed = ["Id", "Const(w)", "omega[Id]", "Id+1", "Id*2", "1+Id", "Id*w"]
    shifted = ["Id", "Const(w)", "omega[Id]", "1+Id", "Id*2"]
    # (least count, passing line, runs of the law runner)
    families = [
        (20, "composition law held on {} instances",
         [("composition ({},{},{})", product(J_SUITE, J_SUITE, ["w", "w^2", "1"]), composes, 40)]),
        (20, "determinism + guard audit on {} instances",
         [("audit ({},{})", product(J_SUITE, GAMMAS), audited)]),
        (20, "monotonicity held on {} instances",
         [("monotonicity ({},{},{},{})", monotone_cases, monotone),
          ("monotonicity ({}*{})", product(["Id", "Const(w)", "omega[Id]"], [1, 2, 3]), grows)]),
        (20, "properties (a)-(e) held on {} instances",
         [("properties ({},{})", product(J_SUITE, ["0", "w", "w^2"]), properties),
          ("(e) ({},{})", part_cases, proper_part)]),
        (10, "primed-vs-eightfold held on {} instances",
         [("eightfold ({},{})", product(primed, GAMMAS), eightfold)]),
        (20, "shift robustness held on {} instances",
         [("shift robustness ({},{},{})", product(shifted, [1, 2, 3, 4], GAMMAS), shift_robust)]),
    ]
    for need, line, runs in families:
        count = sum(_instances(rep, *run) for run in runs)
        rep.check(count >= need, line.format(count))
    _instances(rep, "closure ({},{})", product(OMEGA_TYPE_SUITE, GAMMAS), principal)
    return rep


# ---------------------------------------------------------------------------
# criterion 5: semantic/symbolic coherence


def _elements(expr, n_points, bound=ZERO):
    """The ascending elements of ``expr`` over [0, bound) + n_points points."""
    return ambient_stream(expr, range(n_points), bound, pull_cap=600000)


def _witness(rep, tag, target, k, pieces, stage="") -> bool:
    """Translate the first ``k`` elements of the ``(stream, translate)``
    pieces, in order, and compare the images with as many elements of the
    iterable ``target``, under ``tag + stage``.  A translation gap is the
    skip ``<tag>: <gap>``; the answer is whether the images were compared."""
    images = []
    try:
        for stream, translate in pieces:
            images += map(translate, islice(stream, k - len(images)))
    except coherence.TranslationGap as exc:
        rep.skipped(f"{tag}: {exc}")
        return False
    tag += stage
    expected = list(islice(target, len(images)))
    mismatch = next((i for i, (x, y) in enumerate(zip(images, expected)) if x != y), None)
    if len(images) != len(expected):
        rep.failed(f"{tag}: produced {len(images)} vs expected {len(expected)}")
    elif mismatch is not None:
        rep.failed(f"{tag}: mismatch at index {mismatch}")
    else:
        rep.passed(f"{tag}: {len(images)} elements agree")
    return True


def _check_decompose_expr(rep, d: Dil, k: int, n_points: int):
    tag = f"decompose {to_str(d)}"
    target = list(islice(_elements(d, n_points), k))
    dec = decompose(d)
    if dec.kind == "zero":
        rep.check(target == [], f"{tag}: empty")
    elif dec.kind == "succ":
        _witness(rep, tag, target, k, [
            (_elements(dec.prefix, n_points), partial(coherence.prefix_inject, d)),
            (_elements(dec.top, n_points), partial(coherence.top_inject, d)),
        ])
    else:  # the first gap ends the check
        for j in (1, 3, 5):
            part = (_elements(dec.fund(j), n_points), partial(coherence.limit_prefix_inject, d, j))
            if not _witness(rep, tag, target, k, [part], f" [stage {j}]"):
                return


def _check_sep_expr(rep, d: Dil, g: Ord, k: int, n_points: int):
    """``d`` is of type Omega and ``g`` is not zero."""
    dec = decompose(d)
    atom, sep_atom_expr = dec.top, mk_sep_atom(dec.top, g, g)
    inject = partial(coherence.sum_inject, (dec.prefix, sep_atom_expr))
    _witness(rep, f"sep {to_str(d)} at {ord_str(g)}", _elements(separate(dec, g), n_points), k, [
        (_elements(dec.prefix, n_points), partial(inject, 0)),
        (_elements(Sep(atom, g, g), n_points), lambda e: inject(1, coherence.sep_translate(atom, g, e))),
    ])


def _check_sep_signed_atom(rep, atom: Dil, g: Ord, k: int, n_points: int):
    tag = f"split {to_str(atom)} at {ord_str(g)}"
    minus, plus = sep_signed(atom, g)
    translate = partial(coherence.split_translate, atom, g)
    if not _witness(rep, tag, _elements(mk_sum(minus, plus), n_points), k,
                    [(_elements(atom, n_points, g), translate)]):
        return
    # the upper part stays connected
    terms = enum_trace_terms(plus, 2, EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=1, grid=3))
    pairs = combinations(terms[:6], 2)
    if any(ll_relation(plus, t1, t2) != EQUIVALENT for (t1, _), (t2, _) in pairs):
        rep.failed(f"{tag}: upper part not connected")


def check_coherence(prefix: int = 200, **_opts) -> CheckReport:
    rep = CheckReport("coherence")
    k, n_points = prefix, 2
    exprs = [parse_dil(s) for s in COHERENCE_SUITE]
    for d in exprs:
        _check_decompose_expr(rep, d, k, n_points)
    for d, gs in product(exprs, ["1", "w"]):
        g = parse_ord(gs)
        translate = partial(coherence.shift_translate, d, g)
        _witness(rep, f"shift {to_str(d)} by {gs}", _elements(mk_shift(d, g), n_points), min(k, 120),
                 [(_elements(d, n_points, g), translate)])
    for ds, gs in product(["Id", "Id+Id", "omega[Id]", "omega[Id*2]", "1+Id"], ["1", "2", "w"]):
        _check_sep_expr(rep, parse_dil(ds), parse_ord(gs), min(k, 120), n_points)
    atoms = [D_ID, CnfHead(D_ZERO, D_ID), CnfHead(D_ID, D_ID), CnfHead(D_ONE, CnfHead(D_ZERO, D_ID))]
    for atom, gs in product(atoms, ["0", "1", "w"]):
        _check_sep_signed_atom(rep, atom, parse_ord(gs), min(k, 80), n_points)
    # finite order types match exhaustive counts for arguments up to six
    finite_suite = ["0", "1", "Const(3)", "Const(6)", "Id", "Id+1", "Id*2", "Id*2+Const(2)", "Id*3"]
    for ds in finite_suite:
        d = parse_dil(ds)
        for n in range(0, 7):
            count = len(enum_elements(d, n, EnumBudget(const_cap=40, max_count=20000)))
            symbolic = otp_symbolic(d, from_int(n))
            rep.check(
                symbolic == from_int(count),
                f"otp {ds} at {n}: {ord_str(symbolic)} == {count}",
            )
    return rep


# ---------------------------------------------------------------------------
# criterion 6: order-theoretic sanity


def check_order_sanity(**_opts) -> CheckReport:
    rep = CheckReport("order-sanity")
    budget = EnumBudget(const_cap=5, copies=2, cnf_len=2, cnf_mult=2, grid=4, max_count=4000)
    exprs = [parse_dil(s) for s in COHERENCE_SUITE]
    for d in exprs:
        es = enum_elements(d, 3, budget)[:16]
        # trichotomy and transitivity
        bad = 0
        for x, y in combinations(es, 2):
            if compare_elements(d, x, y) == EQUAL:
                bad += 1
        for x, y, z in combinations(es, 3):
            if (
                compare_elements(d, x, y) == LESS
                and compare_elements(d, y, z) == LESS
                and compare_elements(d, x, z) != LESS
            ):
                bad += 1
        rep.check(bad == 0, f"order sanity of {to_str(d)} on {len(es)} elements")
        # support naturality + monotonicity + support condition
        fs = _embeddings(3, 5)
        nat_bad = 0
        for e in es[:10]:
            supp = support_of(d, e)
            for f in fs[:6]:
                fe = apply_embedding(d, e, f)
                if support_of(d, fe) != sorted(f[p] for p in supp):
                    nat_bad += 1
            for f, gmap in combinations(fs[:6], 2):
                lo = {i: min(f[i], gmap[i]) for i in f}
                hi = {i: max(f[i], gmap[i]) for i in f}
                if (
                    compare_elements(d, apply_embedding(d, e, lo), apply_embedding(d, e, hi))
                    == GREATER
                ):
                    nat_bad += 1
            # support condition: refactor through any embedding covering the support
            for f in fs[:6]:
                rng = set(f.values())
                if set(supp) <= rng:
                    inverse = {v: kk for kk, v in f.items()}
                    pre = apply_embedding(d, e, inverse)
                    if apply_embedding(d, pre, f) != e:
                        nat_bad += 1
        rep.check(nat_bad == 0, f"supports natural/monotone for {to_str(d)}")
    # unique most important index on connected pieces, max domination asserted
    atoms = [D_ID, CnfHead(D_ZERO, D_ID), CnfHead(D_ID, D_ID),
             CnfHead(D_ONE, CnfHead(D_ZERO, D_ID))]
    for atom in atoms:
        terms = enum_trace_terms(atom, 4, EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3))
        checked = 0
        for t, arity in terms:
            if arity == 0 or arity > 4:
                continue
            idx = important_index(atom, t)
            checked += 1
            mi = important_position(atom, t)
            pts = support_of(atom, t)
            if mi.point != pts[idx]:
                rep.failed(f"structural importance disagrees on {to_str(atom)}")
            if is_max_dominated(atom) and idx != arity - 1:
                rep.failed(f"max domination broke on {to_str(atom)}")
        rep.check(checked > 0, f"important index unique on {checked} terms of {to_str(atom)}")
    # arity-5 witnesses: maximal index on a dominated atom, lead index on a
    # composite head whose tails carry larger points
    h = CnfHead(D_ZERO, D_ID)
    t5 = tuple((ESum(1, Right(i)), 1) for i in reversed(range(5)))
    rep.check(important_index(h, t5) == 4, "arity-5 term has the maximal index")
    hid = CnfHead(D_ID, D_ID)
    mixed = ((ESum(1, Right(0)), 1),) + tuple((ESum(0, Right(i)), 1) for i in (4, 3, 2, 1))
    rep.check(
        important_index(hid, mixed) == 0,
        "arity-5 composite-head term keeps importance at the lead",
    )
    # placed-element comparison follows the important coefficient
    for atom in atoms[:3]:
        terms = enum_trace_terms(atom, 2, EnumBudget(const_cap=2, copies=2, cnf_len=2, cnf_mult=1, grid=2))
        pairs = 0
        for (t1, a1), (t2, a2) in product(terms, repeat=2):
            if a1 == 0 or a2 == 0:
                continue
            i1, i2 = important_index(atom, t1), important_index(atom, t2)
            f = {p: 2 * j for j, p in enumerate(support_of(atom, t1))}
            g = {p: 2 * j + 1 for j, p in enumerate(support_of(atom, t2))}
            p1 = sorted(f.values())[i1]
            p2 = sorted(g.values())[i2]
            if p1 < p2:
                e1 = apply_embedding(atom, t1, f)
                e2 = apply_embedding(atom, t2, g)
                if compare_elements(atom, e1, e2) != LESS:
                    rep.failed(f"important coefficient comparison broke on {to_str(atom)}")
                pairs += 1
        rep.check(pairs > 0, f"important-coefficient law on {pairs} pairs of {to_str(atom)}")
    # strict rank decrease under separation
    def decreases(ds, gs, probe_s):
        d, probe = parse_dil(ds), parse_ord(probe_s)
        lhs = otp_symbolic(sep(d, parse_ord(gs)), probe)
        rhs = otp_symbolic(d, probe)
        rep.check(lhs < rhs, f"rank decrease {ds} at {gs}: {ord_str(lhs)} < {ord_str(rhs)}")
        return ()

    probes = [("1", "w"), ("w", "w^2"), ("w", "w^w"), ("w^2", "w^w")]
    cases = [(ds, gs, probe_s) for ds in OMEGA_TYPE_SUITE for gs, probe_s in probes]
    _instances(rep, "rank decrease ({},{})", cases, decreases)
    return rep


# ---------------------------------------------------------------------------
# criterion 7: well-foundedness fuzzing


def check_wellfounded(trials: int = 10000, depth: int = 30, seed: int = 2024, **_opts) -> CheckReport:
    rep = CheckReport("wellfounded-fuzz")
    fixture = IllFoundedFixture()
    res = chain_search(fixture, min(trials, 200), depth, seed)
    rep.check(res.found, f"ill-founded fixture found a chain in {res.trials} trials")
    for ds, gs in [("omega[Id]", "0"), ("Id", "w")]:
        handle = PsiSearchHandle(PsiOrder(parse_dil(ds), parse_ord(gs)))
        res = chain_search(handle, trials, depth, seed)
        rep.check(
            not res.found,
            f"psi({ds})^{gs}: no descending {depth}-chain in {trials} trials",
        )
    return rep


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "j-exact": check_j_exact,
    "psi-values": check_psi_values,
    "bound-theorem": check_bound_theorem,
    "j-laws": check_j_laws,
    "coherence": check_coherence,
    "order-sanity": check_order_sanity,
    "wellfounded-fuzz": check_wellfounded,
}


def _timed(check, **opts) -> CheckReport:
    start = time.perf_counter()
    rep = check(**opts)
    rep.duration = time.perf_counter() - start
    return rep


def run_check(name: str, **opts) -> list:
    if name == "all":
        return [_timed(fn, **opts) for fn in CHECKS.values()]
    if name not in CHECKS:
        raise DilcalcError(f"unknown check suite {name!r}; known: {', '.join(CHECKS)}, all")
    return [_timed(CHECKS[name], **opts)]
