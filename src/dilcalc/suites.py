"""Named check suites: each one realizes an acceptance criterion.

Every suite returns a report with per-instance outcomes.  Instances whose
values leave the notation fragment are recorded as skips, never as silent
passes; any mismatch is a violation and fails the suite.
"""

from __future__ import annotations

import itertools
import time

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
    prefix_elements,
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


def _d(s: str) -> Dil:
    return parse_dil(s)


# curated expression pools
J_SUITE = ["0", "1", "Const(3)", "Const(w)", "Const(w*2)", "Const(w^2)",
           "Id", "Id+1", "1+Id", "Id*2", "Const(w)+Id", "omega[Id]", "Id*w"]
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
        t0 = time.time()
        value = EVALUATORS[variant](_d(ds), parse_ord(gs)).value
        dt = time.time() - t0
        tag = f"{variant}({ds},{gs}) = {ord_str(value)} [{dt*1000:.0f}ms]"
        rep.check(value == parse_ord(expected) and dt < 1.0, tag)
    return rep


# ---------------------------------------------------------------------------
# criterion 2: collapse clause values


def check_psi_values(**_opts) -> CheckReport:
    rep = CheckReport("psi-values")
    for alpha in ["0", "1", "2", "3", "w", "w^2"]:
        for gamma in ["0", "w"]:
            t0 = time.time()
            value = psi_clause_otp(Const(parse_ord(alpha)), parse_ord(gamma))
            dt = time.time() - t0
            rep.check(
                value == parse_ord(alpha) and dt < 1.0,
                f"psi(Const({alpha}))^{gamma} = {ord_str(value)}",
            )
    v = psi_clause_otp(_d("Const(2)+Const(3)"), ZERO)
    rep.check(v == from_int(5), f"psi(Const(2)+Const(3))^0 = {ord_str(v)}")
    # the sum clause on its own pieces
    lhs = psi_clause_otp(_d("Const(2)"), ZERO)
    rhs = psi_clause_otp(_d("Const(3)"), ord_add(ZERO, lhs))
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
        for gs in ["w", "w^2"]:
            d, g = _d(ds), parse_ord(gs)
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


def check_j_laws(**_opts) -> CheckReport:
    rep = CheckReport("j-laws")

    # composition, >= 20 instances
    count = 0
    for ds, es in itertools.product(J_SUITE, repeat=2):
        for gs in ["w", "w^2", "1"]:
            if count >= 40:
                break
            d, e, g = _d(ds), _d(es), parse_ord(gs)
            try:
                lhs = j_eval(mk_sum(d, e), g).value
                mid = j_eval(d, g).value
                rhs = j_eval(e, mid).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"composition ({ds},{es},{gs})", exc)
                continue
            if lhs != rhs:
                rep.failed(f"composition ({ds},{es},{gs}): {ord_str(lhs)} != {ord_str(rhs)}")
            count += 1
    rep.check(count >= 20, f"composition law held on {count} instances")

    # determinism and guard independence via the audit
    audited = 0
    for ds in J_SUITE:
        for gs in ["w", "w^2"]:
            d, g = _d(ds), parse_ord(gs)
            try:
                res = j_eval(d, g)
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"audit ({ds},{gs})", exc)
                continue
            audit = j_guard_report(res)
            if not audit.value_identical:
                rep.failed(f"determinism broke on ({ds},{gs})")
            if audit.rank_violations:
                rep.failed(f"rank decrease broke on ({ds},{gs}): {audit.rank_violations[:2]}")
            audited += 1
    rep.check(audited >= 20, f"determinism + guard audit on {audited} instances")

    # monotonicity instances
    mono = 0
    for ds, es in [("Id", "1"), ("Id", "Id"), ("Const(w)", "Id"), ("1", "omega[Id]"),
                   ("omega[Id]", "Id"), ("Id*2", "Const(w)")]:
        for g1s, g2s in [("w", "w"), ("w", "w*2"), ("1", "w")]:
            d, e = _d(ds), _d(es)
            g1, g2 = parse_ord(g1s), parse_ord(g2s)
            try:
                small = j_eval(d, g1).value
                big = j_eval(mk_sum(d, e), g2).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"monotonicity ({ds},{es},{g1s},{g2s})", exc)
                continue
            if not small <= big:
                rep.failed(f"monotonicity broke: J({ds},{g1s}) > J({ds}+{es},{g2s})")
            mono += 1
    for ds in ["Id", "Const(w)", "omega[Id]"]:
        d = _d(ds)
        for n in (1, 2, 3):
            try:
                v1 = j_eval(mk_mul_nat(d, n), W).value
                v2 = j_eval(mk_mul_nat(d, n + 1), W).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"monotonicity ({ds}*{n})", exc)
                continue
            if not v1 <= v2:
                rep.failed(f"monotonicity broke on {ds}*{n}")
            mono += 1
    rep.check(mono >= 20, f"monotonicity held on {mono} instances")

    # properties (a)-(e)
    props = 0
    for ds in J_SUITE:
        for gs in ["0", "w", "w^2"]:
            d, g = _d(ds), parse_ord(gs)
            try:
                v = j_eval(d, g).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"properties ({ds},{gs})", exc)
                continue
            props += 1
            if not g <= v:
                rep.failed(f"(a) broke on ({ds},{gs})")
            has_unit = not otp_symbolic(d, ZERO).is_zero()
            if has_unit and not ord_add(g, ONE) <= v:
                rep.failed(f"(b) broke on ({ds},{gs})")
            if d != D_ZERO and not (ord_add(g, ONE) <= v or (v == g and g == ZERO)):
                rep.failed(f"(d) broke on ({ds},{gs})")
            if classify(d) == "Omega" and has_unit:
                try:
                    c = j_eval(sep(d, ord_add(g, ONE)), g).value
                except FRAGMENT_ERRORS as exc:
                    rep.refused(f"(c) ({ds},{gs})", exc)
                    continue
                if not c <= v:
                    rep.failed(f"(c) broke on ({ds},{gs})")
    for ds, es in [("Id", "1"), ("Id", "Id"), ("1", "Id"), ("Const(w)", "omega[Id]"),
                   ("omega[Id]", "1"), ("Id*2", "Id")]:
        d, e = _d(ds), _d(es)
        try:
            whole = j_eval(mk_sum(d, e), W).value
            part = j_eval(d, W).value
        except FRAGMENT_ERRORS as exc:
            rep.refused(f"(e) ({ds},{es})", exc)
            continue
        props += 1
        if not whole.is_zero() and e != D_ZERO and not part < whole:
            rep.failed(f"(e) broke on ({ds},{es})")
    rep.check(props >= 20, f"properties (a)-(e) held on {props} instances")

    # primed functor bounded by the eightfold sum
    primed = 0
    for ds in ["Id", "Const(w)", "omega[Id]", "Id+1", "Id*2", "1+Id", "Id*w"]:
        for gs in ["w", "w^2"]:
            d, g = _d(ds), parse_ord(gs)
            try:
                lhs = jprime_eval(d, g).value
                rhs = j_eval(mk_mul_nat(d, 8), g).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"eightfold ({ds},{gs})", exc)
                continue
            if not lhs <= rhs:
                rep.failed(f"eightfold bound broke on ({ds},{gs})")
            primed += 1
    rep.check(primed >= 10, f"primed-vs-eightfold held on {primed} instances")

    # shift robustness for finite shifts
    robust = 0
    for ds in ["Id", "Const(w)", "omega[Id]", "1+Id", "Id*2"]:
        for n in (1, 2, 3, 4):
            for gs in ["w", "w^2"]:
                d, g = _d(ds), parse_ord(gs)
                try:
                    lhs = jprime_eval(mk_shift(d, from_int(n)), g).value
                    rhs = jprime_eval(d, g).value
                except FRAGMENT_ERRORS as exc:
                    rep.refused(f"shift robustness ({ds},{n},{gs})", exc)
                    continue
                if lhs != rhs:
                    rep.failed(f"shift robustness broke on ({ds},{n},{gs})")
                robust += 1
    rep.check(robust >= 20, f"shift robustness held on {robust} instances")

    # closure values: additive principality where the value exists
    for ds in OMEGA_TYPE_SUITE:
        d = _d(ds)
        if classify(d) != "Omega":
            continue
        for gs in ["w", "w^2"]:
            g = parse_ord(gs)
            try:
                v = jplus_eval(d, g).value
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"closure ({ds},{gs})", exc)
                continue
            if not (ord_is_principal(v) and g < v):
                rep.failed(f"closure value not principal above gamma on ({ds},{gs})")
            rep.passed(f"closure value on ({ds},{gs}) = {ord_str(v)}")
    return rep


# ---------------------------------------------------------------------------
# criterion 5: semantic/symbolic coherence


def _take(expr, n_points, k):
    return prefix_elements(expr, n_points, k, pull_cap=600000)


def _structurally_equal(rep, tag, produced, expected):
    if len(produced) != len(expected):
        rep.failed(f"{tag}: produced {len(produced)} vs expected {len(expected)}")
        return
    for i, (x, y) in enumerate(zip(produced, expected)):
        if x != y:
            rep.failed(f"{tag}: mismatch at index {i}")
            return
    rep.passed(f"{tag}: {len(produced)} elements agree")


def _check_decompose_expr(rep, d: Dil, k: int, n_points: int):
    tag = f"decompose {to_str(d)}"
    target = _take(d, n_points, k)
    dec = decompose(d)
    if dec.kind == "zero":
        rep.check(target == [], f"{tag}: empty")
        return
    try:
        if dec.kind == "succ":
            images = [coherence.prefix_inject(d, e) for e in _take(dec.prefix, n_points, k)]
            if len(images) < k:
                images += [
                    coherence.top_inject(d, e)
                    for e in _take(dec.top, n_points, k - len(images))
                ]
            _structurally_equal(rep, tag, images, target[: len(images)])
        else:
            for j in (1, 3, 5):
                part = _take(dec.fund(j), n_points, k)
                images = [coherence.limit_prefix_inject(d, j, e) for e in part]
                _structurally_equal(
                    rep, f"{tag} [stage {j}]", images, target[: len(images)]
                )
    except coherence.TranslationGap as exc:
        rep.skipped(f"{tag}: {exc}")


def _check_shift_expr(rep, d: Dil, g: Ord, k: int, n_points: int):
    tag = f"shift {to_str(d)} by {ord_str(g)}"
    sem = list(itertools.islice(ambient_stream(d, range(n_points), g), k))
    try:
        images = [coherence.shift_translate(d, g, e) for e in sem]
    except coherence.TranslationGap as exc:
        rep.skipped(f"{tag}: {exc}")
        return
    target = _take(mk_shift(d, g), n_points, len(images))
    _structurally_equal(rep, tag, images, target)


def _check_sep_expr(rep, d: Dil, g: Ord, k: int, n_points: int):
    tag = f"sep {to_str(d)} at {ord_str(g)}"
    dec = decompose(d)
    if dec.kind != "succ" or dec.top == D_ONE:  # not of type Omega
        return
    sep_expr = separate(dec, g)
    atom = dec.top
    sep_atom_expr = mk_sep_atom(atom, g, g)
    images = [
        coherence.sum_inject(dec.prefix, sep_atom_expr, 0, e)
        for e in _take(dec.prefix, n_points, k)
    ]
    if len(images) < k and not g.is_zero():
        images += [
            coherence.sum_inject(dec.prefix, sep_atom_expr, 1, coherence.sep_translate(atom, g, e))
            for e in _take(Sep(atom, g, g), n_points, k - len(images))
        ]
    target = _take(sep_expr, n_points, len(images))
    _structurally_equal(rep, tag, images, target)


def _check_sep_signed_atom(rep, atom: Dil, g: Ord, k: int, n_points: int):
    tag = f"split {to_str(atom)} at {ord_str(g)}"
    sem = list(itertools.islice(ambient_stream(atom, range(n_points), g), k))
    try:
        images = [coherence.split_translate(atom, g, e) for e in sem]
    except coherence.TranslationGap as exc:
        rep.skipped(f"{tag}: {exc}")
        return
    minus, plus = sep_signed(atom, g)
    target = _take(mk_sum(minus, plus), n_points, len(images))
    _structurally_equal(rep, tag, images, target)
    # the upper part stays connected
    terms = enum_trace_terms(plus, 2, EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=1, grid=3))
    for (t1, _), (t2, _) in itertools.combinations(terms[:6], 2):
        if ll_relation(plus, t1, t2) != EQUIVALENT:
            rep.failed(f"{tag}: upper part not connected")
            return


def check_coherence(prefix: int = 200, **_opts) -> CheckReport:
    rep = CheckReport("coherence")
    k, n_points = prefix, 2
    exprs = [_d(s) for s in COHERENCE_SUITE]
    for d in exprs:
        _check_decompose_expr(rep, d, k, n_points)
    for d in exprs:
        for gs in ["1", "w"]:
            _check_shift_expr(rep, d, parse_ord(gs), min(k, 120), n_points)
    for ds in ["Id", "Id+Id", "omega[Id]", "omega[Id*2]", "1+Id"]:
        for gs in ["1", "2", "w"]:
            _check_sep_expr(rep, _d(ds), parse_ord(gs), min(k, 120), n_points)
    atoms = [D_ID, CnfHead(D_ZERO, D_ID), CnfHead(D_ID, D_ID), CnfHead(D_ONE, CnfHead(D_ZERO, D_ID))]
    for atom in atoms:
        for gs in ["0", "1", "w"]:
            _check_sep_signed_atom(rep, atom, parse_ord(gs), min(k, 80), n_points)
    # finite order types match exhaustive counts for arguments up to six
    finite_suite = ["0", "1", "Const(3)", "Const(6)", "Id", "Id+1", "Id*2", "Id*2+Const(2)", "Id*3"]
    for ds in finite_suite:
        d = _d(ds)
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
    exprs = [_d(s) for s in COHERENCE_SUITE]
    for d in exprs:
        es = enum_elements(d, 3, budget)[:16]
        # trichotomy and transitivity
        bad = 0
        for x, y in itertools.combinations(es, 2):
            if compare_elements(d, x, y) == EQUAL:
                bad += 1
        for x, y, z in itertools.combinations(es, 3):
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
            for f, gmap in itertools.combinations(fs[:6], 2):
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
        for (t1, a1), (t2, a2) in itertools.product(terms, repeat=2):
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
    for ds in OMEGA_TYPE_SUITE:
        d = _d(ds)
        if classify(d) != "Omega":
            continue
        for gs, probe_s in [("1", "w"), ("w", "w^2"), ("w", "w^w"), ("w^2", "w^w")]:
            g, probe = parse_ord(gs), parse_ord(probe_s)
            if not g < probe:
                continue
            try:
                lhs = otp_symbolic(sep(d, g), probe)
                rhs = otp_symbolic(d, probe)
            except FRAGMENT_ERRORS as exc:
                rep.refused(f"rank decrease ({ds},{gs})", exc)
                continue
            rep.check(lhs < rhs, f"rank decrease {ds} at {gs}: {ord_str(lhs)} < {ord_str(rhs)}")
    return rep


# ---------------------------------------------------------------------------
# criterion 7: well-foundedness fuzzing


def check_wellfounded(trials: int = 10000, depth: int = 30, seed: int = 2024, **_opts) -> CheckReport:
    rep = CheckReport("wellfounded-fuzz")
    fixture = IllFoundedFixture()
    res = chain_search(fixture, min(trials, 200), depth, seed)
    rep.check(res.found, f"ill-founded fixture found a chain in {res.trials} trials")
    for ds, gs in [("omega[Id]", "0"), ("Id", "w")]:
        handle = PsiSearchHandle(PsiOrder(_d(ds), parse_ord(gs)))
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
