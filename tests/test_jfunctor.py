import collections
import hashlib
import random
import re
import sys

import pytest

import dilcalc.analysis as analysis_module
import dilcalc.expr as expr_module
import dilcalc.jfunctor as jfunctor_module
from dilcalc.analysis import Decomposition, classify, decompose, otp_symbolic
from dilcalc.errors import (
    DepthExceeded,
    DilcalcError,
    FRAGMENT_ERRORS,
    GuardViolation,
    OutOfNotation,
    UnsupportedDecomposition,
)
from dilcalc.expr import (
    Band,
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    MulOmega,
    Sep,
    Sum,
    _split_trailing,
    mk_mul_nat,
    mk_omega_comp,
    mk_sep_atom,
    mk_shift,
    mk_sum,
    mk_sum_all,
    parse_dil,
    to_str,
)
from dilcalc.jfunctor import (
    EVALUATORS,
    JResult,
    JStep,
    _Session,
    j_eval,
    j_guard_report,
    jplus_eval,
    jprime_eval,
)
from dilcalc.ordinal import (
    LIMIT_SAMPLES,
    OMEGA,
    ONE,
    ZERO,
    Ord,
    from_int,
    ord_add,
    ord_omega_pow,
    ord_str,
    parse_ord,
)
from dilcalc.psi import psi_clause_otp
from dilcalc.suites import J_SUITE
from test_analysis import differential_limit_sup
from test_ordinal import sup_of_sequence

w = OMEGA


def J(text, gamma):
    return ord_str(j_eval(parse_dil(text), parse_ord(gamma)).value)


def JP(text, gamma):
    return ord_str(jprime_eval(parse_dil(text), parse_ord(gamma)).value)


def JPL(text, gamma):
    return ord_str(jplus_eval(parse_dil(text), parse_ord(gamma)).value)


class TestBaseValues:
    def test_empty(self):
        assert J("0", "w") == "w"

    def test_unit(self):
        assert J("1", "w") == "w+1"

    def test_identity(self):
        # alpha = w through the zero cut, beta = w*2 on the frozen constant
        assert J("Id", "w") == "w*3"

    def test_constant_limit(self):
        assert J("Const(w)", "w") == "w*2"

    def test_repetition_of_units(self):
        assert J("1*w", "w") == "w*2"

    def test_primed_identity(self):
        assert JP("Id", "w") == "w*5"

    def test_primed_base_clauses_unchanged(self):
        assert JP("0", "w") == "w"
        assert JP("1", "w") == "w+1"

    def test_closure_empty(self):
        assert JPL("0", "w") == "w*2"

    def test_closure_unit(self):
        assert JPL("1", "w") == "w^2"

    def test_composed_head(self):
        assert J("omega[Id]", "w") == "w^(w+1)"

    def test_more_derived_values(self):
        assert J("Id+1", "w") == "w*3+1"
        assert J("Id*2", "w") == "w*9"
        assert J("Id*w", "w") == "w^2"
        assert JP("omega[Id]", "w") == "w^w^w"

    def test_closure_leaves_fragment_on_live_positions(self):
        for text in ["Id", "Id+1", "Id*2", "Id*w", "omega[Id]"]:
            with pytest.raises(OutOfNotation):
                jplus_eval(parse_dil(text), w)


class TestLaws:
    SUITE = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "Id*2", "omega[Id]"]

    def test_determinism(self):
        for text in self.SUITE:
            d = parse_dil(text)
            assert j_eval(d, w).value == j_eval(d, w).value

    def test_clause_reverification(self):
        from dilcalc.analysis import sep
        from dilcalc.ordinal import ord_add

        for text in self.SUITE:
            d = parse_dil(text)
            value = j_eval(d, w).value
            kind, dec = classify(d), decompose(d)
            if kind == "0":
                assert value == w
            elif kind == "1":
                assert value == ord_add(j_eval(dec.prefix, w).value, parse_ord("1"))
            elif kind == "Omega":
                alpha = j_eval(sep(d, parse_ord("0")), w).value
                beta = j_eval(sep(d, alpha), w).value
                assert value == ord_add(alpha, beta)
            else:
                samples = [j_eval(dec.fund(k), w).value for k in range(6)]
                assert all(W <= value for W in samples)
                assert all(v < value or v == value for v in samples)

    def test_composition(self):
        pairs = [
            ("Id", "Id"), ("Id", "Const(w)"), ("Const(w)", "Id"),
            ("omega[Id]", "Id"), ("1", "omega[Id]"), ("Id*2", "Id+1"),
        ]
        for ds, es in pairs:
            d, e = parse_dil(ds), parse_dil(es)
            lhs = j_eval(mk_sum(d, e), w).value
            rhs = j_eval(e, j_eval(d, w).value).value
            assert lhs == rhs, (ds, es)

    def test_guard_audit(self):
        res = j_eval(parse_dil("Id"), w)
        audit = j_guard_report(res)
        assert audit.value_identical
        assert not audit.rank_violations
        assert audit.steps_checked > 0

    def test_guard_audit_trivial(self):
        res = j_eval(parse_dil("0"), w)
        assert all(s.child is None for s in res.steps)
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations

    def test_guard_audit_ranks_partial_sums(self):
        res = j_eval(parse_dil("Id*w"), w)
        limit_edges = [s for s in res.steps if s.clause == "limit" and s.child is not None]
        assert limit_edges
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations and audit.steps_checked > 0

    def test_depth_cap_configurable(self, monkeypatch):
        from dilcalc.errors import DepthExceeded

        monkeypatch.setattr(jfunctor_module, "DEPTH_CAP", 3)
        with pytest.raises(DepthExceeded, match="evaluation exceeded 3 steps"):
            j_eval(parse_dil("Id*w"), w)

    def test_guards_bound_value_and_rank(self):
        from dilcalc.analysis import otp_symbolic
        from dilcalc.ordinal import ONE, ord_add, ord_omega_pow

        for text in ["Id", "omega[Id]", "Const(w)"]:
            res = j_eval(parse_dil(text), w)
            assert res.value < res.eta
            if res.xi is not None:
                probe = ord_omega_pow(ord_add(ONE, res.eta))
                assert otp_symbolic(res.expr, probe) < res.xi

    def test_primed_below_eightfold(self):
        for text in ["Id", "Const(w)", "omega[Id]", "Id+1", "Id*2"]:
            d = parse_dil(text)
            for gs in ["w", "w^2"]:
                g = parse_ord(gs)
                assert jprime_eval(d, g).value <= j_eval(mk_mul_nat(d, 8), g).value

    def test_shift_robustness(self):
        for text in ["Id", "Const(w)", "omega[Id]", "1+Id"]:
            d = parse_dil(text)
            base = jprime_eval(d, w).value
            for n in (1, 2, 3, 4):
                assert jprime_eval(mk_shift(d, from_int(n)), w).value == base

    def test_monotonicity(self):
        small = j_eval(parse_dil("Id"), w).value
        assert small <= j_eval(parse_dil("Id+1"), w).value
        assert small <= j_eval(parse_dil("Id"), parse_ord("w*2")).value
        assert (
            j_eval(parse_dil("Id*2"), w).value <= j_eval(parse_dil("Id*3"), w).value
        )


def _render(name, d, gs, evaluator, depth_cap):
    """Value, guards, full step log and guard audit of one evaluation under
    ``DEPTH_CAP = depth_cap``, or its refusal as ``type: message``; the
    first line alone is the answer."""
    head = f"{name} {to_str(d)} @ {gs}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jfunctor_module, "DEPTH_CAP", depth_cap)
        try:
            res = evaluator(d, parse_ord(gs))
        except DilcalcError as exc:
            return [f"{head} ! {type(exc).__name__}: {exc}"]
        audit = j_guard_report(res)
    xi = ord_str(res.xi) if res.xi is not None else None
    lines = [f"{head} = {ord_str(res.value)} eta={ord_str(res.eta)} xi={xi}"]
    for s in res.steps:
        child = to_str(s.child) if s.child is not None else "-"
        lines.append(
            f"  [{s.clause}] {to_str(s.parent)} @ {ord_str(s.gamma)} <- {child}"
            f" = {ord_str(s.value)}"
        )
    lines.append(
        f"  audit {audit.value_identical} {ord_str(audit.enlarged_eta)} "
        f"{audit.steps_checked} {audit.rank_violations} {audit.unranked_steps}"
    )
    return lines


class TestStepLog:
    ATOMS = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "Id*2", "Id*w",
             "omega[Id]", "Const(w)+Id", "omega[Id*2]", "1*w", "(Id*w)*w"]
    GAMMAS = ["0", "1", "w", "w^2"]

    @classmethod
    def grid(cls):
        """(name, expr, gamma, evaluator, depth_cap) over seeded sums of
        atoms, plus two raw bands of Id, empty and of type 1, which
        ``mk_band`` never builds: they refuse as not normalized."""
        rng = random.Random(2024)
        texts = list(cls.ATOMS) + [
            "+".join(rng.choice(cls.ATOMS) for _ in range(rng.randint(2, 3)))
            for _ in range(16)
        ]
        cases = []
        for i, text in enumerate(texts):
            d, gs = parse_dil(text), cls.GAMMAS[i % len(cls.GAMMAS)]
            cases += [(name, d, gs, fn, 10000) for name, fn in EVALUATORS.items()]
        two = parse_ord("2")
        for band in (Band(D_ID, OMEGA, OMEGA, OMEGA), Band(D_ID, ZERO, two, two)):
            cases += [(name, band, "w", EVALUATORS[name], 10000) for name in ("j", "jprime")]
        cases.append(("j", parse_dil("Id*w"), "w", j_eval, 3))
        return cases

    def test_fingerprint(self):
        # count and sha1 of the rendered grid, re-taken when a sum began to
        # compose all its summands in one step (28 composition lines, not
        # 52); test_fingerprint_but_compositions holds the rest
        lines = []
        for case in self.grid():
            lines += _render(*case)
        text = "\n".join(lines)
        clauses = {line[3:line.index("]")] for line in lines if line.startswith("  [")}
        assert clauses == {"constant", "composition", "limit", "separation"}
        assert any("! OutOfNotation" in line for line in lines)
        assert any("! DepthExceeded" in line for line in lines)
        assert sum(line.startswith("  [composition]") for line in lines) == 28
        assert len(lines) == 1349
        assert hashlib.sha1(text.encode()).hexdigest() == "620e85a07e4c45125e198265516943cdfa6f1741"

    def test_fingerprint_but_compositions(self):
        # the grid without its composition and audit lines (the audit counts
        # the composition edges), as it was while a sum composed one binary
        # level at a time: folding a sum's summands changed only those lines
        lines = []
        for case in self.grid():
            lines += [line for line in _render(*case)
                      if not line.startswith(("  [composition]", "  audit"))]
        assert len(lines) == 1264
        text = "\n".join(lines)
        assert hashlib.sha1(text.encode()).hexdigest() == "e4b3f6629a1e94f2c8eefb66b8ddbe5a501c7241"

    def test_answers_fingerprint(self):
        # value, eta, xi or `type: message` of each case, taken while sums
        # were still peeled (composing changed the log, not the answers) and
        # re-taken when the two raw bands began to refuse
        heads = [_render(*case)[0] for case in self.grid()]
        assert len(heads) == 92
        text = "\n".join(heads)
        assert hashlib.sha1(text.encode()).hexdigest() == "442409c2d6153b8df72a4891eb02386782e78f27"

    @pytest.mark.parametrize("band", [Band(D_ID, OMEGA, OMEGA, OMEGA),
                                      Band(D_ID, ZERO, from_int(2), from_int(2)),
                                      Sep(CnfHead(D_ID, D_ID), ZERO, ZERO)], ids=to_str)
    @pytest.mark.parametrize("evaluator", [j_eval, jprime_eval, psi_clause_otp],
                             ids=lambda f: f.__name__)
    def test_hand_built_bands_refuse(self, band, evaluator):
        # decomposed as zero and as 1 + 1, which no normalized node is (a
        # separation at the cut 0 too, by the band's rule); as the last
        # summand of a sum too, which psi decomposes step by step
        message = rf"{re.escape(to_str(band))} is not normalized$"
        for d in (band, Sum((D_ID, band))):
            with pytest.raises(UnsupportedDecomposition, match=message):
                evaluator(d, w)

    @pytest.mark.parametrize("gs", ["0", "w", "w^2"])
    def test_shape(self, gs):
        for text in J_SUITE:
            for evaluator in (j_eval, jprime_eval):
                res = evaluator(parse_dil(text), parse_ord(gs))
                keys = [(s.parent, s.gamma) for s in res.steps]
                assert len(set(keys)) == len(keys), text
                assert keys[-1] == (res.expr, res.gamma), text
                done, parents = set(), set()
                for s in res.steps:
                    if s.clause == "composition":
                        # the last summand, evaluated earlier at the value of
                        # the summands before it
                        assert s.child == s.parent.parts[-1] and s.child in parents, text
                    elif s.child is not None:
                        # every other clause recurses at its own gamma
                        assert (s.child, s.gamma) in done, (text, to_str(s.child))
                    done.add((s.parent, s.gamma))
                    parents.add(s.parent)

    def test_long_log_is_complete(self):
        # the log has no cap of its own below DEPTH_CAP
        res = j_eval(parse_dil("Id*w*w*w*w"), OMEGA)
        assert ord_str(res.value) == "w^w^3"
        assert len(res.steps) == 7603
        assert len({s.parent for s in res.steps}) == 2407
        assert res.steps[-1].parent == res.expr


def _spine(seed, n):
    """n summands as the functor-sums benchmark draws them, shuffled chunks
    of the same 20 summands, with omega[Id] inserted in the middle."""
    chunk = ["Id"] * 5 + ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id*w"] * 3
    rng, parts = random.Random(seed), []
    while len(parts) < n:
        rng.shuffle(chunk)
        parts += chunk
    parts = parts[:n]
    parts.insert(n // 2, "omega[Id]")
    return parse_dil("+".join(parts))


class TestSessionFacts:
    """A session derives what does not depend on gamma once per expression:
    its decomposition, its fundamental-sequence members and its
    separation at the first cut."""

    CASES = [("j", "Id*w*w*w", "w"), ("jprime", "Id*w*w*w", "w"),
             ("j", 50, "w^2"), ("jprime", 50, "w+1")]
    FS_GAMMAS = ["0", "1", "w", "w+1", "w*2", "w^2"]

    @staticmethod
    def expr(text_or_n):
        return _spine(3, text_or_n) if isinstance(text_or_n, int) else parse_dil(text_or_n)

    @staticmethod
    def counted(monkeypatch, variant, d, gs):
        """The result of one evaluation and three counters: decompose calls
        per expression, fundamental-sequence members built per (expression,
        k) and separations per (expression, cut)."""
        classified, built, cuts = (collections.Counter() for _ in range(3))
        real, real_separate, owner = jfunctor_module.decompose, jfunctor_module.separate, {}

        def counting(e):
            classified[e] += 1
            dec = real(e)

            def fund(k):
                built[e, k] += 1
                return dec.fund(k)

            out = Decomposition(dec.kind, dec.prefix, dec.top, dec.fund and fund)
            owner[id(out)] = e
            return out

        def separating(dec, g):
            cuts[owner[id(dec)], g] += 1
            return real_separate(dec, g)

        with monkeypatch.context() as patch:
            patch.setattr(jfunctor_module, "decompose", counting)
            patch.setattr(jfunctor_module, "separate", separating)
            res = EVALUATORS[variant](d, parse_ord(gs))
        return res, classified, built, cuts

    @pytest.mark.parametrize("variant,item,gs", CASES)
    def test_classifies_each_expression_once(self, monkeypatch, variant, item, gs):
        res, classified, _, _ = self.counted(monkeypatch, variant, self.expr(item), gs)
        guarded = {s.parent for s in res.steps if not isinstance(s.parent, (Const, Sum))}
        # a B*w iterates J(B, .) and is never classified
        assert set(classified) == {e for e in guarded if not isinstance(e, MulOmega)}
        assert set(classified.values()) == {1}
        # the table is worth having: expressions recur at other gammas
        assert len(guarded) < sum(not isinstance(s.parent, (Const, Sum)) for s in res.steps)

    @pytest.mark.parametrize("variant,item,gs", CASES)
    def test_mul_omega_limit_builds_no_member(self, monkeypatch, variant, item, gs):
        # every limit here is a B*w: it iterates J(B, .), its step's child is B
        res, _, built, _ = self.counted(monkeypatch, variant, self.expr(item), gs)
        limits = [s for s in res.steps if s.clause == "limit"]
        assert limits and not built
        assert all(isinstance(s.parent, MulOmega) and s.child == s.parent.base for s in limits)

    @pytest.mark.parametrize("variant", ["j", "jprime"])
    @pytest.mark.parametrize("limit", [Band(D_ID, ZERO, OMEGA, OMEGA),
                                       mk_omega_comp(Band(D_ID, ZERO, OMEGA, OMEGA))],
                             ids=to_str)
    @pytest.mark.parametrize("gs", ["0", "w", "w^2"])
    def test_builds_each_limit_member_once(self, monkeypatch, variant, limit, gs):
        # the other limit shapes walk their members; under *w a shape runs at
        # LIMIT_SAMPLES - 1 gammas and still builds each member once
        res, _, built, _ = self.counted(monkeypatch, variant, MulOmega(limit), gs)
        assert len({s.gamma for s in res.steps if s.parent == limit}) == LIMIT_SAMPLES - 1
        assert set(built) == {(limit, k) for k in range(LIMIT_SAMPLES)}
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("variant,item,gs", CASES)
    def test_separates_at_the_first_cut_once(self, monkeypatch, variant, item, gs):
        res, _, _, cuts = self.counted(monkeypatch, variant, self.expr(item), gs)
        first = ZERO if variant == "j" else OMEGA
        tops = {s.parent for s in res.steps if s.clause == "separation"}
        assert tops and {e for e, g in cuts if g == first} == tops
        assert all(n == 1 for (_, g), n in cuts.items() if g == first)

    @pytest.mark.parametrize("variant,item,gs", CASES)
    def test_a_repeated_call_counts_the_same(self, monkeypatch, variant, item, gs):
        d = self.expr(item)
        first = self.counted(monkeypatch, variant, d, gs)
        again = self.counted(monkeypatch, variant, d, gs)
        assert again[0].steps == first[0].steps
        assert again[1:] == first[1:]

    def test_spines_fingerprint(self):
        # count and sha1 of the rendered spines, re-taken when a sum began to
        # compose all its summands in one step.  Without the composition and
        # audit lines they are as they were when a B*w limit first iterated
        # J(B, .), and the 72 answers alone as the members B*k gave them
        lines = []
        for seed in (1, 2):
            for n in (30, 50):
                d = _spine(seed, n)
                for gs in self.FS_GAMMAS:
                    for name, fn in EVALUATORS.items():
                        lines += _render(name, d, gs, fn, 10000)
        text = "\n".join(lines)
        assert len(lines) == 8988
        assert hashlib.sha1(text.encode()).hexdigest() == "48505da368091ab9609f137136899398fc947439"
        kept = [line for line in lines if not line.startswith(("  [composition]", "  audit"))]
        assert len(kept) == 8892
        kept = "\n".join(kept)
        assert hashlib.sha1(kept.encode()).hexdigest() == "f5eb296f89621c260e6d03a8c3582bf719648fca"
        heads = "\n".join(line for line in lines if not line.startswith("  "))
        assert hashlib.sha1(heads.encode()).hexdigest() == "744d1c8395e2d0368c23c19ab42731b397e16b4d"


# ---------------------------------------------------------------------------
# the peeling evaluator, kept as an independent reference for composition


class ReferenceSession:
    """J or J' as evaluated before sums composed: one gamma per session and
    a memo keyed by the expression alone.  A sum that ends in a constant
    peels it, J(r+c) = J(r)+c; any other sum is classified whole, so each
    step re-splits the sum and the cost is quadratic in its length.
    ``DEPTH_CAP`` counts every step.  It never applies the composition law,
    so agreement with it is evidence for that law."""

    def __init__(self, gamma, first_cut):
        self.gamma, self.first_cut = gamma, first_cut
        self.memo, self.calls = {}, 0

    def eval(self, d):
        if d in self.memo:
            return self.memo[d]
        self.calls += 1
        if self.calls > jfunctor_module.DEPTH_CAP:
            raise DepthExceeded(f"evaluation exceeded {jfunctor_module.DEPTH_CAP} steps")
        if isinstance(d, Const):
            value = ord_add(self.gamma, d.value)
        else:
            rest, last = _split_trailing(d)
            dec = None if rest is not None and isinstance(last, Const) else decompose(d)
            if dec is None:
                value = ord_add(self.eval(rest), last.value)
            elif dec.kind == "zero":
                value = self.gamma
            elif dec.kind == "succ" and dec.top == D_ONE:
                value = ord_add(self.eval(dec.prefix), ONE)
            elif dec.kind == "limit":
                values = [self.eval(dec.fund(k)) for k in range(LIMIT_SAMPLES)]
                if any(a > b for a, b in zip(values, values[1:])):
                    raise GuardViolation(f"partial-sum values decreased under {to_str(d)}")
                value = sup_of_sequence(values)
            else:
                def split(g):
                    return mk_sum(dec.prefix, mk_sep_atom(dec.top, g, g))

                alpha = self.eval(split(self.first_cut))
                value = ord_add(alpha, self.eval(split(alpha)))
        self.memo[d] = value
        return value


def _target(d, variant):
    """The expression a session of ``variant`` evaluates, and its first cut:
    J+ is J' of omega[d+1]."""
    if variant == "jplus":
        return mk_omega_comp(mk_sum(d, D_ONE)), OMEGA
    return d, ZERO if variant == "j" else OMEGA


def reference_eval(d, gamma, variant):
    """(value, eta, xi) of the peeling evaluator."""
    d, first_cut = _target(d, variant)
    session = ReferenceSession(gamma, first_cut)
    value = session.eval(d)
    eta = ord_add(value, ONE)
    try:
        xi = ord_add(otp_symbolic(d, ord_omega_pow(ord_add(ONE, eta))), ONE)
    except FRAGMENT_ERRORS:
        xi = None
    return value, eta, xi


def _answer(call):
    try:
        return call()
    except DilcalcError as exc:
        return f"{type(exc).__name__}: {exc}"


def seeded_sums(seed, atoms, count, longest):
    """``count`` sums of 2 to ``longest`` summands drawn from ``atoms``."""
    rng = random.Random(seed)
    return ["+".join(rng.choice(atoms) for _ in range(rng.randint(2, longest)))
            for _ in range(count)]


class TestReference:
    GAMMAS = ["0", "1", "w", "w+1", "w*2", "w^2"]
    # *w summands, and the other atoms they meet in sums
    W_ATOMS = ["Id*w", "Id*w*w", "(Id+1)*w", "(1+Id)*w", "omega[Id]*w", "omega_head(0;Id)*w",
               "Const(w)+Id*w", "(Id*w+Id)*w", "(Id+Const(w))*w", "(Id*2)*w"]
    OTHER_ATOMS = ["1", "Id", "Const(w)", "omega[Id]", "omega[Id*w]"]
    # every GRID_STRIDE-th case of limit_grid() runs in the suite; 43 is prime
    # to the 18 (gamma, variant) pairs of an expression, so the slice meets
    # them all.  Edited to 1, it runs the whole grid, in about 4 minutes
    GRID_STRIDE = 43

    @classmethod
    def grid(cls, exprs):
        """(expr, gamma, variant) for each expr x GAMMAS x J, J', J+."""
        return [(d, gs, variant) for d in exprs for gs in cls.GAMMAS for variant in EVALUATORS]

    @classmethod
    def limit_grid(cls):
        """The atoms, two in three of them *w, and 150 seeded sums of them,
        each distinct expression once: 154 of them, 2,772 cases."""
        atoms = cls.W_ATOMS + cls.OTHER_ATOMS
        return cls.grid(dict.fromkeys(map(parse_dil, atoms + seeded_sums(21, atoms, 150, 4))))

    @staticmethod
    def assert_matches(d, gs, variant):
        """Value, eta and xi, or refusal type and message, as the reference
        gives them."""
        gamma = parse_ord(gs)

        def current():
            res = EVALUATORS[variant](d, gamma)
            return res.value, res.eta, res.xi

        want = _answer(lambda: reference_eval(d, gamma, variant))
        assert _answer(current) == want, (variant, to_str(d), gs)

    def test_matches_reference_on_seeded_sums(self):
        for case in self.grid(map(parse_dil, seeded_sums(77, TestStepLog.ATOMS, 12, 6))):
            self.assert_matches(*case)

    def test_matches_reference_on_limit_sums(self):
        for case in self.limit_grid()[::self.GRID_STRIDE]:
            self.assert_matches(*case)

    # the limit grid's J+ cases that ran J to DEPTH_CAP while a head over
    # constants, such as omega_head(0;Const(2)), stayed a CnfHead, which J's
    # constant clause does not key on
    FORMER_DEPTH_CAP = [
        "omega_head(0;Id)*w", "1+omega_head(0;Id)*w", "omega_head(0;Id)*w+Const(w)",
        "omega_head(0;Id)*w+Const(w)+(Id+Id)*w", "omega_head(0;Id)*w+Id+(Id+Id)*w",
        "omega_head(0;Id)*w+(Id+Const(w))*w", "omega_head(0;Id)*w+(Id+1)*w",
        "omega_head(0;Id)*w+(Id+Const(w))*w+omega[Id]*w+omega[Id]*w",
    ]

    def test_former_depth_cap_cases_refuse_at_once(self, monkeypatch):
        cases = [(d, gs, variant) for d, gs, variant in self.limit_grid()
                 if variant == "jplus" and to_str(d) in self.FORMER_DEPTH_CAP]
        assert len(cases) == 48
        checked = differential_limit_sup(monkeypatch)
        for d, gs, variant in cases:
            self.assert_matches(d, gs, variant)
            assert _answer(lambda: jplus_eval(d, parse_ord(gs))) == (
                "OutOfNotation: iterates escalate beyond the epsilon_0 fragment")
        assert checked

    def test_matches_reference_on_a_deep_limit(self):
        # 2,801 guarded steps here against 5,203 peeling ones
        self.assert_matches(parse_dil("Id*w*w*w*w"), "w", "j")


def _session(d, gs, variant):
    """The session of one evaluation, run as EVALUATORS runs it, and its
    answer or refusal as ``type: message``."""
    d, first_cut = _target(d, variant)
    session = _Session(first_cut)
    return session, _answer(lambda: session.eval(d, parse_ord(gs)))


class _NoMulOmega:
    """Patched over ``jfunctor.MulOmega``: no expression is one, so a B*w
    limit walks its members B*k as the other limit shapes do."""


class TestIteratedLimit:
    """A B*w limit samples gamma and the iterates of J(B, .) from it.  By
    the composition clause these are the values of the members B*k, so
    against the member walk only composition and constant steps change."""

    @staticmethod
    def both(monkeypatch, d, gs, variant, depth_cap=10000):
        with monkeypatch.context() as patch:
            patch.setattr(jfunctor_module, "DEPTH_CAP", depth_cap)
            iterated = _session(d, gs, variant)
            patch.setattr(jfunctor_module, "MulOmega", _NoMulOmega)
            return iterated, _session(d, gs, variant)

    def test_only_composition_and_constant_steps_change(self, monkeypatch):
        extra = [(variant, parse_dil(text), gs, None, 10000)
                 for text in ["(1+Id)*w", "(Id+1)*w", "(1+Id+1)*w", "omega[Id]*w",
                              "(Id*w+Id)*w"]
                 for gs in ("0", "w") for variant in EVALUATORS]
        extra += [(variant, MulOmega(Band(D_ID, ZERO, OMEGA, OMEGA)), "w", None, 10000)
                  for variant in ("j", "jprime")]
        for variant, d, gs, _, cap in TestStepLog.grid() + extra:
            (new, answer), (old, old_answer) = self.both(monkeypatch, d, gs, variant, cap)
            assert answer == old_answer and new.calls == old.calls, (variant, to_str(d), gs)
            guarded = [[s for s in session.memo.values()
                        if not isinstance(s.parent, (Const, Sum))] for session in (new, old)]
            assert len(guarded[0]) == len(guarded[1])
            for a, b in zip(*guarded):
                assert (a.parent, a.gamma, a.clause, a.value) == (b.parent, b.gamma, b.clause, b.value)
                if isinstance(a.parent, MulOmega) and a.clause == "limit":
                    base = a.parent.base
                    assert (a.child, b.child) == (base, mk_mul_nat(base, LIMIT_SAMPLES - 1))
                else:
                    assert a.child == b.child
            changed = set(new.memo).symmetric_difference(old.memo)
            assert all(isinstance(e, (Const, Sum)) for e, _ in changed)

    def test_tower_loses_only_its_composition_steps(self, monkeypatch):
        (new, _), (old, _) = self.both(monkeypatch, parse_dil("Id*w*w*w"), "w", "j")
        counts = [collections.Counter(s.clause for s in session.memo.values())
                  for session in (new, old)]
        assert new.calls == old.calls == 400
        assert counts[0] == {"constant": 686, "separation": 343, "limit": 57}
        assert counts[1] == {**counts[0], "composition": 342}
        assert len(new.memo) == 1086 and len(old.memo) == 1428


class TestLinearity:
    @staticmethod
    def cost(monkeypatch, evaluator, n):
        """Steps and mk_sum calls of one evaluation of Id*n at w."""
        d = mk_mul_nat(D_ID, n)
        calls = [0]
        original = expr_module.mk_sum

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(expr_module, "mk_sum", counting)
            patch.setattr(analysis_module, "mk_sum", counting)
            steps = len(evaluator(d, OMEGA).steps)
        return steps, calls[0]

    @pytest.mark.parametrize("evaluator", [j_eval, jprime_eval], ids=["j", "jprime"])
    def test_doubling_the_sum_doubles_the_work(self, monkeypatch, evaluator):
        steps, sums = self.cost(monkeypatch, evaluator, 100)
        steps2, sums2 = self.cost(monkeypatch, evaluator, 200)
        assert steps2 <= 2 * steps + 8
        assert sums2 <= 2 * sums + 8

    def test_long_sum_costs_no_recursion_depth(self):
        # the summands are folded in one frame on the session's own stack,
        # not in Python calls; the sum is ranked in a loop
        res = j_eval(mk_mul_nat(D_ID, 3000), OMEGA)
        assert len(res.steps) == 3 * 3000 + 1
        assert res.value == Ord(((ONE, 3 ** 3000),))


def _depth():
    """The depth of the caller's frame on the Python stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestRecursionLimit:
    """A session keeps its clauses on its own stack, so J answers or refuses
    alike with 120 Python frames to spare and with 20,000."""

    @staticmethod
    def at_limit(call, limit):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            return _answer(call)
        finally:
            sys.setrecursionlimit(old)

    @pytest.mark.parametrize("evaluator,text", [(jplus_eval, "Id*100"),
                                                (jprime_eval, "omega[Id*60]")])
    def test_refusal_needs_no_recursion_depth(self, evaluator, text):
        d = parse_dil(text)
        low = self.at_limit(lambda: evaluator(d, OMEGA), _depth() + 120)
        assert low == self.at_limit(lambda: evaluator(d, OMEGA), 20000)
        assert low.startswith("OutOfNotation: ")

    def test_deep_limit_needs_no_recursion_depth(self):
        d = parse_dil("Id*w*w*w*w")

        def call():
            res = j_eval(d, OMEGA)
            return res.value, res.steps

        low = self.at_limit(call, _depth() + 120)
        assert low == self.at_limit(call, 20000)
        assert ord_str(low[0]) == "w^w^3"


class TestAudit:
    @staticmethod
    def tampered(res, clause, child_of):
        """The result with the child of its last ``clause`` step replaced."""
        steps = list(res.steps)
        i = max(i for i, s in enumerate(steps) if s.clause == clause)
        s = steps[i]
        steps[i] = JStep(s.parent, s.gamma, s.clause, child_of(s), s.value)
        return JResult(res.expr, res.gamma, res.variant, res.value, res.eta, res.xi, tuple(steps))

    def test_composition_edges_may_keep_the_rank(self):
        res = j_eval(parse_dil("1+Id"), OMEGA)
        root = res.steps[-1]
        probe = ord_omega_pow(ord_add(ONE, res.eta))
        assert root.clause == "composition" and root.child == D_ID
        assert otp_symbolic(root.parent, probe) == otp_symbolic(root.child, probe)
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations

    def test_composition_child_must_be_the_last_summand(self):
        # the sum of the summands after the first ranks no higher than the
        # sum, so only the structural check refuses it
        res = j_eval(parse_dil("Id+Id+Id"), OMEGA)
        bad = self.tampered(res, "composition", lambda s: mk_sum_all(s.parent.parts[1:]))
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations
        assert j_guard_report(bad).rank_violations

    def test_separation_child_of_equal_rank_is_caught(self):
        res = j_eval(parse_dil("omega[Id]"), OMEGA)
        bad = self.tampered(res, "separation", lambda s: s.parent)
        assert j_guard_report(bad).rank_violations

    def test_reevaluates_under_the_depth_cap(self, monkeypatch):
        d = parse_dil("Id*w")
        session = _Session(ZERO)
        session.eval(d, OMEGA)
        monkeypatch.setattr(jfunctor_module, "DEPTH_CAP", session.calls)
        res = j_eval(d, OMEGA)
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations
        monkeypatch.setattr(jfunctor_module, "DEPTH_CAP", session.calls - 1)
        with pytest.raises(DepthExceeded):
            j_guard_report(res)

    def test_ranks_each_expression_once_per_eta(self, monkeypatch):
        res = j_eval(parse_dil("Id*w*w"), OMEGA)
        ranked = []
        original = otp_symbolic

        def counting(d, a):
            ranked.append((d, a))
            return original(d, a)

        monkeypatch.setattr(jfunctor_module, "otp_symbolic", counting)
        audit = j_guard_report(res)
        assert audit.value_identical and not audit.rank_violations
        assert audit.steps_checked == 2 * sum(s.child is not None for s in res.steps)
        # one more: the re-evaluation's xi ranks the root at the first eta
        assert len(ranked) == len(set(ranked)) + 1
