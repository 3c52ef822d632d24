import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest

import dilcalc.analysis as analysis_module
import dilcalc.psi as psi_module
from dilcalc.analysis import decompose, enum_trace_terms
from dilcalc.errors import (
    BudgetExceeded,
    DepthExceeded,
    DilcalcError,
    MalformedElement,
    OutOfNotation,
)
from dilcalc.expr import (
    D_ID,
    Band,
    CnfHead,
    Const,
    Dil,
    MulOmega,
    Sep,
    Sum,
    _split_trailing,
    mk_band,
    mk_mul_nat,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import (  # noqa: F401
    LESS,
    LIMIT_SAMPLES,
    OMEGA,
    ONE,
    ZERO,
    Ord,
    from_int,
    ord_add,
    ord_str,
    parse_ord,
)
from dilcalc.psi import (
    IllFoundedFixture,
    PsiOrder,
    PsiSearchHandle,
    chain_search,
    psi_clause_otp,
    psi_enum,
    term_str,
)
from dilcalc.semantics import (
    EnumBudget,
    Left,
    Right,
    _candidates,
    _grid_values,
    _sum_index,
    element_key,
    element_positions,
    element_str,
    enum_elements,
    validate_element,
)
from test_ordinal import sup_of_sequence
from test_semantics import KEYED_EXPRS, ORACLE_BUDGET, _place_key, _refusal, psi_pos_key

# the connected clause's stage count in reference_psi, independent of the
# kernel's LIMIT_SAMPLES
REFERENCE_STAGES = 10
DEFAULT_ENUM_BUDGET = EnumBudget(const_cap=8, copies=2, cnf_len=2, cnf_mult=2, grid=6)

w = OMEGA


def PSI(text, gamma):
    return ord_str(psi_clause_otp(parse_dil(text), parse_ord(gamma)))


class TestClauseValues:
    @pytest.mark.parametrize("alpha", ["0", "1", "2", "3", "w", "w^2"])
    @pytest.mark.parametrize("gamma", ["0", "w"])
    def test_constant(self, alpha, gamma):
        assert PSI(f"Const({alpha})", gamma) == ord_str(parse_ord(alpha))

    def test_sum_of_constants(self):
        assert PSI("Const(2)+Const(3)", "0") == "5"

    def test_sum_clause_recomputed(self):
        first = psi_clause_otp(parse_dil("Const(2)"), ZERO)
        second = psi_clause_otp(parse_dil("Const(3)"), first)
        assert ord_add(first, second) == from_int(5)

    def test_identity(self):
        assert PSI("Id", "w") == "w^2"
        assert PSI("Id", "0") == "0"
        assert PSI("Id", "w^2") == "w^3"

    def test_unit_tail(self):
        assert PSI("Id+1", "w") == "w^2+1"

    def test_two_copies(self):
        assert PSI("Id*2", "w") == "w^3"

    def test_limit_sum_truncations(self):
        values = [psi_clause_otp(parse_dil(f"Id*{n}"), w) for n in range(1, 6)]
        for a, b in zip(values, values[1:]):
            assert a <= b
        assert PSI("Id*w", "w") == "w^w"

    def test_out_of_fragment(self):
        with pytest.raises(OutOfNotation):
            psi_clause_otp(parse_dil("omega[Id]"), ZERO)

    def test_connected_iteration_matches_direct_splits(self):
        # the running cuts of the connected clause equal fixed points of the
        # explicitly built lower splits
        delta = w
        total, step = ZERO, delta
        for _ in range(5):
            hi = ord_add(total, step)
            lower = mk_band(D_ID, total, hi, hi)
            direct = psi_clause_otp(lower, ZERO)
            assert direct == psi_clause_otp(lower, ZERO)
            assert ord_str(direct) == "w"  # each stage contributes omega
            total, step = hi, direct


# ---------------------------------------------------------------------------
# the peeling psi, kept as an independent reference for the prefix clause


def reference_psi(d, gamma):
    """psi as computed before sums were folded by prefix, with a cache of
    its own.  A sum that ends in a constant peels it, psi(r+c) = psi(r)+c;
    any other sum is decomposed whole, so each step re-splits the sum and
    the cost is quadratic in its length.  One budget of 4,000 cache misses,
    constants included, covers the whole recursion.  It never applies the
    prefix clause, so agreement with it is evidence for that clause."""
    cache, budget = {}, [4000]

    def rec(d, gamma):
        key = (d, gamma)
        if key not in cache:
            budget[0] -= 1
            if budget[0] < 0:
                raise DepthExceeded("collapse recursion exceeded its step budget")
            cache[key] = clause(d, gamma)
        return cache[key]

    def clause(d, gamma):
        if isinstance(d, Const):
            return d.value
        rest, last = _split_trailing(d)
        if rest is not None and isinstance(last, Const):
            return ord_add(rec(rest, gamma), last.value)
        dec = decompose(d)
        if dec.kind == "zero":
            return ZERO
        if dec.kind == "succ":
            head = rec(dec.prefix, gamma)
            if isinstance(dec.top, Const):
                return ord_add(head, ONE)
            return ord_add(head, connected(dec.top, ord_add(gamma, head)))
        return sup_of_sequence([rec(dec.fund(k), gamma) for k in range(LIMIT_SAMPLES)])

    def connected(atom, delta):
        total_cut, step, stages = ZERO, delta, []
        for _ in range(REFERENCE_STAGES):
            hi = ord_add(total_cut, step)
            stages.append(rec(mk_band(atom, total_cut, hi, hi), ZERO))
            if stages[-1].is_zero():
                return functools.reduce(ord_add, stages)
            total_cut, step = hi, stages[-1]
        return sup_of_sequence(list(itertools.accumulate(stages, ord_add)))

    return rec(d, gamma)


def spy_limit_sup(monkeypatch):
    """Record each ``(d, samples drawn)`` that psi hands ``_limit_sup``."""
    calls, real = [], psi_module._limit_sup

    def spy(d, sample):
        drawn = []
        calls.append((d, drawn))

        def draw(k):
            drawn.append(sample(k))
            return drawn[-1]

        return real(d, draw)

    monkeypatch.setattr(psi_module, "_limit_sup", spy)
    return calls


def _answer(call):
    try:
        return ord_str(call())
    except DilcalcError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPrefixClause:
    """psi(P + X, gamma) = psi(Const(psi(P, gamma)) + X, gamma), against the
    peeling reference: the same value, or the same refusal and message."""

    # most of the omega_head forms refuse at gamma > 0 (OutOfNotation), so
    # they are few, and a refusal must match too
    ATOMS = ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "Id*2", "Id*w",
             "Id*w*w", "shift(Id*2,w)", "band(omega_head(0;Id);0;2;2)", "omega[Id]",
             "omega_head(0;Id)", "sep(omega_head(Id;Id),w)"]
    GAMMAS = ["0", "1", "w", "w+1", "w^2"]

    def test_matches_reference_on_seeded_sums(self, monkeypatch):
        rng = random.Random(8)
        texts = list(self.ATOMS) + [
            "+".join(rng.choice(self.ATOMS) for _ in range(rng.randint(2, 8)))
            for _ in range(24)
        ]
        for text in texts:
            d = parse_dil(text)
            for gs in self.GAMMAS:
                gamma = parse_ord(gs)
                # a cold cache, as the reference has: cache hits cost no budget
                monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
                want = _answer(lambda: reference_psi(d, gamma))
                assert _answer(lambda: psi_clause_otp(d, gamma)) == want, (to_str(d), gs)

    @staticmethod
    def misses(monkeypatch, n):
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
        psi_clause_otp(mk_mul_nat(D_ID, n), w)
        return len(psi_module._PSI_CACHE)

    def test_doubling_the_sum_doubles_the_work(self, monkeypatch):
        assert self.misses(monkeypatch, 200) <= 2 * self.misses(monkeypatch, 100) + 8

    def test_long_sum_costs_no_recursion_depth(self, default_recursion_limit):
        # the peeling psi refused from Id*2000 on: one budget covered the sum
        value = psi_clause_otp(mk_mul_nat(D_ID, 3000), w)
        assert value == Ord(((from_int(3001), 1),))

    def test_each_summand_step_has_its_own_budget(self, monkeypatch):
        # each step takes about 2,200 misses, more than half of one budget
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
        assert PSI("Id*w*w*3*w+Id*w*w*3*w", "w") == "w^(w^3*2)"

    def test_a_sum_inside_a_recursion_shares_its_budget(self, monkeypatch):
        # the sums Id*w^5*k of the limit samples fold within the one budget
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
        with pytest.raises(DepthExceeded):
            psi_clause_otp(parse_dil("Id*w*w*w*w*w*w"), w)

    @pytest.mark.parametrize("text", ["Id*w*w*w*w", "Id+Id*w*w*w*w"])
    def test_a_refusal_leaves_the_cache_as_it_was(self, monkeypatch, text):
        # Id*w^4 takes about 5,200 misses; when a refusal kept its 4,000,
        # the second call answered.  A refused sum also forgets the summand
        # steps before the one that refused.
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
        psi_clause_otp(D_ID, ONE)
        before = dict(psi_module._PSI_CACHE)
        for _ in range(2):
            with pytest.raises(DepthExceeded):
                psi_clause_otp(parse_dil(text), w)
            assert psi_module._PSI_CACHE == before


class TestTermOrder:
    def test_constant_enumeration_exact(self):
        order = PsiOrder(parse_dil("Const(3)"), ZERO)
        terms = order.enum(2)
        assert terms == [ZERO, ONE, from_int(2)]

    def test_empty_when_no_seed(self):
        assert PsiOrder(D_ID, ZERO).enum(3) == []

    def test_nested_chain(self):
        order = PsiOrder(D_ID, ONE)
        assert len(order.enum(3)) == 4
        terms = order.enum(10)
        assert len(terms) == 11
        for a, b in itertools.combinations(terms, 2):
            assert order.compare(a, b) == -1

    def test_validity(self):
        order = PsiOrder(D_ID, ONE)
        base = Left(ZERO)
        assert order.valid(base)
        assert order.valid(Right(base))
        assert not order.valid(Left(ONE))

    def test_subterm_positions_must_descend(self):
        order = PsiOrder(parse_dil("omega[Id]"), ZERO)
        empty = ()
        assert order.valid(empty)
        small = ((Right(empty), 1),)
        assert order.valid(small)
        big = ((Right(small), 1),)
        assert order.valid(big)
        # exponents listed in ascending order are rejected
        assert not order.valid(((Right(empty), 1), (Right(small), 1)))

    def test_comparison_examples(self):
        order = PsiOrder(parse_dil("Const(3)"), ZERO)
        assert order.compare(ZERO, from_int(2)) == -1
        o1 = PsiOrder(D_ID, ONE)
        t0 = Left(ZERO)
        t1 = Right(t0)
        assert o1.compare(t0, t1) == -1
        assert o1.compare(t1, t1) == 0

    def test_enum_independent_of_point_order(self):
        # each enumeration round lists candidates over the terms known so far;
        # the sorted candidates must not depend on the order of those terms
        budget = DEFAULT_ENUM_BUDGET
        for text, gamma in [("omega[Id]", "0"), ("Id", "2"), ("Id+1", "1")]:
            order = PsiOrder(parse_dil(text), parse_ord(gamma))
            lefts = _grid_values(order.gamma, budget.grid)
            for depth in (1, 2):
                known = order.enum(depth)
                assert len(known) > 1
                forward, backward = (
                    psi_candidates(order, points, budget, lefts)
                    for points in (known, known[::-1])
                )
                assert forward == backward

    def test_structurally_wrong_term_is_invalid(self):
        assert PsiOrder(D_ID, ONE).valid(ZERO) is False
        assert PsiOrder(parse_dil("omega[Id]"), ZERO).valid(Left(ZERO)) is False

    @pytest.mark.parametrize("term", [
        (Right(()),), ((Right(()), 1, 1),), ((Right(()), "a"),), ((Right(()), 1.5),),
    ], ids=["bare-position", "triple", "str-multiplicity", "float-multiplicity"])
    def test_malformed_formal_sum_entries_are_invalid(self, term):
        # each entry of a formal sum is an (exponent, int multiplicity >= 1) pair
        order = PsiOrder(parse_dil("omega[Id]"), ONE)
        with pytest.raises(MalformedElement, match="^bad formal-sum entry"):
            validate_element(order.dilator, term, order.pos_cmp)
        assert order.valid(term) is False
        assert order.valid(((Right(()), 1),)) is True

    def test_trichotomy_and_transitivity(self):
        order = PsiOrder(parse_dil("omega[Id]"), ZERO)
        terms = order.enum(2)[:12]
        for a, b in itertools.combinations(terms, 2):
            assert order.compare(a, b) != 0
        for a, b, c in itertools.combinations(terms, 3):
            if order.compare(a, b) == -1 and order.compare(b, c) == -1:
                assert order.compare(a, c) == -1

    def test_freeness_surrogate(self):
        # every budgeted element whose sub-terms are valid and below it is
        # itself a term of the enumeration
        from dilcalc.semantics import EnumBudget, element_positions

        order = PsiOrder(parse_dil("omega[Id]"), ZERO)
        terms = order.enum(2)
        universe = set(terms)
        budget = EnumBudget(const_cap=4, copies=2, cnf_len=2, cnf_mult=2, grid=2)
        candidates, _ = psi_candidates(order, terms[:4], budget)
        for cand in candidates:
            if order.valid(cand):
                subs = [p.point for p in element_positions(order.dilator, cand) if isinstance(p, Right)]
                if all(s in universe for s in subs) and len(subs) <= 1:
                    nested = max((_depth(order, s) for s in subs), default=-1) + 1
                    if nested <= 2:
                        assert cand in universe

    def test_budget_overflow_raises(self, monkeypatch):
        from dilcalc.errors import BudgetExceeded
        from dilcalc.semantics import EnumBudget

        monkeypatch.setattr(psi_module, "ENUM_BUDGET", EnumBudget(max_count=2, const_cap=8))
        order = PsiOrder(parse_dil("Const(w)"), ZERO)
        with pytest.raises(BudgetExceeded):
            order.enum(3)

    def test_counts_match_clause_values(self):
        order = PsiOrder(parse_dil("Const(3)"), ZERO)
        assert from_int(len(order.enum(2))) == psi_clause_otp(parse_dil("Const(3)"), ZERO)

    def test_prefix_embeds_into_computed_order_type(self):
        # rank map for the identity collapse at omega: nesting k at offset v
        # lands at w*k+v, strictly below the clause value w^2
        from dilcalc.ordinal import OMEGA, ord_add, ord_mul_nat

        order = PsiOrder(D_ID, OMEGA)
        value = psi_clause_otp(D_ID, OMEGA)

        def rank(t):
            if isinstance(t, Left):
                return t.value
            return ord_add(ord_mul_nat(OMEGA, 1), rank(t.point))

        terms = order.enum(3)
        ranks = [rank(t) for t in terms]
        for r in ranks:
            assert r < value
        for (t1, r1), (t2, r2) in itertools.combinations(zip(terms, ranks), 2):
            assert order.compare(t1, t2) == (-1 if r1 < r2 else 1)

    def test_stage_values_match_direct_splits(self, monkeypatch):
        # psi(Id, w) is the connected clause at delta = w: each stage is w
        monkeypatch.setattr(analysis_module, "LIMIT_SAMPLES", 5)
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})
        calls = spy_limit_sup(monkeypatch)
        assert psi_clause_otp(D_ID, w) == parse_ord("w^2")
        partials = [parse_ord(f"w*{k}") for k in range(1, 6)]
        assert calls == [(D_ID, partials)]
        total = ZERO
        for hi in partials:
            assert psi_clause_otp(mk_band(D_ID, total, hi, hi), ZERO) == w
            total = hi

    def test_term_rendering(self):
        order = PsiOrder(D_ID, ONE)
        t0 = Left(ZERO)
        assert term_str(order, Right(t0)) == "[0]"

    def test_the_empty_formal_sum_is_a_term(self):
        # () is falsy: the term services must read it as the empty sum
        order = PsiOrder(parse_dil("omega[Id]"), ZERO)
        t = order.random_term(random.Random(1))
        assert t == () and order.valid(t)
        terms = order.enum(1)
        assert terms[0] == () and all(order.compare((), u) == -1 for u in terms[1:])
        assert term_str(order, t) == "0"
        assert term_str(order, terms[1]) == "w^{[0]}"


def psi_candidates(order, terms, budget, lefts=()):
    """``_candidates`` over the terms, sorted by the order's position key,
    and the frozen values ``lefts``."""
    key = psi_pos_key(order)
    return _candidates(order.dilator, sorted(terms, key=lambda t: key(Right(t))), budget, lefts)


def reference_enum(order, depth=2, budget=None):
    """The enumeration as it was before levels were ranked: every
    candidate of every level is sorted, deduplicated against all accepted
    terms and checked by the recursive ``PsiOrder.valid``."""
    budget = budget or DEFAULT_ENUM_BUDGET
    lefts = _grid_values(order.gamma, budget.grid)
    known: list = []
    seen = set()
    for _level in range(depth + 1):
        fresh = []
        for cand in psi_candidates(order, known, budget, lefts)[0]:
            if cand in seen:
                continue
            if order.valid(cand):
                seen.add(cand)
                fresh.append(cand)
        if not fresh:
            break
        known.extend(fresh)
        if len(known) > budget.max_count:
            raise BudgetExceeded("term universe exceeds the budget")
    return sorted(known, key=functools.cmp_to_key(order.compare))


def _enum_outcome(enumerate_terms, order, *args):
    try:
        return [term_str(order, t) for t in enumerate_terms(order, *args)]
    except DilcalcError as exc:
        return (type(exc).__name__, str(exc))


RANKED_ENUM_EXPRS = ["Const(3)", "Id", "Id*2", "Id+1", "omega[Id]", "omega[Id]+Id",
                     "Const(w)+Id", "omega_head(0;Id)", "sep(omega_head(Id;Id),2)",
                     "band(omega_head(Id;Id);0;2;2)"]
# at the default budget these redo depth 2 (0.1-0.3 s in the reference)
# before depth 3 overflows the formal-sum budget; they stop at depth 2
DEPTH_2_ONLY = {("omega[Id]", "1"), ("omega[Id]+Id", "1"), ("omega_head(0;Id)", "1")}


class TestRankedEnumeration:
    """``PsiOrder.enum`` keys each accepted term once; it must list the same
    terms in the same order, or refuse with the same error, as the reference."""

    @pytest.mark.parametrize("budget", [None, EnumBudget(max_count=300)], ids=["default", "cap300"])
    @pytest.mark.parametrize("gamma", ["0", "1", "w"])
    @pytest.mark.parametrize("text", RANKED_ENUM_EXPRS)
    def test_same_terms_as_reference(self, text, gamma, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(psi_module, "ENUM_BUDGET", budget)
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        deepest = 2 if budget is None and (text, gamma) in DEPTH_2_ONLY else 3
        for depth in range(deepest + 1):
            assert _enum_outcome(PsiOrder.enum, order, depth) == _enum_outcome(
                reference_enum, order, depth, budget
            ), (text, gamma, depth)

    @pytest.mark.parametrize("gamma", ["0", "1", "w"])
    @pytest.mark.parametrize("text", RANKED_ENUM_EXPRS)
    def test_candidates_are_well_formed(self, text, gamma):
        # PsiOrder.enum admits candidates without validate_element: every
        # element _candidates builds over known terms must pass it
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        budget = psi_module.ENUM_BUDGET
        lefts = _grid_values(order.gamma, budget.grid)
        for depth in range(3):
            try:
                cands, _ = _candidates(order.dilator, order.enum(depth), budget, lefts)
            except BudgetExceeded:
                continue
            for t in cands:
                validate_element(order.dilator, t, order.pos_cmp)

    @pytest.mark.parametrize("gamma", ["0", "1", "w"])
    @pytest.mark.parametrize("text", RANKED_ENUM_EXPRS)
    def test_terms_ascend_and_are_valid(self, text, gamma):
        # independent of any key: adjacent terms ascend under compare, and
        # every term passes the recursive valid, which enum does not run
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        for depth in range(3):
            try:
                terms = order.enum(depth)
            except BudgetExceeded:
                continue
            for a, b in zip(terms, terms[1:]):
                assert order.compare(a, b) == LESS, (text, gamma, depth)
            for t in terms:
                assert order.valid(t), (text, gamma, depth)

    # the four benchmark enumerations at depth 2: count and sha1 of the
    # rendered terms, one per line, taken before levels were ranked
    @pytest.mark.parametrize(
        "text,gamma,count,digest",
        [
            ("omega[Id]+Id", "1", 2352, "9aa7745b53b6d8af5a071f14540e0d6feb115d89"),
            ("omega[Id]", "0", 19, "02df1787c7746038b505d096f02df14f28314abc"),
            ("Id*2", "w", 54, "5c88f574f48168b1819ee0acbdf2a4341e195426"),
            ("Const(w)+Id", "w^2", 42, "3508c81162741a22755d146c3f9cb40c0ea5b76d"),
        ],
    )
    def test_benchmark_enumerations_pinned(self, text, gamma, count, digest):
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        terms = psi_enum(order, 2)
        rendered = "\n".join(term_str(order, t) for t in terms)
        assert len(terms) == count
        assert hashlib.sha1(rendered.encode()).hexdigest() == digest


class TestOrderedCandidates:
    """The candidates ``PsiOrder.enum`` reads come out ascending under
    ``compare``, each point keyed by its rank among the known terms, and
    the enumeration refuses at the reference's caps with its messages."""

    @pytest.mark.parametrize("gamma", ["0", "1", "w"])
    @pytest.mark.parametrize("text", RANKED_ENUM_EXPRS)
    def test_candidates_ascend_under_compare(self, text, gamma):
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        lefts = _grid_values(order.gamma, DEFAULT_ENUM_BUDGET.grid)
        # over the terms of depth 1, else of depth 0, else over no term
        for known in (lambda: order.enum(1), lambda: order.enum(0), list):
            try:
                terms = known()
                cands, positions = _candidates(order.dilator, terms, DEFAULT_ENUM_BUDGET, lefts)
                break
            except BudgetExceeded:
                continue
        key = psi_pos_key(order)
        assert cands == sorted(cands, key=lambda t: element_key(order.dilator, t, key))
        assert all(order.compare(a, b) == LESS for a, b in zip(cands, cands[1:]))
        assert positions == [tuple(_place_key(terms, p) for p in element_positions(order.dilator, t))
                             for t in cands]

    def test_refusals_at_the_reference_caps(self, monkeypatch):
        refusals = set()
        for cap in (1, 5, 20, 60, 150):
            budget = EnumBudget(max_count=cap, const_cap=8, copies=2, cnf_len=2, cnf_mult=2,
                                grid=6)
            monkeypatch.setattr(psi_module, "ENUM_BUDGET", budget)
            for text, gamma in [("omega[Id]+Id", "1"), ("omega_head(0;Id)", "1"),
                                ("band(omega_head(Id;Id);0;2;2)", "1"), ("Id*2", "w")]:
                order = PsiOrder(parse_dil(text), parse_ord(gamma))
                for depth in range(3):
                    got = _enum_outcome(PsiOrder.enum, order, depth)
                    assert got == _enum_outcome(reference_enum, order, depth, budget), (
                        text, cap, depth)
                    if isinstance(got, tuple):
                        refusals.add(got[1].split()[-1] if "cap" in got[1] else got[1])
        assert refusals == {"formal-sum budget overflow", "1", "5", "20", "60"}


class TestHeadDilator:
    """Collapse orders over an internal head, pinned before its formal-sum
    rules were shared with omega[...]; they reach the sampler's ordering of
    a head's exponents."""

    def test_random_terms_pinned(self, monkeypatch):
        monkeypatch.setattr(psi_module, "RANDOM_DEPTH", 2)
        order = PsiOrder(parse_dil("omega_head(Id;Id)"), OMEGA)
        rng = random.Random(5)
        drawn = [order.random_term(rng) for _ in range(8)]
        assert [term_str(order, t) for t in drawn] == [
            "w^{r:[w^{r:[w^{r:10}]}]}*2+w^{l:3}",
            "w^{r:3}*2",
            "w^{r:[w^{r:11}]}+w^{r:[w^{r:6}*2+w^{l:1}*2]}*2",
            "w^{r:4}*2",
            "w^{r:7}*2+w^{r:0}*2",
            "w^{r:6}*2",
            "w^{r:[w^{r:5}*2]}+w^{l:[w^{r:8}*2]}*2",
            "w^{r:[w^{r:5}*2]}*2+w^{l:2}*2",
        ]

    def test_enumeration_pinned(self):
        order = PsiOrder(parse_dil("omega_head(1;Id)"), ONE)
        terms = psi_enum(order, 1)
        assert len(terms) == 126
        assert [term_str(order, t) for t in terms[:10]] == [
            "w^{r:0}",
            "w^{r:0}+w^{l:c[0]}",
            "w^{r:0}+w^{l:c[0]}*2",
            "w^{r:0}*2",
            "w^{r:0}*2+w^{l:c[0]}",
            "w^{r:0}*2+w^{l:c[0]}*2",
            "w^{r:[w^{r:0}]}",
            "w^{r:[w^{r:0}]}+w^{l:c[0]}",
            "w^{r:[w^{r:0}]}+w^{l:c[0]}*2",
            "w^{r:[w^{r:0}]}+w^{r:0}",
        ]


def _depth(order, t):
    from dilcalc.semantics import element_positions

    subs = [p.point for p in element_positions(order.dilator, t) if isinstance(p, Right)]
    return 0 if not subs else 1 + max(_depth(order, s) for s in subs)


class TestSearch:
    def test_fixture_finds_descent(self):
        res = chain_search(IllFoundedFixture(), 50, 30, seed=3)
        assert res.found and len(res.chain) == 30

    def test_finite_order_has_no_long_chain(self):
        order = PsiOrder(parse_dil("Const(5)"), ZERO)
        res = chain_search(PsiSearchHandle(order), 300, 30, seed=3)
        assert not res.found

    # the repetition, separation / band, sum and head branches of the sampler
    @pytest.mark.parametrize(
        "text,gamma,kind",
        [("Id*w", "w", MulOmega), ("omega[Id]*w", "1", MulOmega),
         ("sep(omega_head(Id;Id),w)", "1", Sep), ("band(omega_head(Id;Id);0;w;w)", "1", Band),
         ("Id*2", "w", Sum), ("Const(w)+Id", "w^2", Sum), ("Id+1+Id", "w", Sum),
         # a summand with no draw at depth 0 (no frozen position below 0)
         ("Id+1", "0", Sum),
         # a head over Const(0): an empty constant pool, so a head keeps its lead alone
         ("omega_head(0;Id)", "w", CnfHead)],
    )
    def test_random_terms_of_repetitions_and_filtered_nodes(self, text, gamma, kind):
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        assert isinstance(order.dilator, kind)
        rng = random.Random(7)
        for _ in range(30):
            t = order.random_term(rng)
            assert t is not None and order.valid(t), text
        assert chain_search(PsiSearchHandle(order), 20, 30, 5).summary == "NoneFound"

    @pytest.mark.parametrize("text,gamma", [("0", "w"), ("Id*2", "0")])
    def test_orders_without_terms_draw_none(self, text, gamma):
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        assert order.random_term(random.Random(1)) is None

    def test_a_node_without_a_sampling_rule_is_refused(self):
        class Opaque(Dil):
            pass

        with pytest.raises(MalformedElement, match="no sampling rule"):
            PsiOrder(Opaque(), ZERO).random_term(random.Random(1))

    def test_random_sum_draws_every_summand(self):
        # one index per sum reaches every summand alike; a side drawn per
        # binary level reached summand i at rate 2^-(i+1)
        order = PsiOrder(parse_dil("Id*8"), OMEGA)
        rng = random.Random(1)
        counts = Counter(_sum_index(8, order.random_term(rng))[0] for _ in range(400))
        assert min(counts[i] for i in range(8)) >= 25, counts

    def test_random_sum_terms_pinned(self, monkeypatch):
        # the sampler draws one summand index per sum, for two parts the bits
        # of one rng.randint(0, 1)
        monkeypatch.setattr(psi_module, "RANDOM_DEPTH", 2)
        order = PsiOrder(parse_dil("Id*2"), OMEGA)
        rng = random.Random(5)
        drawn = [order.random_term(rng) for _ in range(8)]
        assert [term_str(order, t) for t in drawn] == [
            "r:[l:[l:10]]", "l:[l:3]", "r:9", "l:3", "r:6", "l:[l:9]", "r:0", "l:3",
        ]

    # the collapse-fuzz orders, then the orders above and a head, then orders
    # at gamma 0 whose sum part or head exponent can place a sub-term and then
    # dead-end (a second omega exponent drawn at depth 0)
    DRAW_ORDERS = [("omega[Id]", "0"), ("Id", "w"), ("Id*2", "w"), ("Const(w)+Id", "w^2"),
                   ("Id*w", "w"), ("omega[Id]*w", "1"), ("sep(omega_head(Id;Id),w)", "1"),
                   ("band(omega_head(Id;Id);0;w;w)", "1"), ("Id+1+Id", "w"),
                   ("omega_head(Id;Id)", "w"), ("omega[Id]+Id", "0"), ("omega[Id]*2", "0"),
                   ("omega_head(Id;omega[Id])+Id", "0")]

    @staticmethod
    def raw_draws(order, seed, count):
        """``count`` raw draws ``(term, placed)``, as ``random_term`` makes
        them, before any check."""
        rng, out = random.Random(seed), []
        while len(out) < count:
            try:
                out.append(order._draw(rng))
            except psi_module._DeadEnd:
                pass
        return out

    @staticmethod
    def reference_valid(order, t):
        """Validity checked in one walk: structure, then each position (a
        frozen one below gamma, a sub-term valid and below ``t``)."""
        try:
            validate_element(order.dilator, t, order.pos_cmp)
        except MalformedElement:
            return False
        return all(p.value < order.gamma if isinstance(p, Left)
                   else TestSearch.reference_valid(order, p.point)
                   and order.compare(p.point, t) == LESS
                   for p in element_positions(order.dilator, t))

    @staticmethod
    def well_formed(order, t):
        """Structure alone: a well-formed element whose frozen positions lie
        below gamma, and whose sub-terms are well formed, recursively."""
        try:
            validate_element(order.dilator, t, order.pos_cmp)
        except MalformedElement:
            return False
        return all(p.value < order.gamma if isinstance(p, Left)
                   else TestSearch.well_formed(order, p.point)
                   for p in element_positions(order.dilator, t))

    @pytest.mark.parametrize("text,gamma", DRAW_ORDERS)
    def test_draws_need_only_the_descent_check(self, text, gamma):
        # the sampler builds well-formed terms, so the descent check on a
        # draw's records accepts it exactly when valid does
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        for t, placed in self.raw_draws(order, 3, 300):
            assert self.well_formed(order, t), term_str(order, t)
            ok = self.reference_valid(order, t)
            assert order._placed_descend(t, placed) == order.valid(t) == ok, term_str(order, t)

    @staticmethod
    def assert_placed(order, t, placed):
        """``placed`` holds exactly the sub-terms at the live positions of
        ``t`` (the objects themselves, so as a multiset), each with its own
        records, recursively."""
        subs = [p.point for p in element_positions(order.dilator, t) if p.__class__ is Right]
        assert Counter(map(id, subs)) == Counter(id(s) for s, _ in placed), term_str(order, t)
        for s, below in placed:
            TestSearch.assert_placed(order, s, below)

    @pytest.mark.parametrize("text,gamma", DRAW_ORDERS)
    def test_draws_record_their_sub_terms(self, text, gamma):
        # the descent check on a draw's records decides as valid does
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        for t, placed in self.raw_draws(order, 3, 300):
            self.assert_placed(order, t, placed)
            assert order._placed_descend(t, placed) == order.valid(t), term_str(order, t)

    def test_the_sampler_is_not_a_field(self):
        order, fresh = PsiOrder(D_ID, OMEGA), PsiOrder(D_ID, OMEGA)
        assert order.random_term(random.Random(1)) is not None
        assert "_sampler" in vars(order) and "_sampler" not in vars(fresh)
        assert (order == fresh, hash(order), repr(order)) == (True, hash(fresh), repr(fresh))
        assert repr(order) == "PsiOrder(dilator=IdNode(), gamma=Ord('w'))"

    def test_pool_draws_read_the_rng_as_choice(self):
        # a constant's pool draw (its grid: every value below a finite bound)
        # reads the stream choice reads; n runs over each 2^k and 2^k + 1 up
        # to 65
        for seed in range(10):
            for n in range(1, 71):
                ours, ref = random.Random(seed), random.Random(seed)
                order = PsiOrder(Const(from_int(n)), ZERO)
                pool = _grid_values(from_int(n), 6)
                assert len(pool) == n
                assert ([order._draw(ours)[0] for _ in range(20)]
                        == [ref.choice(pool) for _ in range(20)]), (seed, n)
                assert ours.random() == ref.random()

    # sha1 of term_str over 300 random_term draws at seed 3 ("-" for None):
    # a sum part or head exponent that dead-ends after placing a sub-term
    # leaves no record behind, so these match the draws of the walk-based
    # descent check
    @pytest.mark.parametrize("text,digest", [
        ("omega[Id]+Id", "ed3b85ff50a1db757993f9a74d8d918fb3396060"),
        ("omega[Id]*2", "2b899874a7a777183589afd6404fdd70ba49432e"),
        ("omega_head(Id;omega[Id])+Id", "ed038a9a7701d2a3947a7c0c887c7f02279958e1"),
    ])
    def test_dead_ended_draws_pinned(self, text, digest):
        order, rng = PsiOrder(parse_dil(text), ZERO), random.Random(3)
        drawn = [order.random_term(rng) for _ in range(300)]
        rendered = "\n".join("-" if t is None else term_str(order, t) for t in drawn)
        assert hashlib.sha1(rendered.encode()).hexdigest() == digest

    def test_some_draws_fail_the_descent_check(self):
        order = PsiOrder(parse_dil("Id*2"), OMEGA)
        draws = self.raw_draws(order, 3, 300)
        assert any(not order._placed_descend(t, placed) for t, placed in draws)
        assert not all(order.valid(t) for t, _ in draws)

    # sha1 of term_str over every draw of chain_search(handle, 20, 30, seed=1)
    # ("-" for None), with the draw count, for each collapse-fuzz order
    @pytest.mark.parametrize("text,gamma,draws,digest", [
        ("omega[Id]", "0", 108, "691572ff17967785f9d3a0e74846089c7bfde959"),
        ("Id", "w", 181, "2530a1e60e331c89377d30c946b82f7efacebc5f"),
        ("Id*2", "w", 155, "32e7eb55aba9dd96b8e977507af4d4390665e308"),
        ("Const(w)+Id", "w^2", 130, "4eb1819e2a7f960177eb7c9d06d147c37cdb235a"),
    ])
    def test_chain_search_draws_pinned(self, text, gamma, draws, digest):
        order, drawn = PsiOrder(parse_dil(text), parse_ord(gamma)), []

        class DrawLog(PsiSearchHandle):
            def random_element(self, rng):
                drawn.append(super().random_element(rng))
                return drawn[-1]

        res = chain_search(DrawLog(order), 20, 30, 1)
        assert (res.summary, res.trials) == ("NoneFound", 20)
        rendered = "\n".join("-" if t is None else term_str(order, t) for t in drawn)
        assert (len(drawn), hashlib.sha1(rendered.encode()).hexdigest()) == (draws, digest)

    def test_collapse_orders_resist_descent(self):
        for text, gamma in [("omega[Id]", "0"), ("Id", "w")]:
            handle = PsiSearchHandle(PsiOrder(parse_dil(text), parse_ord(gamma)))
            res = chain_search(handle, 1500, 30, seed=11)
            assert not res.found, text


# ---------------------------------------------------------------------------
# the enumerators' outputs, pinned

DIGEST_TRACE_EXPRS = ["Id", "Id+1", "Id*w", "omega[Id]", "omega[Id]+Id", "omega_head(0;Id)",
                      "omega_head(Id;Id)", "omega_head(1;omega_head(0;Id))"]


def _enumeration_lines():
    """One line per enumeration, its rendered output or its refusal: the
    collapse orders at gamma 1 and w, depths 0-3; the trace terms up to
    arity 3 at caps 10, 100 and 4,000; the elements over 0-3 points."""
    lines = []

    def add(call, render):
        got = _refusal(call)
        lines.append(" ".join(map(render, got)) if isinstance(got, list) else ": ".join(got))

    for text, gamma in itertools.product(RANKED_ENUM_EXPRS, ("1", "w")):
        order = PsiOrder(parse_dil(text), parse_ord(gamma))
        for depth in range(4):
            add(lambda: order.enum(depth), lambda t: term_str(order, t))
    for text in DIGEST_TRACE_EXPRS:
        d = parse_dil(text)
        for cap in (10, 100, 4000):
            budget = EnumBudget(max_count=cap, const_cap=3, copies=2, cnf_len=2, cnf_mult=2,
                                grid=3)
            add(lambda: enum_trace_terms(d, 3, budget), lambda tn: f"{element_str(d, tn[0])}/{tn[1]}")
    for text in KEYED_EXPRS:
        d = parse_dil(text)
        for n in range(4):
            add(lambda: enum_elements(d, n, ORACLE_BUDGET), lambda e: element_str(d, e))
    return lines


def test_enumeration_digest_pinned():
    # taken before points were keyed by their place in the list
    lines = _enumeration_lines()
    assert len(lines) == 176 and sum(map(len, lines)) == 398711
    assert sum(line.startswith("BudgetExceeded") for line in lines) == 27
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "a70d598789bb3b3b92205e5223f14e033a672cf5"
