import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilcalc.analysis import (
    EQUIVALENT,
    MUCH_LESS,
    _embeddings,
    classify,
    components,
    decompose,
    enum_trace_terms,
    important_index,
    ll_relation,
    otp_symbolic,
    sep,
    sep_signed,
    sep_signed_iter,
    shift,
)
from dilcalc.coherence import limit_prefix_inject, prefix_inject, top_inject
from dilcalc.errors import NoUniqueIndex, NotConnected, NotTypeOmega
from dilcalc.expr import (
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    D_ZERO,
    Sep,
    is_connected_atom,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import EQUAL, GREATER, LESS, OMEGA, ONE, ZERO, from_int, ord_str, parse_ord
from dilcalc.semantics import (
    ECnf,
    EConst,
    EId,
    ESum,
    EnumBudget,
    Right,
    apply_embedding,
    compare_elements,
    enum_elements,
    prefix_elements,
    support_of,
)

w = OMEGA
H0 = CnfHead(D_ZERO, D_ID)
HID = CnfHead(D_ID, D_ID)


class TestDecompose:
    def test_zero(self):
        assert components(parse_dil("0")) == []

    def test_units(self):
        assert components(parse_dil("Const(3)")) == [D_ONE, D_ONE, D_ONE]

    def test_omega_comp_head(self):
        assert components(parse_dil("omega[Id]")) == [D_ONE, H0]

    def test_omega_comp_composite(self):
        comps = components(parse_dil("omega[Id*2]"))
        assert comps == [D_ONE, H0, HID]

    def test_soundness_on_prefixes(self):
        # rebuilt pieces match the expression's own stream exactly
        for text in ["Const(6)", "Id+1", "Id*2", "omega[Id]", "omega[Id*2]"]:
            d = parse_dil(text)
            dec = decompose(d)
            target = prefix_elements(d, 2, 60)
            if dec.kind == "succ":
                images = [prefix_inject(d, e) for e in prefix_elements(dec.prefix, 2, 60)]
                if len(images) < 60:
                    images += [
                        top_inject(d, e)
                        for e in prefix_elements(dec.top, 2, 60 - len(images))
                    ]
                assert images == target[: len(images)], text

    def test_limit_prefixes_are_initial_segments(self):
        for text in ["Const(w)", "Id*w", "omega[Id+1]"]:
            d = parse_dil(text)
            dec = decompose(d)
            assert dec.kind == "limit"
            target = prefix_elements(d, 2, 50)
            for j in (1, 3):
                images = [
                    limit_prefix_inject(d, j, e)
                    for e in prefix_elements(dec.fund(j), 2, 50)
                ]
                assert images == target[: len(images)], (text, j)


class TestClassify:
    def test_zero(self):
        assert classify(parse_dil("0")).kind == "0"

    def test_successor(self):
        tc = classify(parse_dil("Id+1"))
        assert tc.kind == "1" and tc.pred == D_ID

    def test_limit_with_fundamental_sequence(self):
        tc = classify(parse_dil("1*w"))
        assert tc.kind == "omega"
        assert to_str(tc.fund_seq(3)) == "Const(3)"

    def test_top_type(self):
        tc = classify(D_ID)
        assert tc.kind == "Omega"
        assert to_str(tc.sep_fn(w)) == "Const(w)"


class TestSep:
    def test_identity(self):
        assert to_str(sep(D_ID, w)) == "Const(w)"

    def test_sum_rule(self):
        assert to_str(sep(parse_dil("Id+Id"), w)) == "Id+Const(w)"

    def test_head_at_zero(self):
        assert to_str(sep(parse_dil("omega[Id]"), ZERO)) == "1"

    def test_head_at_omega(self):
        assert to_str(sep(parse_dil("omega[Id]"), w)) == "Const(w^w)"

    def test_not_top_type(self):
        with pytest.raises(NotTypeOmega):
            sep(parse_dil("Id+1"), w)

    def test_composite_head_stays_symbolic(self):
        result = sep(parse_dil("omega[Id*2]"), w)
        assert "sep(omega_head(Id;Id),w)" in to_str(result)

    def test_monotone_inclusion_on_prefixes(self):
        # smaller cuts embed into larger ones as initial segments
        for small, large in [(from_int(2), from_int(5)), (from_int(3), w)]:
            lo = sep(D_ID, small)
            hi = sep(D_ID, large)
            a = prefix_elements(lo, 1, 10)
            b = prefix_elements(hi, 1, 10)
            assert a == b[: len(a)]
        lo = sep(parse_dil("omega[Id*2]"), from_int(1))
        hi = sep(parse_dil("omega[Id*2]"), w)
        a = prefix_elements(lo, 1, 30)
        b = prefix_elements(hi, 1, 30)
        assert a == b[: len(a)]


class TestShift:
    def test_fixed_points(self):
        assert shift(parse_dil("0"), w) == D_ZERO
        assert shift(parse_dil("Const(5)"), w) == Const(from_int(5))

    def test_identity_rule(self):
        assert to_str(shift(D_ID, w)) == "Const(w)+Id"

    def test_prefix_isomorphism(self):
        # Id over w+X agrees with the rewritten form on prefixes
        target = shift(D_ID, w)
        elems = prefix_elements(target, 2, 12)
        assert [to_str(target)] == ["Const(w)+Id"]
        assert len(elems) == 12


class TestSepSigned:
    def test_identity_at_zero(self):
        assert sep_signed(D_ID, ZERO) == (D_ZERO, D_ID)

    def test_identity_at_omega(self):
        minus, plus = sep_signed(D_ID, w)
        assert to_str(minus) == "Const(w)" and plus == D_ID

    def test_head_at_one(self):
        minus, plus = sep_signed(H0, ONE)
        assert to_str(minus) == "Const(w)"
        assert to_str(plus) == "omega_head(1;Id)"

    def test_requires_connected(self):
        with pytest.raises(NotConnected):
            sep_signed(parse_dil("Id+Id"), w)

    def test_iterated_fold_collapses_upper_part(self):
        minuses, plus = sep_signed_iter(H0, [from_int(1), from_int(2)])
        assert len(minuses) == 2
        assert to_str(plus) == "omega_head(Const(3);Id)"


class TestOtp:
    @pytest.mark.parametrize(
        "text,arg,expected",
        [
            ("Const(w^2)", "w", "w^2"),
            ("Id+1", "w", "w+1"),
            ("omega[Id]", "w", "w^w"),
            ("Id*w", "3", "w"),
            ("Id*2", "w", "w*2"),
            ("omega[Id*2]", "w", "w^(w*2)"),
        ],
    )
    def test_rules(self, text, arg, expected):
        value = otp_symbolic(parse_dil(text), parse_ord(arg))
        assert ord_str(value) == expected

    def test_finite_counts_match(self):
        for text in ["Const(5)", "Id", "Id+1", "Id*2", "Id*2+Const(2)"]:
            d = parse_dil(text)
            for n in range(4):
                count = len(enum_elements(d, n, EnumBudget(const_cap=30)))
                assert otp_symbolic(d, from_int(n)) == from_int(count), (text, n)

    def test_separated_head_order_type(self):
        node = Sep(HID, w, w)
        assert ord_str(otp_symbolic(node, parse_ord("w^2"))) == "w^(w^2+w)"

    def test_rank_decrease_under_separation(self):
        probe = parse_ord("w^2")
        for text in ["Id", "omega[Id]", "omega[Id*2]", "Id*2"]:
            d = parse_dil(text)
            if classify(d).kind != "Omega":
                continue
            lhs = otp_symbolic(sep(d, w), probe)
            rhs = otp_symbolic(d, probe)
            assert lhs < rhs, text


class TestTraceRelations:
    def test_constant_indices_compare_directly(self):
        cw = parse_dil("Const(w)")
        assert ll_relation(cw, EConst(from_int(2)), EConst(from_int(5))) == MUCH_LESS

    def test_identity_is_self_equivalent(self):
        assert ll_relation(D_ID, EId(Right(0)), EId(Right(0))) == EQUIVALENT

    def test_sum_copies_are_ordered(self):
        s2 = parse_dil("Id+Id")
        left = ESum(0, EId(Right(0)))
        right = ESum(1, EId(Right(0)))
        assert ll_relation(s2, left, right) == MUCH_LESS

    def test_important_index_identity(self):
        assert important_index(D_ID, EId(Right(0))) == 0

    def test_important_index_head_pairs(self):
        term = ECnf(((ESum(1, EId(Right(1))), 1), (ESum(1, EId(Right(0))), 1)))
        assert important_index(H0, term) == 1

    def test_important_index_unary_head(self):
        term = ECnf(((ESum(1, EId(Right(0))), 1),))
        assert important_index(H0, term) == 0

    def test_lead_position_wins_for_composite_heads(self):
        # tail from the low copy carries the larger point; importance stays
        # with the lead, so maximality fails here by design
        term = ECnf(((ESum(1, EId(Right(0))), 1), (ESum(0, EId(Right(1))), 1)))
        assert important_index(HID, term) == 0

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            important_index(parse_dil("Id+Id"), ESum(0, EId(Right(0))))

    def test_uniqueness_over_enumerated_terms(self):
        budget = EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3)
        for atom in [D_ID, H0, HID]:
            for term, arity in enum_trace_terms(atom, 4, budget):
                if arity:
                    important_index(atom, term)  # raises on non-uniqueness


# ---------------------------------------------------------------------------
# important_index against the triple loop it replaced

# the atoms and the trace-term budget of the order-sanity suite
ORDER_SANITY_ATOMS = [D_ID, H0, HID, CnfHead(D_ONE, H0)]
TRACE_BUDGET = EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3)
# the two arity-5 witnesses of the order-sanity suite
ARITY5_WITNESSES = [
    (H0, ECnf(tuple((ESum(1, EId(Right(i))), 1) for i in reversed(range(5))))),
    (
        HID,
        ECnf(
            ((ESum(1, EId(Right(0))), 1),)
            + tuple((ESum(0, EId(Right(i))), 1) for i in (4, 3, 2, 1))
        ),
    ),
]


def reference_important_index(d, t) -> int:
    """The rule important_index had before it ranked images: for each slot
    i, compare the images of every pair of embeddings with f[i] < g[i]
    directly, and drop the slot at the first pair that is not LESS.  The
    loop used to apply both embeddings for every (slot, f, g) triple;
    ``apply_embedding`` is pure, so here each image is memoized, which only
    saves time."""
    if not is_connected_atom(d):
        raise NotConnected(f"{to_str(d)} is not connected and non-unit")
    pts = support_of(d, t)
    n = len(pts)
    if n == 0:
        raise NotConnected("nullary trace term in a connected non-unit expression")
    embs = _embeddings(n, 2 * n)
    images = {}

    def image(f):
        key = tuple(f.values())
        if key not in images:
            images[key] = apply_embedding(d, t, {p: f[j] for j, p in enumerate(pts)})
        return images[key]

    winners = []
    for i in range(n):
        ok = True
        for f in embs:
            for g in embs:
                if f[i] < g[i]:
                    if compare_elements(d, image(f), image(g)) != LESS:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            winners.append(i)
    if len(winners) != 1:
        raise NoUniqueIndex(f"candidates {winners} for {to_str(d)}")
    return winners[0]


def _outcome(index_fn, d, t):
    try:
        return index_fn(d, t)
    except NoUniqueIndex:
        return NoUniqueIndex


@functools.lru_cache(maxsize=None)
def _trace_terms(atom, max_arity):
    return [(t, n) for t, n in enum_trace_terms(atom, max_arity, TRACE_BUDGET) if n]


class TestImportantIndexRanking:
    @pytest.mark.parametrize("atom", ORDER_SANITY_ATOMS, ids=to_str)
    def test_matches_reference_up_to_arity_3(self, atom):
        terms = _trace_terms(atom, 3)
        assert terms
        for t, _ in terms:
            assert _outcome(important_index, atom, t) == _outcome(
                reference_important_index, atom, t
            ), t

    def test_matches_reference_on_arity_4_terms(self):
        atom = ORDER_SANITY_ATOMS[-1]
        terms = [t for t, n in _trace_terms(atom, 4) if n == 4]
        assert len(terms) > 120
        for t in terms[::24]:
            assert important_index(atom, t) == reference_important_index(atom, t), t

    @pytest.mark.parametrize("atom,term", ARITY5_WITNESSES, ids=["head", "composite-head"])
    def test_matches_reference_on_arity_5_witnesses(self, atom, term):
        assert important_index(atom, term) == reference_important_index(atom, term)

    def test_tied_images_share_a_rank(self, monkeypatch):
        # under a comparison that ties every pair of images, no slot wins
        def tie(d, x, y, pos_cmp=None):
            return EQUAL

        monkeypatch.setattr("dilcalc.analysis.compare_elements", tie)
        monkeypatch.setitem(globals(), "compare_elements", tie)
        for atom, term in ARITY5_WITNESSES[:1] + [(D_ID, EId(Right(0)))]:
            assert _outcome(important_index, atom, term) is NoUniqueIndex
            assert _outcome(reference_important_index, atom, term) is NoUniqueIndex


@functools.lru_cache(maxsize=None)
def _ranked_terms():
    return [(atom, t) for atom in ORDER_SANITY_ATOMS for t, _ in _trace_terms(atom, 4)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compare_is_a_total_order_on_ranked_images(data):
    """The rank rule of important_index needs a total order on its images."""
    # indices, not sampled_from: hashing the terms would dominate the run
    terms = _ranked_terms()
    atom, term = terms[data.draw(st.integers(0, len(terms) - 1))]
    pts = support_of(atom, term)
    embs = _embeddings(len(pts), 2 * len(pts))
    picks = data.draw(st.lists(st.integers(0, len(embs) - 1), min_size=3, max_size=3))
    x, y, z = (
        apply_embedding(atom, term, {p: embs[k][j] for j, p in enumerate(pts)})
        for k in picks
    )
    xy, yx = compare_elements(atom, x, y), compare_elements(atom, y, x)
    assert xy == -yx
    assert (xy == EQUAL) == (x == y)
    yz, xz = compare_elements(atom, y, z), compare_elements(atom, x, z)
    if GREATER not in (xy, yz):
        assert xz == (EQUAL if xy == yz == EQUAL else LESS)
