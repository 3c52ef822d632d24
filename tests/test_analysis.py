import collections
import functools
import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilcalc.analysis as analysis_module
import dilcalc.jfunctor as jfunctor_module
import dilcalc.psi as psi_module
from dilcalc.analysis import (
    EQUIVALENT,
    MUCH_GREATER,
    MUCH_LESS,
    Decomposition,
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
)
from dilcalc.coherence import limit_prefix_inject, prefix_inject, top_inject
from dilcalc.errors import (
    DepthExceeded,
    GuardViolation,
    NoUniqueIndex,
    NotConnected,
    NotTypeOmega,
)
from dilcalc.expr import (
    Band,
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    D_ZERO,
    IdNode,
    Sep,
    Sum,
    is_connected_atom,
    mk_band,
    mk_sep_atom,
    mk_mul_nat,
    mk_shift,
    mk_sum,
    mk_sum_all,
    parse_dil,
    summands,
    to_str,
)
from dilcalc.jfunctor import JStep, _Session, j_eval, jprime_eval
from dilcalc.ordinal import (
    EQUAL,
    GREATER,
    LESS,
    OMEGA,
    ONE,
    ZERO,
    from_int,
    fund_seq,
    ord_add,
    ord_cmp,
    ord_str,
    parse_ord,
)
from dilcalc.psi import psi_clause_otp
from dilcalc.semantics import (
    ESum,
    EnumBudget,
    Right,
    apply_embedding,
    compare_elements,
    element_key,
    element_positions,
    enum_elements,
    member,
    prefix_elements,
    support_of,
)
from test_ordinal import ords, outcome, reference_solver, sup_of_sequence
from test_psi import spy_limit_sup
from test_semantics import default_pos_key

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


class TestFilteredParts:
    """A separation or band is the sum of its slices, and ``decompose`` and
    ``otp_symbolic`` take it apart by one rule: the parts it names are its
    initial segments, whether or not the ambient lies above the cut."""

    ATOMS = ["omega_head(Id;Id)", "omega_head(Id+1;Id)", "omega_head(0;omega_head(Id;Id))"]
    CUTS = ["2", "w", "w+1", "w*2", "w^2"]
    ARGS = [ZERO, ONE, w]

    def cases(self):
        """(node, cut, whether the ambient is the cut): each atom's separation
        and band [0, cut), with the ambient the cut and the cut + w."""
        out = []
        for atom, cut in itertools.product(self.ATOMS, self.CUTS):
            for amb in (cut, ord_str(ord_add(parse_ord(cut), w))):
                for text in (f"sep@({atom};{cut};{amb})", f"band({atom};0;{cut};{amb})"):
                    out.append((parse_dil(text), parse_ord(cut), amb == cut))
        return out

    def test_parts_add_up_to_the_whole(self):
        for d, _, _ in self.cases():
            dec = decompose(d)
            for a in self.ARGS:
                whole = otp_symbolic(d, a)
                if dec.kind == "succ":
                    parts = ord_add(otp_symbolic(dec.prefix, a), otp_symbolic(dec.top, a))
                else:
                    parts = analysis_module._limit_sup(
                        d, lambda k: otp_symbolic(dec.fund(k), a))
                assert parts == whole, (to_str(d), ord_str(a))

    def test_limit_parts_are_members(self):
        budget = EnumBudget(const_cap=4, copies=2, cnf_len=2, cnf_mult=1, grid=2)
        # a successor cut whose last slice is a limit decomposes as a limit
        # too, but its parts are sums with a part of that slice
        for d, cut, at_cut in self.cases():
            if not (at_cut and cut.is_limit()):
                continue
            dec = decompose(d)
            for j in (1, 2, 3):
                elems = enum_elements(dec.fund(j), 1, budget)
                assert elems and all(member(d, e) for e in elems), (to_str(d), j)

    def test_order_types_pinned(self):
        # taken before the two part rules became one
        text = "".join(f"{to_str(d)} {ord_str(a)} {ord_str(otp_symbolic(d, a))}\n"
                       for d, _, _ in self.cases() for a in self.ARGS)
        assert hashlib.sha1(text.encode()).hexdigest() == "d1b233bc89b44132ec05e64f5fec99aa5c2e6dd2"


class TestLongSums:
    """5,000 summands at the default recursion limit: a sum is taken apart
    by one loop, never by one call per summand."""

    LONG = mk_mul_nat(D_ID, 5000)

    def test_classify(self, default_recursion_limit):
        assert classify(self.LONG) == "Omega"

    def test_decompose_successor(self, default_recursion_limit):
        dec = decompose(self.LONG)
        assert dec.kind == "succ" and dec.top == D_ID
        assert dec.prefix == mk_mul_nat(D_ID, 4999)

    def test_decompose_limit(self, default_recursion_limit):
        dec = decompose(mk_sum(self.LONG, Const(w)))
        assert dec.kind == "limit"
        assert dec.fund(2) == mk_sum_all([D_ID] * 5000 + [Const(fund_seq(w, 2))])

    def test_sep(self, default_recursion_limit):
        assert sep(self.LONG, w) == mk_sum_all([D_ID] * 4999 + [Const(w)])


class TestClassify:
    """The type name is read off the one decomposition."""

    def test_zero(self):
        assert classify(parse_dil("0")) == "0"
        assert decompose(parse_dil("0")).kind == "zero"

    def test_successor(self):
        assert classify(parse_dil("Id+1")) == "1"
        assert decompose(parse_dil("Id+1")).prefix == D_ID

    def test_limit_with_fundamental_sequence(self):
        assert classify(parse_dil("1*w")) == "omega"
        assert to_str(decompose(parse_dil("1*w")).fund(3)) == "Const(3)"

    def test_top_type(self):
        assert classify(D_ID) == "Omega"
        assert to_str(sep(D_ID, w)) == "Const(w)"


class TestNormalizedDecompositions:
    """The lemma that leaves J and psi without a zero or a unit clause: every
    node ``decompose`` reaches from a parsed expression, other than a
    ``Const`` or a ``Sum``, is a limit or a successor with a connected top."""

    # TestStepLog's atoms, and one each of the head, separation, band and
    # shift forms
    ROOTS = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "Id*2", "Id*w", "omega[Id]",
             "Const(w)+Id", "omega[Id*2]", "1*w", "(Id*w)*w", "omega_head(Id;Id*2)",
             "sep(omega_head(Id;Id),w+1)", "sep@(omega_head(Id;Id);2;w)",
             "band(omega_head(Id;Id);1;w+2;w+2)", "shift(omega_head(Id;Id),w)"]
    DEPTH = 6

    def test_every_reached_node_is_a_limit_or_has_a_connected_top(self):
        # breadth first, DEPTH steps of prefix, top, fund(0..3), a sum's
        # summands and the separation of a connected top at 0, 1 and w
        queue = collections.deque((parse_dil(text), 0) for text in self.ROOTS)
        seen, checked = set(), collections.Counter()
        while queue:
            d, depth = queue.popleft()
            if d in seen:
                continue
            seen.add(d)
            dec = decompose(d)
            if not isinstance(d, (Const, Sum)):
                checked[type(d).__name__] += 1
                assert dec.kind == "limit" or is_connected_atom(dec.top), to_str(d)
            if depth == self.DEPTH:
                continue
            nxt = list(summands(d)) if isinstance(d, Sum) else []
            if dec.kind == "succ":
                nxt += [dec.prefix, dec.top]
                if is_connected_atom(dec.top):
                    nxt += [mk_sep_atom(dec.top, g, g) for g in (ZERO, ONE, w)]
            elif dec.kind == "limit":
                nxt += [dec.fund(k) for k in range(4)]
            queue.extend((e, depth + 1) for e in nxt)
        assert set(checked) == {"IdNode", "CnfHead", "OmegaComp", "MulOmega", "Sep", "Band"}
        assert sum(checked.values()) >= 80


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
        assert mk_shift(parse_dil("0"), w) == D_ZERO
        assert mk_shift(parse_dil("Const(5)"), w) == Const(from_int(5))

    def test_identity_rule(self):
        assert to_str(mk_shift(D_ID, w)) == "Const(w)+Id"

    def test_prefix_isomorphism(self):
        # Id over w+X agrees with the rewritten form on prefixes
        target = mk_shift(D_ID, w)
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

    def test_long_sum_needs_no_recursion(self):
        # 5,000 summands, deeper than the default recursion limit
        d = parse_dil("Const(w)+" + "+".join(["Id", "1"] * 2500))
        assert ord_str(otp_symbolic(d, w)) == "w*2501+1"

    def test_separated_head_order_type(self):
        node = Sep(HID, w, w)
        assert ord_str(otp_symbolic(node, parse_ord("w^2"))) == "w^(w^2+w)"

    def test_rank_decrease_under_separation(self):
        probe = parse_ord("w^2")
        for text in ["Id", "omega[Id]", "omega[Id*2]", "Id*2"]:
            d = parse_dil(text)
            if classify(d) != "Omega":
                continue
            lhs = otp_symbolic(sep(d, w), probe)
            rhs = otp_symbolic(d, probe)
            assert lhs < rhs, text

    def test_a_refusal_leaves_the_cache_as_it_was(self, monkeypatch):
        # the cut w^3 takes 401 folds; when a refusal kept what it cached,
        # the second call answered w^w^3 under this budget
        monkeypatch.setattr(analysis_module, "_OTP_CACHE", {})
        monkeypatch.setattr(analysis_module, "_OTP_FOLD_BUDGET", 300)
        otp_symbolic(D_ID, w)
        before = dict(analysis_module._OTP_CACHE)
        d = parse_dil("sep@(omega_head(Id;Id);w^3;w^3)")
        for _ in range(5):
            with pytest.raises(DepthExceeded, match="order-type folds exceeded 300 steps"):
                otp_symbolic(d, ZERO)
            assert analysis_module._OTP_CACHE == before

    def test_a_sum_caches_only_the_key_asked_for(self, monkeypatch):
        # a 50-summand spine drawn as the functor-sums benchmark draws its
        # spines: a sum is the fold of its summands' values, so no sum of
        # some of its summands is cached, and no Const or Id is
        chunk = ["Id"] * 5 + ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id*w"] * 3
        rng, parts = random.Random(27), []
        while len(parts) < 50:
            rng.shuffle(chunk)
            parts += chunk
        d = parse_dil("+".join(parts[:50]))
        kept = [p for p in summands(d) if not isinstance(p, (Const, IdNode))]
        assert kept
        for gs in ("0", "1", "w", "w^2"):
            g = parse_ord(gs)
            monkeypatch.setattr(analysis_module, "_OTP_CACHE", {})
            value = otp_symbolic(d, g)
            assert set(analysis_module._OTP_CACHE) == {(d, g)} | {(p, g) for p in kept}
            assert value == functools.reduce(ord_add, [otp_symbolic(p, g) for p in summands(d)])


class TestTraceRelations:
    def test_constant_indices_compare_directly(self):
        cw = parse_dil("Const(w)")
        assert ll_relation(cw, from_int(2), from_int(5)) == MUCH_LESS

    def test_identity_is_self_equivalent(self):
        assert ll_relation(D_ID, Right(0), Right(0)) == EQUIVALENT

    def test_sum_copies_are_ordered(self):
        s2 = parse_dil("Id+Id")
        left = ESum(0, Right(0))
        right = ESum(1, Right(0))
        assert ll_relation(s2, left, right) == MUCH_LESS

    @pytest.mark.parametrize("label", [5, "a"])
    def test_points_are_embedded_by_label(self, label):
        # a support point is placed by its rank in the support, whatever its label
        assert ll_relation(D_ID, Right(label), Right(0)) == EQUIVALENT
        assert ll_relation(D_ID, Right(0), Right(label)) == EQUIVALENT
        assert important_index(D_ID, Right(label)) == 0

    def test_important_index_identity(self):
        assert important_index(D_ID, Right(0)) == 0

    def test_important_index_head_pairs(self):
        term = ((ESum(1, Right(1)), 1), (ESum(1, Right(0)), 1))
        assert important_index(H0, term) == 1

    def test_important_index_unary_head(self):
        term = ((ESum(1, Right(0)), 1),)
        assert important_index(H0, term) == 0

    def test_lead_position_wins_for_composite_heads(self):
        # tail from the low copy carries the larger point; importance stays
        # with the lead, so maximality fails here by design
        term = ((ESum(1, Right(0)), 1), (ESum(0, Right(1)), 1))
        assert important_index(HID, term) == 0

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            important_index(parse_dil("Id+Id"), ESum(0, Right(0)))

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
    (H0, tuple((ESum(1, Right(i)), 1) for i in reversed(range(5)))),
    (HID, ((ESum(1, Right(0)), 1),) + tuple((ESum(0, Right(i)), 1) for i in (4, 3, 2, 1))),
]


# connected heads beyond the order-sanity atoms
EXTRA_HEADS = [parse_dil("omega_head(Id+1;Id)"), parse_dil("omega_head(1;Id)")]
# TRACE_BUDGET with three-term formal sums, so that a single head has
# arity-3 trace terms
HEAD_BUDGET = EnumBudget(const_cap=3, copies=2, cnf_len=3, cnf_mult=2, grid=3)


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

    @pytest.mark.parametrize("head", EXTRA_HEADS, ids=to_str)
    def test_matches_reference_on_extra_heads(self, head):
        terms = [t for t, n in enum_trace_terms(head, 3, HEAD_BUDGET) if n]
        assert any(len(support_of(head, t)) == 3 for t in terms)
        for t in terms:
            assert _outcome(important_index, head, t) == _outcome(
                reference_important_index, head, t
            ), t

    def test_tied_images_share_a_rank(self, monkeypatch):
        # when the term shows no live position, so that every embedding's
        # slot tuple is (), or every pair of images compares EQUAL, no slot wins
        def tie(d, x, y, pos_cmp=None):
            return EQUAL

        monkeypatch.setattr("dilcalc.analysis.element_positions", lambda d, t: [])
        monkeypatch.setitem(globals(), "compare_elements", tie)
        for atom, term in ARITY5_WITNESSES[:1] + [(D_ID, Right(0))]:
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


def _slot_tuples(atom, term) -> list:
    """Each embedding's values at the term's live positions, in
    ``element_positions`` order: the keys ``important_index`` ranks."""
    slot = {p: j for j, p in enumerate(support_of(atom, term))}
    seq = [slot[p.point] for p in element_positions(atom, term) if isinstance(p, Right)]
    n = len(slot)
    return [tuple(f[s] for s in seq) for f in itertools.combinations(range(2 * n), n)]


def _image_key(atom, term, pts, f):
    """The ``element_key`` of the term's image under f, a ``combinations``
    tuple over the sorted support ``pts``."""
    image = apply_embedding(atom, term, {p: f[j] for j, p in enumerate(pts)})
    return element_key(atom, image, default_pos_key)


def _dense_ranks(keys) -> list:
    level = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [level[k] for k in keys]


class TestSlotTuples:
    # ORDER_SANITY_ATOMS are also the atoms of the element-oracles workload
    @pytest.mark.parametrize("atom", ORDER_SANITY_ATOMS, ids=to_str)
    def test_slot_tuples_order_images_as_their_keys(self, atom):
        # equal dense ranks: every pair of embeddings is less, equal or
        # greater by its slot tuples exactly as by its images' keys
        terms = _trace_terms(atom, 4)
        assert terms
        for t, _ in terms:
            pts = support_of(atom, t)
            embs = itertools.combinations(range(2 * len(pts)), len(pts))
            keys = [_image_key(atom, t, pts, f) for f in embs]
            assert _dense_ranks(_slot_tuples(atom, t)) == _dense_ranks(keys), t

    def test_the_first_live_position_is_important(self):
        """The first live leaf decides the key order, so the important index
        is the slot of the term's first live position; on well-formed terms
        NoUniqueIndex comes only from a forced tie."""
        for atom, t in _ranked_terms() + ARITY5_WITNESSES:
            first = next(p for p in element_positions(atom, t) if isinstance(p, Right))
            assert important_index(atom, t) == support_of(atom, t).index(first.point), t


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_slot_tuples_compare_as_image_keys(data):
    """Two embeddings' slot tuples compare as their images' keys."""
    terms = _ranked_terms()
    atom, term = terms[data.draw(st.integers(0, len(terms) - 1))]
    pts, slots = support_of(atom, term), _slot_tuples(atom, term)
    embs = list(itertools.combinations(range(2 * len(pts)), len(pts)))
    i, j = (data.draw(st.integers(0, len(embs) - 1)) for _ in range(2))
    ki, kj = (_image_key(atom, term, pts, embs[k]) for k in (i, j))
    assert (slots[i] < slots[j]) == (ki < kj)
    assert (slots[i] == slots[j]) == (ki == kj)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_image_is_keyed_from_its_term(data):
    """The key of t's image under f is t's key with f applied to its live points."""
    terms = _ranked_terms()
    atom, term = terms[data.draw(st.integers(0, len(terms) - 1))]
    pts = support_of(atom, term)
    embs = _embeddings(len(pts), 2 * len(pts))
    emb = embs[data.draw(st.integers(0, len(embs) - 1))]
    f = {p: emb[j] for j, p in enumerate(pts)}

    def through_f(p):
        return default_pos_key(Right(f[p.point]) if isinstance(p, Right) else p)

    image = apply_embedding(atom, term, f)
    assert element_key(atom, image, default_pos_key) == element_key(atom, term, through_f)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_keys_are_monotone_in_the_embedding(data):
    """If f <= g pointwise, the image key under f is <= the key under g; so
    the lowest and the highest embedding bound every image's key, the lemma
    ll_relation's extreme images rest on."""
    terms = _ranked_terms()
    atom, term = terms[data.draw(st.integers(0, len(terms) - 1))]
    pts = support_of(atom, term)
    n = len(pts)
    embs = list(itertools.combinations(range(2 * n), n))
    f, g = (embs[data.draw(st.integers(0, len(embs) - 1))] for _ in range(2))
    # the pointwise min and max of two embeddings are embeddings
    low, high = tuple(map(min, f, g)), tuple(map(max, f, g))
    lowest, highest = tuple(range(n)), tuple(range(n, 2 * n))
    keys = [_image_key(atom, term, pts, e) for e in (lowest, low, f, high, highest)]
    assert keys == sorted(keys)
    assert keys[0] <= _image_key(atom, term, pts, g) <= keys[-1]


# ---------------------------------------------------------------------------
# ll_relation against the two-pass body it replaced

# the trace-term budget of the order-sanity suite's placed-element checks
PAIR_BUDGET = EnumBudget(const_cap=2, copies=2, cnf_len=2, cnf_mult=1, grid=2)
# connected atoms relate every pair as equivalent; a sum or Id*w orders some pairs
ALL_LL = {MUCH_LESS, MUCH_GREATER, EQUIVALENT}
LL_CASES = [(atom, {EQUIVALENT}) for atom in ORDER_SANITY_ATOMS + EXTRA_HEADS] + [
    (parse_dil(text), ALL_LL)
    # the last is the sum of the element-oracles workload
    for text in ("omega[Id]+Id", "Id+Id", "Id*w", "Id+omega_head(0;Id)+Id")
]


def reference_ll_relation(d, t1, t2) -> str:
    """The body ll_relation had before it applied each embedding once: one
    pass for all-LESS and one for all-GREATER, applying both embeddings for
    every pair."""
    n1, n2 = len(support_of(d, t1)), len(support_of(d, t2))
    big = n1 + n2
    if big == 0:
        c = compare_elements(d, t1, t2)
        if c == LESS:
            return MUCH_LESS
        return EQUIVALENT if c == EQUAL else MUCH_GREATER
    emb1, emb2 = _embeddings(n1, big), _embeddings(n2, big)
    all_less = all(
        compare_elements(d, apply_embedding(d, t1, f), apply_embedding(d, t2, g))
        == LESS
        for f in emb1
        for g in emb2
    )
    if all_less:
        return MUCH_LESS
    all_greater = all(
        compare_elements(d, apply_embedding(d, t1, f), apply_embedding(d, t2, g))
        == GREATER
        for f in emb1
        for g in emb2
    )
    return MUCH_GREATER if all_greater else EQUIVALENT


class TestLlRelationOnePass:
    def test_each_embedding_is_applied_once(self, monkeypatch):
        # only the extreme images are keyed: at most four keys per call, where
        # an arity-3 pair has 20 x 20 pairs of embeddings
        atom = ORDER_SANITY_ATOMS[-1]
        t1, t2 = [t for t, n in _trace_terms(atom, 3) if n == 3][:2]
        s2 = parse_dil("Id+Id")
        cases = [
            (atom, t1, t2, EQUIVALENT),
            (s2, ESum(0, Right(0)), ESum(1, Right(0)), MUCH_LESS),
        ]
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return element_key(*args)

        monkeypatch.setattr("dilcalc.analysis.element_key", counting)
        for d, x, y, answer in cases:
            calls[0] = 0
            assert ll_relation(d, x, y) == answer == reference_ll_relation(d, x, y)
            assert calls[0] <= 4

    @pytest.mark.parametrize("d,outcomes", LL_CASES, ids=[to_str(d) for d, _ in LL_CASES])
    def test_matches_the_two_pass_body(self, d, outcomes):
        terms = [t for t, _ in enum_trace_terms(d, 2, PAIR_BUDGET)]
        seen = set()
        for t1, t2 in itertools.product(terms, repeat=2):
            answer = ll_relation(d, t1, t2)
            assert answer == reference_ll_relation(d, t1, t2), (to_str(d), t1, t2)
            seen.add(answer)
        assert seen == outcomes


# ---------------------------------------------------------------------------
# the one limit rule

# atoms of the limit grid; they and a seeded subset of their pairwise sums
# are evaluated at 8 and at 16 samples
LIMIT_ATOMS = (
    "0", "1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id", "Id*2", "Id*w",
    "omega[Id]", "omega[Id+1]", "omega[Id*2]", "Const(w)+Id", "omega_head(0;Id)",
    "omega_head(Id;Id)", "omega_head(1;Id)", "(Id*w)*w", "Id+Const(w)", "omega[Id]+Id",
)
LIMIT_FUNCTORS = (
    lambda d, g: j_eval(d, g).value,
    lambda d, g: jprime_eval(d, g).value,
    psi_clause_otp,
    otp_symbolic,
)


def _decreasing(k):
    return Const(from_int(8 - k))


class TestLimitRule:
    @pytest.fixture(autouse=True)
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(analysis_module, "_OTP_CACHE", {})
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})

    def test_j_decrease_is_a_guard_violation(self):
        # a B*w limit samples gamma and the iterates of J(B, .) from it: in a
        # session whose J(Id, w) was tampered to lie below w they decrease
        session = _Session(ZERO)
        session.memo[D_ID, w] = JStep(D_ID, w, "separation", None, ZERO)
        with pytest.raises(GuardViolation, match=r"partial-sum values decreased under Id\*w$"):
            session.eval(parse_dil("Id*w"), w)

    def test_j_member_decrease_is_a_guard_violation(self, monkeypatch):
        # every other limit shape samples its members
        d = parse_dil("omega[Id*w]")
        real = jfunctor_module.decompose
        monkeypatch.setattr(
            jfunctor_module, "decompose",
            lambda e: Decomposition("limit", fund=_decreasing) if e == d else real(e),
        )
        with pytest.raises(GuardViolation,
                           match=r"partial-sum values decreased under omega\[Id\*w\]$"):
            j_eval(d, w)

    def test_psi_decrease_is_a_guard_violation(self, monkeypatch):
        d = parse_dil("Id*w")
        real = psi_module.decompose
        monkeypatch.setattr(
            psi_module, "decompose",
            lambda e: Decomposition("limit", fund=_decreasing) if e == d else real(e),
        )
        with pytest.raises(GuardViolation, match=r"partial-sum values decreased under Id\*w$"):
            psi_clause_otp(d, w)

    def test_otp_decrease_is_a_guard_violation(self, monkeypatch):
        # the cut's fundamental sequence now runs 8, 7, ..., 1
        monkeypatch.setattr(analysis_module, "fund_seq", lambda a, k: from_int(8 - k))
        with pytest.raises(GuardViolation, match="partial-sum values decreased under sep"):
            otp_symbolic(Sep(HID, w, w), w)

    def test_one_sample_count(self, monkeypatch):
        # the one count reaches J, psi and otp: J's B*w samples gamma and 15
        # iterates of J(B, .), its other limits and psi and otp members 0..15,
        # and psi's connected clause 16 stages
        monkeypatch.setattr(analysis_module, "LIMIT_SAMPLES", 16)
        d = parse_dil("Id*w")
        res = j_eval(d, w)
        iterates = [s for s in res.steps if s.parent == D_ID]
        assert res.steps[-1].child == D_ID and len(iterates) == 15
        assert [s.gamma for s in iterates] == [w] + [s.value for s in iterates[:-1]]
        band = Band(D_ID, ZERO, w, w)
        assert j_eval(band, w).steps[-1].child == mk_band(D_ID, ZERO, from_int(15), w)
        calls = spy_limit_sup(monkeypatch)
        psi_clause_otp(d, w)
        assert (mk_mul_nat(D_ID, 15), w) in psi_module._PSI_CACHE
        assert (mk_mul_nat(D_ID, 16), w) not in psi_module._PSI_CACHE
        # psi's connected clause sums 16 stages of each Id summand
        connected = [drawn for e, drawn in calls if e == D_ID]
        assert connected and all(len(drawn) == 16 for drawn in connected)
        otp_symbolic(Sep(HID, w, w), w)
        assert (Sep(HID, from_int(15), from_int(15)), w) in analysis_module._OTP_CACHE
        assert (Sep(HID, from_int(16), from_int(16)), w) not in analysis_module._OTP_CACHE

    @staticmethod
    def outcomes():
        """J, J', psi and otp on the 20 atoms and 40 seeded pairwise sums at
        gammas 0, 1, w+1, w^2 (960 cases), from empty caches: each value, or
        refusal type and message."""
        atoms = [parse_dil(t) for t in LIMIT_ATOMS]
        pairs = random.Random(16).sample(list(itertools.product(atoms, atoms)), 40)
        exprs = atoms + [mk_sum(a, b) for a, b in pairs]
        gammas = [parse_ord(g) for g in ("0", "1", "w+1", "w^2")]
        analysis_module._OTP_CACHE.clear()
        psi_module._PSI_CACHE.clear()
        return [outcome(functools.partial(f, d, g))
                for d, g, f in itertools.product(exprs, gammas, LIMIT_FUNCTORS)]

    def test_sixteen_samples_change_nothing(self, monkeypatch):
        eight = self.outcomes()
        monkeypatch.setattr(analysis_module, "LIMIT_SAMPLES", 16)
        assert self.outcomes() == eight

    def test_three_family_solver_changes_nothing(self):
        # the reference solver also tries affine steps v -> v*m + a
        with reference_solver():
            want = self.outcomes()
        assert self.outcomes() == want


def reference_limit_sup(d, sample):
    """``_limit_sup`` before it made one pass: the decrease guard over all
    samples, then ``sup_of_sequence``, which filters them again."""
    values = [sample(k) for k in range(analysis_module.LIMIT_SAMPLES)]
    if any(a > b for a, b in zip(values, values[1:])):
        raise GuardViolation(f"partial-sum values decreased under {to_str(d)}")
    return sup_of_sequence(values)


def differential_limit_sup(monkeypatch):
    """Route the limit rule of J, psi and otp through a spy that draws the
    samples once and requires ``_limit_sup`` and ``reference_limit_sup`` to
    give one value, or one refusal type and message.  Returns the list of
    the sample lists checked."""
    real, checked = analysis_module._limit_sup, []

    def spy(d, sample):
        values = [sample(k) for k in range(analysis_module.LIMIT_SAMPLES)]
        checked.append(values)
        want = outcome(lambda: reference_limit_sup(d, values.__getitem__))
        assert outcome(lambda: real(d, values.__getitem__)) == want, (to_str(d), values)
        return real(d, values.__getitem__)

    for module in (analysis_module, jfunctor_module, psi_module):
        monkeypatch.setattr(module, "_limit_sup", spy)
    return checked


@st.composite
def limit_samples(draw):
    """1-10 ``ords()`` in ascending order with runs of equal values; in half
    of the draws two neighbours are swapped, which puts in a decrease unless
    they are equal."""
    n = draw(st.integers(1, 10))
    distinct = draw(st.lists(ords(), min_size=1, max_size=n))
    values = sorted(draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n)),
                    key=functools.cmp_to_key(ord_cmp))
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        values[i], values[i + 1] = values[i + 1], values[i]
    return values


class TestOnePassLimitRule:
    @pytest.fixture(autouse=True)
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(analysis_module, "_OTP_CACHE", {})
        monkeypatch.setattr(psi_module, "_PSI_CACHE", {})

    @settings(max_examples=400, deadline=None)
    @given(limit_samples())
    def test_matches_reference_on_sequences(self, values):
        with mock.patch.object(analysis_module, "LIMIT_SAMPLES", len(values)):
            want = outcome(lambda: reference_limit_sup(D_ID, values.__getitem__))
            assert outcome(lambda: analysis_module._limit_sup(D_ID, values.__getitem__)) == want

    def test_matches_reference_on_the_limit_tower(self, monkeypatch):
        checked = differential_limit_sup(monkeypatch)
        for text in ("Id*w", "Id*w*w", "Id*w*w*w", "Id*w*w*w*w"):
            for evaluator in (j_eval, jprime_eval):
                evaluator(parse_dil(text), w)
        assert len(checked) > 100

    def test_matches_reference_on_the_limit_rule_cases(self, monkeypatch):
        # TestLimitRule's 960 cases of J, J', psi and otp
        checked = differential_limit_sup(monkeypatch)
        TestLimitRule.outcomes()
        assert len(checked) > 100
