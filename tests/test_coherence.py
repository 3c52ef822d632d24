"""The element translations of ``coherence`` over sorted exhaustive lists.

The coherence suite drives them over ascending streams, but a stream over a
formal sum never leaves the omega-block of its first lead, so most formal-sum
branches never run there.  A budgeted enumeration, sorted, spreads over many
leads; each translation must send it to valid elements of the target that
still ascend.
"""

import time
from itertools import islice

import pytest

from dilcalc import coherence
from dilcalc.analysis import decompose, otp_symbolic, sep_signed
from dilcalc.expr import (
    D_ID,
    D_ONE,
    Band,
    CnfHead,
    Const,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    is_connected_atom,
    mk_cnf_head,
    mk_mul_nat,
    mk_omega_comp,
    mk_sep_atom,
    mk_shift,
    mk_sum,
    mk_sum_all,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import LESS, OMEGA, ZERO, ord_add, ord_left_sub, parse_ord
from dilcalc.semantics import (
    ECopies,
    ESum,
    EnumBudget,
    Left,
    Right,
    _gen,
    _grid_values,
    ambient_stream,
    compare_elements,
    enum_elements,
    validate_element,
)
from dilcalc.suites import CheckReport, _check_decompose_expr, run_check
from test_semantics import halves

BUDGET = EnumBudget(const_cap=5, copies=2, cnf_len=2, cnf_mult=2, grid=4, max_count=4000)
EXPRS = ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id", "Id+Const(w)",
         "Id*2", "Id*w", "omega[Id]", "omega[Id+1]", "omega[Id*2]", "Const(w)+Id",
         "omega[Id]+Id", "omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(1;Id+1)",
         "omega_head(0;Id*2)", "omega_head(Id;Id*w)", "omega[Id]*w", "Id*w+Id",
         "omega_head(0;Id)+1", "omega[Id+1+Id]", "omega_head(Id;Id*2)"]
ATOMS = ["Id", "omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(1;omega_head(0;Id))",
         "omega_head(Id*2;Id)", "omega_head(Const(w);Id)"]
# a head whose limit comes from the repeated unit top of its high part
UNIT_TOP_HEAD = "omega_head(1;Id+1)"


def _elements(d, g, n_points=2):
    """The first 60 elements of ``d`` over [0, g) + the points, ascending."""
    return _gen(d, list(range(n_points)), BUDGET, _grid_values(g, 2))[0][:60]


def _assert_ascending_images(target, images, tag):
    assert images, tag
    for image in images:
        validate_element(target, image)
    for a, b in zip(images, images[1:]):
        assert compare_elements(target, a, b) == LESS, tag


@pytest.mark.parametrize("gs", ["1", "2", "w"])
class TestTranslationsAscend:
    def test_decomposition_injections(self, gs):
        g = parse_ord(gs)
        for text in EXPRS:
            d = parse_dil(text)
            dec = decompose(d)
            if dec.kind == "succ":
                images = [coherence.prefix_inject(d, e) for e in _elements(dec.prefix, g)]
                images += [coherence.top_inject(d, e) for e in _elements(dec.top, g)]
                _assert_ascending_images(d, images, text)
            elif text != UNIT_TOP_HEAD:
                for j in (1, 2, 3):
                    part = _elements(dec.fund(j), g)
                    images = [coherence.limit_prefix_inject(d, j, e) for e in part]
                    _assert_ascending_images(d, images, (text, j))

    def test_shift_translations(self, gs):
        # separations and bands too: shift_translate moves their ambient
        g = parse_ord(gs)
        for text in EXPRS + GAP_PARTS + LIMIT_PARTS:
            d = parse_dil(text)
            images = [coherence.shift_translate(d, g, e) for e in _elements(d, g)]
            _assert_ascending_images(mk_shift(d, g), images, text)

    def test_split_translations(self, gs):
        g = parse_ord(gs)
        for text in ATOMS:
            atom = parse_dil(text)
            images = [coherence.split_translate(atom, g, e) for e in _elements(atom, g)]
            _assert_ascending_images(mk_sum(*sep_signed(atom, g)), images, text)


def test_limit_injection_refuses_a_unit_top_head():
    # fund(j) here is a sum, not a head over the high part's fundamental sequence
    d = parse_dil(UNIT_TOP_HEAD)
    elem = enum_elements(decompose(d).fund(1), 1)[0]
    with pytest.raises(coherence.TranslationGap):
        coherence.limit_prefix_inject(d, 1, elem)


# separations at a successor cut or with positions above the cut, and bands
# over a successor span: their initial parts are sums with a slice, or hold
# the positions above the cut lower down, so the identity is no injection
GAP_PARTS = ["sep(omega_head(Id;Id),1)", "sep@(omega_head(Id;Id);2;3)",
             "band(omega_head(Id;Id);0;2;2)", "band(omega_head(Id;Id);0;w+1;w+1)"]
# bands over a limit span, whose parts are bands [lo, lo+f(j)) of the same base,
# and a separation at a limit cut with the cut as its ambient, whose parts are
# the separations at the cuts f(j)
LIMIT_PARTS = ["band(omega_head(Id;Id);0;w;w)", "band(omega_head(Id;Id);1;w;w)",
               "band(omega_head(Id;Id);w;w*2;w*2)", "band(omega_head(Id+Id;Id);0;w;w)",
               "sep(omega_head(Id;Id),w)"]
PART_BUDGET = EnumBudget(const_cap=4, copies=2, cnf_len=2, cnf_mult=2, grid=4)


def _initial_parts(d):
    """(j, elements ascending) of d's successor prefix (j None) or of fund(1..3)."""
    dec = decompose(d)
    parts = [(None, dec.prefix)] if dec.kind == "succ" else [(j, dec.fund(j)) for j in (1, 2, 3)]
    return [(j, enum_elements(part, 1, PART_BUDGET)) for j, part in parts]


def _inject_part(d, j, elem):
    return coherence.prefix_inject(d, elem) if j is None else coherence.limit_prefix_inject(d, j, elem)


class TestFilteredPartInjections:
    @pytest.mark.parametrize("text", GAP_PARTS)
    def test_refused(self, text):
        d = parse_dil(text)
        for j, elems in _initial_parts(d):
            assert elems, (text, j)
            for e in elems[:6]:
                with pytest.raises(coherence.TranslationGap):
                    _inject_part(d, j, e)
        rep = CheckReport("decompose")
        _check_decompose_expr(rep, d, 40, 2)
        assert rep.violations == [] and len(rep.skips) == 1, text

    @pytest.mark.parametrize("text", LIMIT_PARTS)
    def test_limit_parts_ascend(self, text):
        d = parse_dil(text)
        assert isinstance(d, (Band, Sep)) and decompose(d).kind == "limit"
        for j, elems in _initial_parts(d):
            _assert_ascending_images(d, [_inject_part(d, j, e) for e in elems], (text, j))


def test_top_injection_of_a_sum_is_the_recursive_one():
    # ESum(1, -) around the injection into the summands after the first, as
    # the recursion had it
    for text in ("Id+1", "1+Id", "Id*2", "Id*3+1", "Const(w)+Id", "omega[Id]+Id",
                 "omega_head(0;Id)+1", "Id+omega_head(Id;Id)"):
        d = parse_dil(text)
        for e in _elements(decompose(d).top, parse_ord("2")):
            right = halves(d)[1]
            assert coherence.top_inject(d, e) == ESum(1, coherence.top_inject(right, e)), text


def test_top_injection_of_a_long_sum_needs_no_recursion(default_recursion_limit):
    elem = Right(0)
    image = coherence.top_inject(mk_mul_nat(D_ID, 2000), elem)
    for _ in range(1999):
        assert image.__class__ is ESum and image.side == 1
        image = image.inner
    assert image is elem


def test_a_sep_translation_gap_is_a_skip(monkeypatch):
    real, case = coherence.sep_translate, (parse_dil("omega_head(0;Id)"), parse_ord("2"))

    def sep_translate(a, g, elem):
        if (a, g) == case:
            raise coherence.TranslationGap("no translation here")
        return real(a, g, elem)

    monkeypatch.setattr(coherence, "sep_translate", sep_translate)
    (rep,) = run_check("coherence")
    assert rep.ok and rep.violations == []
    assert rep.skips == ["sep omega[Id] at 2: no translation here"]


# check all separates no composite head, so it never runs these
@pytest.mark.parametrize("g", ["1", "2", "w", "w+1", "w*2"])
@pytest.mark.parametrize("text", ["omega_head(Id;Id)", "omega_head(Id+1;Id)",
                                  "omega_head(1;omega_head(0;Id))"])
def test_sep_translation_of_a_head(text, g):
    atom, cut = parse_dil(text), parse_ord(g)
    elems = islice(ambient_stream(Sep(atom, cut, cut), range(2)), 60)
    images = [coherence.sep_translate(atom, cut, e) for e in elems]
    assert len(images) == 60
    assert images == list(islice(ambient_stream(mk_sep_atom(atom, cut, cut), range(2)), 60))


# ---------------------------------------------------------------------------
# the sum maps and the part injection against the recursive ones they replaced


def reference_sum_inject(a, b, side, elem):
    """``sum_inject`` by recursion once per summand of ``a``."""
    if isinstance(a, Const) and a.value.is_zero():
        return elem
    if isinstance(b, Const) and b.value.is_zero():
        return elem
    if isinstance(a, Sum):
        left, right = halves(a)
        rest = mk_sum(right, b)
        if side == 0:
            if elem.side == 0:
                return reference_sum_inject(left, rest, 0, elem.inner)
            inner = reference_sum_inject(right, b, 0, elem.inner)
            return reference_sum_inject(left, rest, 1, inner)
        return reference_sum_inject(left, rest, 1, reference_sum_inject(right, b, 1, elem))
    if isinstance(a, Const) and isinstance(b, Const):
        return elem if side == 0 else ord_add(a.value, elem)
    if isinstance(a, Const) and isinstance(b, Sum) and isinstance(halves(b)[0], Const):
        if side == 0:
            return ESum(0, elem)
        if elem.side == 0:
            return ESum(0, ord_add(a.value, elem.inner))
        return elem
    return ESum(side, elem)


def reference_sum_split(a, b, elem):
    """``_sum_split`` by recursion once per summand of ``a``."""
    if isinstance(a, Const) and a.value.is_zero():
        return 1, elem
    if isinstance(b, Const) and b.value.is_zero():
        return 0, elem
    if isinstance(a, Sum):
        left, right = halves(a)
        side, inner = reference_sum_split(left, mk_sum(right, b), elem)
        if side == 0:
            return 0, ESum(0, inner)
        side2, inner2 = reference_sum_split(right, b, inner)
        if side2 == 0:
            return 0, ESum(1, inner2)
        return 1, inner2
    if isinstance(a, Const) and isinstance(b, Const):
        if elem < a.value:
            return 0, elem
        return 1, ord_left_sub(a.value, elem)
    if isinstance(a, Const) and isinstance(b, Sum) and isinstance(halves(b)[0], Const):
        if elem.side == 0:
            if elem.inner < a.value:
                return 0, elem.inner
            return 1, ESum(0, ord_left_sub(a.value, elem.inner))
        return 1, elem
    return elem.side, elem.inner


def reference_prefix_inject(d, elem):
    """``prefix_inject`` as its own recursion, with a decomposition per suffix."""
    dec = decompose(d)
    if dec.kind != "succ":
        raise coherence.TranslationGap("prefix injection needs a successor decomposition")
    if isinstance(d, Const):
        return elem
    if isinstance(d, IdNode):
        raise coherence.TranslationGap("the identity expression has an empty prefix")
    if isinstance(d, Sum):
        left, right = halves(d)
        side, part = reference_sum_split(left, decompose(right).prefix, elem)
        if side == 0:
            return ESum(0, part)
        return ESum(1, reference_prefix_inject(right, part))
    if isinstance(d, OmegaComp):
        return reference_oc_inject(
            decompose(d.base).prefix, elem, lambda x: reference_prefix_inject(d.base, x)
        )
    if isinstance(d, CnfHead) and not is_connected_atom(d):
        inner_dec = decompose(d.high)
        if inner_dec.kind != "succ" or not isinstance(
            mk_cnf_head(d.low, inner_dec.prefix), CnfHead
        ):
            raise coherence.TranslationGap("composite head prefix renormalizes")
        return coherence._inject_high(elem, lambda x: reference_prefix_inject(d.high, x))
    raise coherence.TranslationGap(f"no prefix injection for {d!r}")


def reference_limit_prefix_inject(d, j, elem):
    """``limit_prefix_inject`` as its own recursion, with a decomposition per suffix."""
    dec = decompose(d)
    if dec.kind != "limit":
        raise coherence.TranslationGap("limit injection needs a limit decomposition")
    if isinstance(d, Const):
        return elem
    if isinstance(d, Sum):
        left, right = halves(d)
        side, part = reference_sum_split(left, decompose(right).fund(j), elem)
        if side == 0:
            return ESum(0, part)
        return ESum(1, reference_limit_prefix_inject(right, j, part))
    if isinstance(d, MulOmega):
        copy, current = 0, elem
        remaining = j
        while remaining > 1:
            side, part = reference_sum_split(d.base, mk_mul_nat(d.base, remaining - 1), current)
            if side == 0:
                return ECopies(copy, part)
            copy, current, remaining = copy + 1, part, remaining - 1
        if remaining == 1:
            return ECopies(copy, current)
        raise coherence.TranslationGap("empty repetition prefix has no elements")
    if isinstance(d, OmegaComp):
        return reference_oc_inject(
            decompose(d.base).fund(j), elem, lambda x: reference_limit_prefix_inject(d.base, j, x)
        )
    if isinstance(d, Band) and ord_left_sub(d.lo, d.hi).is_limit():
        return elem
    if isinstance(d, CnfHead):
        if decompose(d.high).kind != "limit":
            raise coherence.TranslationGap(f"no limit injection for {to_str(d)}")
        return coherence._inject_high(
            elem, lambda x: reference_limit_prefix_inject(d.high, j, x)
        )
    raise coherence.TranslationGap(f"no limit injection for {d!r}")


def reference_oc_inject(p, elem, inject_exp):
    """``_oc_inject`` with the rank inverse it had for constants."""
    target = mk_omega_comp(p)
    if isinstance(target, OmegaComp):
        return tuple((inject_exp(x), m) for x, m in elem)
    if isinstance(target, Const):
        pairs = [(inject_exp(reference_const_element_of(p, exp)), c) for exp, c in elem.terms]
        return tuple(pairs)
    if isinstance(target, MulOmega):
        pdec = decompose(p)
        if pdec.kind != "succ" or pdec.top != D_ONE:
            raise coherence.TranslationGap("unexpected repetition normal form")
        unit = coherence.top_inject(p, ZERO)
        inner = reference_oc_inject(
            pdec.prefix, elem.inner, lambda x: inject_exp(reference_prefix_inject(p, x))
        )
        if elem.copy == 0:
            return inner
        return ((inject_exp(unit), elem.copy),) + inner
    raise coherence.TranslationGap(f"no omega-composition translation onto {to_str(target)}")


def reference_const_element_of(p, v):
    if isinstance(p, Const):
        return v
    if isinstance(p, Sum):
        left, right = halves(p)
        left_otp = otp_symbolic(left, ZERO)
        if v < left_otp:
            return ESum(0, reference_const_element_of(left, v))
        return ESum(1, reference_const_element_of(right, ord_left_sub(left_otp, v)))
    raise coherence.TranslationGap(f"no rank inverse for {p!r}")


def reference_frozen_value(expr, elem, bound):
    """``frozen_value`` by recursion at sum levels."""
    if isinstance(expr, Sum):
        left, right = halves(expr)
        if elem.side == 0:
            return reference_frozen_value(left, elem.inner, bound)
        rest = reference_frozen_value(right, elem.inner, bound)
        return ord_add(otp_symbolic(left, bound), rest)
    return coherence.frozen_value(expr, elem, bound)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


# a constant prefix of the base (the first two), and longer sums
MORE_EXPRS = ["omega[Const(3)+Id]", "omega[Const(w)+Id]", "omega[2+Id]+1", "Id*3+Const(w)",
              "Const(w)+Id*3+1", "Id+omega[Id*3+1]", "omega_head(0;Id)*2+Id*w"]
SHORT = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "1+Id", "Id*2", "2+Id+3", "omega[Id]",
         "Const(w)+Id+Const(2)", "Id*w", "omega_head(0;Id)"]


@pytest.mark.parametrize("gs", ["1", "2", "w"])
@pytest.mark.parametrize("text", EXPRS + MORE_EXPRS)
def test_part_injections_match_the_recursive_ones(text, gs):
    d, g = parse_dil(text), parse_ord(gs)
    dec = decompose(d)
    parts = [(None, dec.prefix)] if dec.kind == "succ" else [(j, dec.fund(j)) for j in (1, 2, 3)]
    for j, part in parts:
        for e in _elements(part, g):
            for k in (None, j or 1):
                if k is None:
                    new, old = (coherence.prefix_inject, d, e), (reference_prefix_inject, d, e)
                else:
                    new = (coherence.limit_prefix_inject, d, k, e)
                    old = (reference_limit_prefix_inject, d, k, e)
                assert _outcome(*new) == _outcome(*old), (text, j, k, e)


@pytest.mark.parametrize("sa", SHORT)
def test_sum_maps_match_the_recursive_ones(sa):
    a = parse_dil(sa)
    for b in map(parse_dil, SHORT):
        s = mk_sum(a, b)
        for side, part in ((0, a), (1, b)):
            for e in _elements(part, parse_ord("w"))[:20]:
                assert _outcome(coherence.sum_inject, (a, b), side, e) == _outcome(
                    reference_sum_inject, a, b, side, e
                ), (sa, b, side, e)
        for e in _elements(s, parse_ord("w"))[:40]:
            assert _outcome(coherence._sum_split, (a, b), e) == _outcome(
                reference_sum_split, a, b, e
            ), (sa, b, e)
        frozen = _elements(s, parse_ord("w"), 0)[:20]
        for e in frozen:
            assert _outcome(coherence.frozen_value, s, e, OMEGA) == _outcome(
                reference_frozen_value, s, e, OMEGA
            ), (sa, b, e)


def fold_sum_inject(parts, k, elem):
    """``sum_inject`` over any number of parts as the two-part reference,
    folded from the left."""
    if k:
        elem = reference_sum_inject(mk_sum_all(parts[:k]), parts[k], 1, elem)
    for m in range(k + 1, len(parts)):
        elem = reference_sum_inject(mk_sum_all(parts[:m]), parts[m], 0, elem)
    return elem


def fold_sum_split(parts, elem):
    """``_sum_split`` over any number of parts as the two-part reference,
    folded from the right."""
    for m in range(len(parts) - 1, 0, -1):
        side, elem = reference_sum_split(mk_sum_all(parts[:m]), parts[m], elem)
        if side == 1:
            return m, elem
    return 0, elem


# chained constant merges, a zero part between two constants, and parts
# that are themselves sums
PART_LISTS = [("Id+1", "2", "3+Id"), ("1", "2", "3"), ("1", "0", "2"), ("Id+1", "0", "2+Id"),
              ("0", "1", "Id"), ("2+Id+3", "1+Id", "Id*2"), ("Id+Const(w)", "1", "Const(w)+Id+1"),
              ("omega[Id]+1", "1", "1", "1+Id"), ("Id*2", "omega_head(0;Id)", "Id*w")]


@pytest.mark.parametrize("texts", PART_LISTS, ids="|".join)
def test_n_ary_sum_maps_match_a_fold_of_the_recursive_ones(texts):
    parts, w = tuple(map(parse_dil, texts)), parse_ord("w")
    for k, part in enumerate(parts):
        for e in _elements(part, w)[:20]:
            assert _outcome(coherence.sum_inject, parts, k, e) == _outcome(
                fold_sum_inject, parts, k, e
            ), (texts, k, e)
    for e in _elements(mk_sum_all(parts), w)[:40]:
        assert _outcome(coherence._sum_split, parts, e) == _outcome(
            fold_sum_split, parts, e
        ), (texts, e)


# ---------------------------------------------------------------------------
# long sums at the default recursion limit


def _last_summand_element(n, point=0):
    """The element of Id*n in its last summand, n-1 ESum(1, -) layers deep."""
    return coherence.top_inject(mk_mul_nat(D_ID, n), Right(point))


def _peel(elem, sides):
    """The element inside the given ESum layers, outermost first."""
    for side in sides:
        assert elem.__class__ is ESum and elem.side == side
        elem = elem.inner
    return elem


class TestLongSums:
    """Each map walks a 1,500-summand sum in a loop, not by recursion."""

    N = 1500

    def test_sum_inject(self, default_recursion_limit):
        a, x = mk_mul_nat(D_ID, self.N), Right(0)
        assert _peel(coherence.sum_inject((a, D_ID), 1, x), [1] * self.N) is x
        image = coherence.sum_inject((a, D_ID), 0, _last_summand_element(self.N))
        assert _peel(image, [1] * (self.N - 1) + [0]) == x
        assert coherence.sum_inject((a, D_ID), 0, ESum(0, x)).inner is x

    def test_sum_split(self, default_recursion_limit):
        a, x = mk_mul_nat(D_ID, self.N), Right(0)
        side, part = coherence._sum_split((a, D_ID), coherence.sum_inject((a, D_ID), 1, x))
        assert side == 1 and part is x
        image = coherence.sum_inject((a, D_ID), 0, _last_summand_element(self.N))
        side, part = coherence._sum_split((a, D_ID), image)
        assert side == 0 and _peel(part, [1] * (self.N - 1)) == x

    def test_prefix_inject(self, default_recursion_limit):
        d, x = mk_sum(mk_mul_nat(D_ID, self.N), D_ONE), Right(0)
        image = coherence.prefix_inject(d, _last_summand_element(self.N))
        assert _peel(image, [1] * (self.N - 1) + [0]) == x

    def test_limit_prefix_inject(self, default_recursion_limit):
        d, x = mk_sum(mk_mul_nat(D_ID, self.N), parse_dil("Id*w")), Right(0)
        for j in (1, 2):
            image = coherence.limit_prefix_inject(d, j, _last_summand_element(self.N + j))
            assert _peel(image, [1] * self.N) == ECopies(j - 1, x)

    def test_limit_prefix_inject_of_a_repetition(self, default_recursion_limit):
        # fund(3000) of Id*w is Id*3000, taken apart in one split over its
        # copies, so the call is linear in j
        d, elem = parse_dil("Id*w"), _last_summand_element(3000)
        start = time.process_time()
        image = coherence.limit_prefix_inject(d, 3000, elem)
        assert time.process_time() - start < 0.1
        assert image == ECopies(2999, Right(0))

    def test_frozen_value(self, default_recursion_limit):
        elem = coherence.top_inject(mk_mul_nat(D_ID, self.N), Left(ZERO))
        assert coherence.frozen_value(mk_mul_nat(D_ID, self.N), elem, OMEGA) == parse_ord("w*1499")
