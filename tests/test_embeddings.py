"""Constructive prefix embeddings for the comparison lemmas."""

import itertools

import pytest

from dilcalc.analysis import decompose, otp_symbolic, sep
from dilcalc.coherence import frozen_value
from dilcalc.expr import (
    Band,
    CnfHead,
    Const,
    D_ID,
    D_ZERO,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    mk_band,
    mk_omega_comp,
    mk_sep_atom,
    mk_shift,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import LESS, OMEGA, ZERO, from_int, ord_add, parse_ord
from dilcalc.psi import PsiOrder
from dilcalc.semantics import (
    ESum,
    Left,
    Right,
    compare_elements,
    prefix_elements,
    validate_element,
)
from test_semantics import halves

w = OMEGA
H0 = CnfHead(D_ZERO, D_ID)
HID = CnfHead(D_ID, D_ID)


def _map_lefts(expr, elem, fn):
    """Rewrite frozen positions through fn, keeping live points."""
    if isinstance(expr, Const):
        return elem
    if isinstance(expr, IdNode):
        if isinstance(elem, Left):
            return Left(fn(elem.value))
        return elem
    if isinstance(expr, Sum):
        left, right = halves(expr)
        part = left if elem.side == 0 else right
        return ESum(elem.side, _map_lefts(part, elem.inner, fn))
    if isinstance(expr, MulOmega):
        from dilcalc.semantics import ECopies

        return ECopies(elem.copy, _map_lefts(expr.base, elem.inner, fn))
    if isinstance(expr, OmegaComp):
        return tuple((_map_lefts(expr.base, x, fn), m) for x, m in elem)
    if isinstance(expr, CnfHead):
        return tuple(
            (
                ESum(
                    x.side,
                    _map_lefts(expr.low if x.side == 0 else expr.high, x.inner, fn),
                ),
                m,
            )
            for x, m in elem
        )
    if isinstance(expr, (Sep, Band)):
        return _map_lefts(expr.base, elem, fn)
    raise AssertionError(f"unhandled {expr!r}")


class TestSepMonotone:
    """Smaller separation cuts embed into larger ones."""

    @pytest.mark.parametrize(
        "atom,small,large",
        [
            (D_ID, "2", "5"),
            (D_ID, "2", "w"),
            (H0, "1", "w"),
            (HID, "1", "w"),
            (HID, "2", "w"),
        ],
    )
    def test_inclusion(self, atom, small, large):
        lo = mk_sep_atom(atom, parse_ord(small), parse_ord(small))
        hi = mk_sep_atom(atom, parse_ord(large), parse_ord(large))
        elements = prefix_elements(lo, 1, 8)
        if not elements:
            pytest.skip("source too small")
        if not isinstance(lo, (Const, Sep)) or type(lo) is not type(hi):
            pytest.skip("mixed shapes")
        # the inclusion is the identity on elements: its images are the
        # target's prefix, in the target's order
        target = prefix_elements(hi, 1, len(elements))
        assert elements == target
        for a, b in itertools.combinations(target, 2):
            assert compare_elements(hi, a, b) == LESS


class TestLowerSplitIntoShiftedSeparation:
    """The lower split embeds into the shifted separation."""

    def test_identity_atom(self):
        # both sides are the same frozen constant
        src = mk_band(D_ID, ZERO, w, w)
        dst = mk_shift(mk_sep_atom(D_ID, w, w), w)
        assert src == Const(w) and dst == Const(w)

    def test_composite_head(self):
        g = w
        src = mk_band(HID, ZERO, g, g)
        dst = mk_shift(mk_sep_atom(HID, g, g), g)
        assert isinstance(src, Band) and isinstance(dst, Sep)
        elements = prefix_elements(src, 1, 25)

        def bump(elem):
            from dilcalc.semantics import important_position

            mi = important_position(HID, elem).value
            return _map_lefts(HID, elem, lambda q: q if q <= mi else ord_add(g, q))

        images = [bump(e) for e in elements]
        for img in images:
            validate_element(dst, img)
        for a, b in itertools.combinations(images, 2):
            assert compare_elements(dst, a, b) == -1


class TestShiftedSeparationComposition:
    """Separating a shifted expression lands inside the larger separation."""

    @pytest.mark.parametrize("atom", [D_ID, H0])
    def test_frozen_atoms_coincide(self, atom):
        g, d = from_int(2), w
        source = sep(mk_shift(atom, g), d)
        target = mk_shift(mk_sep_atom(atom, ord_add(g, d), ord_add(g, d)), g)
        sv = otp_symbolic(source, ZERO)
        tv = otp_symbolic(target, ZERO)
        assert sv <= tv
        a = prefix_elements(source, 1, 10)
        b = prefix_elements(target, 1, 10)
        # frozen orders: the source prefix is an initial segment of the target
        assert [frozen_value(source, e, ZERO) for e in a] == [
            frozen_value(target, e, ZERO) for e in b[: len(a)]
        ]

    def test_composite_head(self):
        g, d = from_int(2), w
        shifted = mk_shift(HID, g)
        dec = decompose(shifted)
        top = dec.top
        src = Sep(top, d, d)
        dst = Sep(HID, ord_add(g, d), ord_add(ord_add(g, d), g))

        def translate(elem):
            pairs = []
            for x, m in elem:
                inner = x.inner
                if x.side == 1:
                    pairs.append((ESum(1, _bump_id(inner, g)), m))
                else:
                    pairs.append((_route_low(inner, g), m))
            return tuple(pairs)

        def _bump_id(id_elem, g):
            if isinstance(id_elem, Left):
                return Left(ord_add(g, id_elem.value))
            return id_elem

        def _route_low(low_elem, g):
            # low part of the shifted-head top: frozen left copy, then the
            # live left copy, then the frozen right copy below the shift
            if low_elem.side == 0:
                return ESum(0, Left(low_elem.inner))
            inner = low_elem.inner
            if inner.side == 0:
                return ESum(0, _bump_id(inner.inner, g))
            return ESum(1, Left(inner.inner))

        elements = prefix_elements(src, 1, 20)
        images = [translate(e) for e in elements]
        for img in images:
            validate_element(dst, img)
        for a, b in itertools.combinations(images, 2):
            assert compare_elements(dst, a, b) == -1


class TestHeadsOfSeparations:
    """Formal sums over a separation embed into the separated formal sums."""

    def test_identity_base(self):
        g = w
        src = mk_omega_comp(sep(D_ID, g))
        dst = sep(mk_omega_comp(D_ID), g)
        assert src == Const(parse_ord("w^w")) and dst == Const(parse_ord("w^w"))

    def test_two_copies(self):
        g = w
        base = parse_dil("Id*2")
        src = mk_omega_comp(sep(base, g))  # omega over Id+Const(w)
        dst = sep(mk_omega_comp(base), g)
        assert isinstance(src, OmegaComp)
        assert "sep(omega_head(Id;Id),w)" in to_str(dst)

        def translate(elem):
            # exponents over Id+Const(w): left Id copy stays live, constant
            # part becomes the frozen right copy
            if not elem:
                return None  # lands in the prefix part; checked separately
            lead = elem[0][0]
            pairs = []
            for x, m in elem:
                if x.side == 0:
                    pairs.append((ESum(0, x.inner), m))
                else:
                    pairs.append((ESum(1, Left(x.inner)), m))
            if lead.side == 0:
                return tuple(x for x in pairs)  # all in the left copy
            return tuple(pairs)

        from dilcalc.semantics import EnumBudget, enum_elements

        budget = EnumBudget(const_cap=4, cnf_len=2, cnf_mult=2)
        elements = enum_elements(src, 1, budget)
        lead_high = [e for e in elements if e and e[0][0].side == 1]
        assert lead_high, "the enumeration should contain high leads"
        sep_target = Sep(HID, g, g)
        images = [translate(e) for e in lead_high]
        for img in images:
            validate_element(sep_target, img)
        for a, b in itertools.combinations(images, 2):
            assert compare_elements(sep_target, a, b) in (-1, 1)
        # order preserved
        for (e1, i1), (e2, i2) in itertools.combinations(zip(lead_high, images), 2):
            assert compare_elements(src, e1, e2) == compare_elements(sep_target, i1, i2)


class TestCollapseSumSplit:
    """The collapse of a sum splits into the parts of the proof's embedding."""

    def test_constant_parts(self):
        combined = PsiOrder(parse_dil("Const(2)+Const(3)"), ZERO)
        all_terms = combined.enum(2)
        assert len(all_terms) == 5
        first = PsiOrder(parse_dil("Const(2)"), ZERO).enum(2)
        second = PsiOrder(parse_dil("Const(3)"), from_int(2)).enum(2)
        images = list(first)
        images += [ord_add(from_int(2), t) for t in second]
        assert images == all_terms

    def test_unit_plus_identity(self):
        gamma = from_int(1)
        combined = PsiOrder(parse_dil("1+Id"), gamma)
        first = PsiOrder(parse_dil("1"), gamma)
        delta = ord_add(gamma, from_int(1))  # gamma + collapse of the unit
        second = PsiOrder(D_ID, delta)
        first_terms = first.enum(2)

        def map_second(t):
            # positions below gamma stay; positions in [gamma, delta) become
            # sub-terms from the first part; nested terms recurse
            if isinstance(t, Left):
                v = t.value
                if v < gamma:
                    return ESum(1, Left(v))
                idx = (v.as_int() - gamma.as_int())
                return ESum(1, Right(ESum(0, first_terms[idx])))
            return ESum(1, Right(map_second(t.point)))

        combined_terms = combined.enum(3)
        images = [ESum(0, t) for t in first_terms]
        images += [map_second(t) for t in second.enum(3)]
        for img in images:
            assert combined.valid(img)
        ordered = sorted(
            images, key=lambda t: sum(1 for u in images if combined.compare(u, t) == -1)
        )
        assert ordered[: len(combined_terms)] == combined_terms[: len(ordered)]
