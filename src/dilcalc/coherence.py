"""Explicit element translations witnessing the symbolic rewrites.

Every normalization in the expression layer corresponds to a natural
order isomorphism or embedding; this module constructs those maps on
elements so the checks can compare streams structurally instead of
trusting the rules.  A failed translation or a mismatched prefix is a
real soundness violation.
"""

from __future__ import annotations

from .analysis import decompose, otp_symbolic
from .errors import UnsupportedDecomposition
from .expr import (
    Band,
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    Dil,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    is_connected_atom,
    mk_band,
    mk_cnf_head,
    mk_mul_nat,
    mk_omega_comp,
    mk_sep_atom,
    mk_sep_plus,
    mk_shift,
    mk_sum,
    summands,
    to_str,
)
from .ordinal import (
    ZERO,
    Ord,
    ord_add,
    ord_left_sub,
    ord_mul_nat,
    ord_omega_pow,
    ord_pred,
)
from .semantics import (
    ECnf,
    EConst,
    ECopies,
    ESum,
    Left,
    important_position,
)


class TranslationGap(UnsupportedDecomposition):
    """A rewrite without an implemented element translation."""


# ---------------------------------------------------------------------------
# sums


def sum_inject(a: Dil, b: Dil, side: int, elem):
    """Element of ``a`` (side 0) or ``b`` (side 1) as an element of mk_sum(a, b)."""
    if isinstance(a, Const) and a.value.is_zero():
        return elem
    if isinstance(b, Const) and b.value.is_zero():
        return elem
    if isinstance(a, Sum):
        rest = mk_sum(a.right, b)
        if side == 0:
            if elem.side == 0:
                return sum_inject(a.left, rest, 0, elem.inner)
            return sum_inject(a.left, rest, 1, sum_inject(a.right, b, 0, elem.inner))
        return sum_inject(a.left, rest, 1, sum_inject(a.right, b, 1, elem))
    if isinstance(a, Const) and isinstance(b, Const):
        return elem if side == 0 else EConst(ord_add(a.value, elem.index))
    if isinstance(a, Const) and isinstance(b, Sum) and isinstance(b.left, Const):
        if side == 0:
            return ESum(0, elem)
        if elem.side == 0:
            return ESum(0, EConst(ord_add(a.value, elem.inner.index)))
        return elem
    return ESum(side, elem)


# ---------------------------------------------------------------------------
# ordinal values of frozen elements


def frozen_value(expr: Dil, elem, bound: Ord) -> Ord:
    """Rank of an element with only frozen positions inside expr([0, bound))."""
    if isinstance(expr, Const):
        return elem.index
    if isinstance(expr, IdNode):
        if not isinstance(elem.pos, Left):
            raise TranslationGap("live position in a frozen element")
        return elem.pos.value
    if isinstance(expr, Sum):
        if elem.side == 0:
            return frozen_value(expr.left, elem.inner, bound)
        return ord_add(
            otp_symbolic(expr.left, bound), frozen_value(expr.right, elem.inner, bound)
        )
    if isinstance(expr, MulOmega):
        base = otp_symbolic(expr.base, bound)
        return ord_add(
            ord_mul_nat(base, elem.copy), frozen_value(expr.base, elem.inner, bound)
        )
    if isinstance(expr, (OmegaComp, CnfHead)):
        total = ZERO
        for x, m in elem.pairs:
            v = frozen_value(expr.exponents, x, bound)
            total = ord_add(total, ord_mul_nat(ord_omega_pow(v), m))
        if isinstance(expr, OmegaComp):
            return total
        # a head holds only the sums at or above omega^otp(low); rank from there
        return ord_left_sub(ord_omega_pow(otp_symbolic(expr.low, bound)), total)
    if isinstance(expr, (Sep, Band)):
        raise TranslationGap("frozen values inside filtered nodes are not needed")
    raise TranslationGap(f"no frozen value rule for {expr!r}")


# ---------------------------------------------------------------------------
# shifts


def shift_translate(expr: Dil, g: Ord, elem):
    """Element of expr over [0,g)+X as an element of mk_shift(expr, g)."""
    if g.is_zero() or isinstance(expr, Const):
        return elem
    if isinstance(expr, IdNode):
        if isinstance(elem.pos, Left):
            return sum_inject(Const(g), D_ID, 0, EConst(elem.pos.value))
        return sum_inject(Const(g), D_ID, 1, elem)
    if isinstance(expr, Sum):
        part = expr.left if elem.side == 0 else expr.right
        return sum_inject(
            mk_shift(expr.left, g),
            mk_shift(expr.right, g),
            elem.side,
            shift_translate(part, g, elem.inner),
        )
    if isinstance(expr, MulOmega):
        return ECopies(elem.copy, shift_translate(expr.base, g, elem.inner))
    if isinstance(expr, OmegaComp):
        target = mk_omega_comp(mk_shift(expr.base, g))
        if not isinstance(target, OmegaComp):
            raise TranslationGap(f"shifted {to_str(expr)} renormalizes")
        return ECnf(
            tuple((shift_translate(expr.base, g, x), m) for x, m in elem.pairs)
        )
    if isinstance(expr, CnfHead):
        return ECnf(
            tuple(
                (
                    ESum(
                        x.side,
                        shift_translate(
                            expr.low if x.side == 0 else expr.high, g, x.inner
                        ),
                    ),
                    m,
                )
                for x, m in elem.pairs
            )
        )
    if isinstance(expr, (Sep, Band)):
        return elem  # ambient extension keeps the representation
    raise TranslationGap(f"no shift translation for {expr!r}")


def _sum_split(a: Dil, b: Dil, elem):
    """Which side of mk_sum(a, b) an element belongs to, with the part element."""
    if isinstance(a, Const) and a.value.is_zero():
        return 1, elem
    if isinstance(b, Const) and b.value.is_zero():
        return 0, elem
    if isinstance(a, Sum):
        side, inner = _sum_split(a.left, mk_sum(a.right, b), elem)
        if side == 0:
            return 0, ESum(0, inner)
        side2, inner2 = _sum_split(a.right, b, inner)
        if side2 == 0:
            return 0, ESum(1, inner2)
        return 1, inner2
    if isinstance(a, Const) and isinstance(b, Const):
        if elem.index < a.value:
            return 0, elem
        return 1, EConst(ord_left_sub(a.value, elem.index))
    if isinstance(a, Const) and isinstance(b, Sum) and isinstance(b.left, Const):
        if elem.side == 0:
            if elem.inner.index < a.value:
                return 0, elem.inner
            return 1, ESum(0, EConst(ord_left_sub(a.value, elem.inner.index)))
        return 1, elem
    return elem.side, elem.inner


# ---------------------------------------------------------------------------
# splits of connected atoms


def plus_translate(atom: Dil, g: Ord, elem):
    """Upper-split element as an element of mk_sep_plus(atom, g)."""
    if g.is_zero():
        return elem
    if isinstance(atom, IdNode):
        return elem
    if isinstance(atom, CnfHead):
        low_t = mk_shift(atom.low, g)
        band_t = mk_band(atom.high, ZERO, g, g)
        pairs = []
        for x, m in elem.pairs:
            if x.side == 0:
                new = ESum(0, sum_inject(low_t, band_t, 0, shift_translate(atom.low, g, x.inner)))
            else:
                mi = important_position(atom.high, x.inner)
                if isinstance(mi, Left) and mi.value < g:
                    if isinstance(band_t, Const):
                        frozen = EConst(frozen_value(atom.high, x.inner, g))
                    else:
                        frozen = x.inner
                    new = ESum(0, sum_inject(low_t, band_t, 1, frozen))
                else:
                    new = ESum(1, plus_translate(atom.high, g, x.inner))
            pairs.append((new, m))
        return ECnf(tuple(pairs))
    raise TranslationGap(f"no upper-split translation for {atom!r}")


def minus_translate(atom: Dil, g: Ord, elem):
    """Lower-split element as an element of mk_band(atom, 0, g, g)."""
    target = mk_band(atom, ZERO, g, g)
    if isinstance(target, Const):
        return EConst(frozen_value(atom, elem, g))
    return elem


def split_translate(atom: Dil, g: Ord, elem):
    """Element of atom over [0,g)+X into the split sum (lower + upper)."""
    minus, plus = mk_band(atom, ZERO, g, g), mk_sep_plus(atom, g)
    mi = important_position(atom, elem)
    if isinstance(mi, Left) and mi.value < g:
        return sum_inject(minus, plus, 0, minus_translate(atom, g, elem))
    return sum_inject(minus, plus, 1, plus_translate(atom, g, elem))


def sep_translate(atom: Dil, g: Ord, elem):
    """Separated element (filter semantics) into mk_sep_atom(atom, g, g)."""
    target = mk_sep_atom(atom, g, g)
    if isinstance(target, Const):
        return EConst(frozen_value(atom, elem, g))
    return elem


# ---------------------------------------------------------------------------
# decomposition translations


def prefix_inject(d: Dil, elem):
    """Element of decompose(d).prefix as an element of d."""
    dec = decompose(d)
    if dec.kind != "succ":
        raise TranslationGap("prefix injection needs a successor decomposition")
    if isinstance(d, Const):
        return elem
    if isinstance(d, IdNode):
        raise TranslationGap("the identity expression has an empty prefix")
    if isinstance(d, Sum):
        inner_dec = decompose(d.right)
        side, part = _sum_split(d.left, inner_dec.prefix, elem)
        if side == 0:
            return ESum(0, part)
        return ESum(1, prefix_inject(d.right, part))
    if isinstance(d, OmegaComp):
        inner_dec = decompose(d.base)
        return _oc_inject(
            inner_dec.prefix, elem, lambda x: prefix_inject(d.base, x), d.base
        )
    if isinstance(d, (Sep, Band)):
        return elem
    if isinstance(d, CnfHead) and not is_connected_atom(d):
        inner_dec = decompose(d.high)
        if inner_dec.kind != "succ" or not isinstance(
            mk_cnf_head(d.low, inner_dec.prefix), CnfHead
        ):
            raise TranslationGap("composite head prefix renormalizes")
        return _inject_high(elem, lambda x: prefix_inject(d.high, x))
    raise TranslationGap(f"no prefix injection for {d!r}")


def top_inject(d: Dil, elem):
    """Element of decompose(d).top as an element of d."""
    if is_connected_atom(d):
        return elem
    dec = decompose(d)
    if dec.kind != "succ":
        raise TranslationGap("top injection needs a successor decomposition")
    if isinstance(d, Const):
        return EConst(ord_pred(d.value))
    if isinstance(d, Sum):
        # the top of a sum is the top of its last summand, one ESum(1, -) per
        # summand before it; a loop, so a long sum costs no recursion depth
        parts = summands(d)
        inner = top_inject(parts[-1], elem)
        for _ in parts[:-1]:
            inner = ESum(1, inner)
        return inner
    if isinstance(d, OmegaComp):
        # top is mk_cnf_head(prefix, top-of-base); exponents land in the base
        pairs = []
        for x, m in elem.pairs:
            if x.side == 0:
                pairs.append((prefix_inject(d.base, x.inner), m))
            else:
                pairs.append((top_inject(d.base, x.inner), m))
        return ECnf(tuple(pairs))
    if isinstance(d, CnfHead):
        inner_dec = decompose(d.high)
        pairs = []
        for x, m in elem.pairs:
            if x.side == 0:
                side, part = _sum_split(d.low, inner_dec.prefix, x.inner)
                if side == 0:
                    pairs.append((ESum(0, part), m))
                else:
                    pairs.append((ESum(1, prefix_inject(d.high, part)), m))
            else:
                pairs.append((ESum(1, top_inject(d.high, x.inner)), m))
        return ECnf(tuple(pairs))
    raise TranslationGap(f"no top injection for {d!r}")


def _inject_high(elem, inject):
    """A head element with its high-part exponents mapped by ``inject``."""
    return ECnf(
        tuple((x if x.side == 0 else ESum(1, inject(x.inner)), m) for x, m in elem.pairs)
    )


def _oc_inject(p: Dil, elem, inject_exp, base: Dil):
    """Element of mk_omega_comp(p) as a formal sum over ``base`` via inject_exp."""
    target = mk_omega_comp(p)
    if isinstance(target, OmegaComp):
        return ECnf(tuple((inject_exp(x), m) for x, m in elem.pairs))
    if isinstance(target, Const):
        # p is a constant; read the index off in base-omega form
        return _cnf_of_value(p, elem.index, inject_exp)
    if isinstance(target, MulOmega):
        pdec = decompose(p)
        if pdec.kind != "succ" or pdec.top != D_ONE:
            raise TranslationGap("unexpected repetition normal form")
        unit = top_inject(p, EConst(ZERO))  # the last unit of p
        inner = _oc_inject(
            pdec.prefix,
            elem.inner,
            lambda x: inject_exp(prefix_inject(p, x)),
            base,
        )
        if elem.copy == 0:
            return inner
        lead = (inject_exp(unit), elem.copy)
        return ECnf((lead,) + inner.pairs)
    raise TranslationGap(f"no omega-composition translation onto {to_str(target)}")


def _cnf_of_value(p: Dil, v: Ord, inject_exp):
    """The v-th formal sum over the constant expression p."""
    pairs = []
    for exp, coeff in v.terms:
        pairs.append((inject_exp(_const_element_of(p, exp)), coeff))
    return ECnf(tuple(pairs))


def _const_element_of(p: Dil, v: Ord):
    """The element of rank v inside a constant-valued expression."""
    if isinstance(p, Const):
        return EConst(v)
    if isinstance(p, Sum):
        left_otp = otp_symbolic(p.left, ZERO)
        if v < left_otp:
            return ESum(0, _const_element_of(p.left, v))
        return ESum(1, _const_element_of(p.right, ord_left_sub(left_otp, v)))
    raise TranslationGap(f"no rank inverse for {p!r}")


def limit_prefix_inject(d: Dil, j: int, elem):
    """Element of decompose(d).fund(j) as an element of d."""
    dec = decompose(d)
    if dec.kind != "limit":
        raise TranslationGap("limit injection needs a limit decomposition")
    if isinstance(d, Const):
        return elem
    if isinstance(d, Sum):
        inner = decompose(d.right)
        side, part = _sum_split(d.left, inner.fund(j), elem)
        if side == 0:
            return ESum(0, part)
        return ESum(1, limit_prefix_inject(d.right, j, part))
    if isinstance(d, MulOmega):
        copy, current = 0, elem
        remaining = j
        while remaining > 1:
            side, part = _sum_split(d.base, mk_mul_nat(d.base, remaining - 1), current)
            if side == 0:
                return ECopies(copy, part)
            copy, current, remaining = copy + 1, part, remaining - 1
        if remaining == 1:
            return ECopies(copy, current)
        raise TranslationGap("empty repetition prefix has no elements")
    if isinstance(d, OmegaComp):
        inner = decompose(d.base)
        return _oc_inject(
            inner.fund(j), elem, lambda x: limit_prefix_inject(d.base, j, x), d.base
        )
    if isinstance(d, (Sep, Band)):
        return elem
    if isinstance(d, CnfHead):
        if decompose(d.high).kind != "limit":
            # the limit comes from the repeated unit top of the high part
            raise TranslationGap(f"no limit injection for {to_str(d)}")
        return _inject_high(elem, lambda x: limit_prefix_inject(d.high, j, x))
    raise TranslationGap(f"no limit injection for {d!r}")
