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
    D_ONE,
    Dil,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    _split_trailing,
    is_connected_atom,
    mk_band,
    mk_cnf_head,
    mk_mul_nat,
    mk_omega_comp,
    mk_sep_atom,
    mk_sep_plus,
    mk_shift,
    mk_sum_all,
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
    ECopies,
    ESum,
    Left,
    _place,
    _sum_index,
    important_position,
)


class TranslationGap(UnsupportedDecomposition):
    """A rewrite without an implemented element translation."""


# ---------------------------------------------------------------------------
# sums


def sum_inject(a: Dil, b: Dil, side: int, elem):
    """Element of ``a`` (side 0) or ``b`` (side 1) as an element of mk_sum(a, b).

    The summands of the sum are those of ``a`` and then those of ``b``, but
    for ``a``'s last and ``b``'s first, which merge when both are constants;
    an element of ``b``'s first then lies above ``a``'s last's value."""
    if isinstance(a, Const) and a.value.is_zero():
        return elem
    if isinstance(b, Const) and b.value.is_zero():
        return elem
    pa, pb = summands(a), summands(b)
    merged = pa[-1].__class__ is Const and pb[0].__class__ is Const
    i, inner = _sum_index(len(pa if side == 0 else pb), elem)
    if side == 0 and i < len(pa) - 1:
        return elem  # coded alike in ``a`` and in the sum
    if side == 1:
        if merged and i == 0:
            inner = ord_add(pa[-1].value, inner)
        i += len(pa) - merged
    return _place(inner, i, len(pa) + len(pb) - merged)


# ---------------------------------------------------------------------------
# ordinal values of frozen elements


def frozen_value(expr: Dil, elem, bound: Ord) -> Ord:
    """Rank of an element with only frozen positions inside expr([0, bound))."""
    if isinstance(expr, Const):
        return elem
    if isinstance(expr, IdNode):
        if not isinstance(elem, Left):
            raise TranslationGap("live position in a frozen element")
        return elem.value
    if isinstance(expr, Sum):
        # the ranks of the earlier summands, added up in a loop
        i, elem = _sum_index(len(expr.parts), elem)
        total = ZERO
        for part in expr.parts[:i]:
            total = ord_add(total, otp_symbolic(part, bound))
        return ord_add(total, frozen_value(expr.parts[i], elem, bound))
    if isinstance(expr, MulOmega):
        base = otp_symbolic(expr.base, bound)
        return ord_add(
            ord_mul_nat(base, elem.copy), frozen_value(expr.base, elem.inner, bound)
        )
    if isinstance(expr, (OmegaComp, CnfHead)):
        total = ZERO
        for x, m in elem:
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
        # mk_shift gives Const(g)+Id: a frozen position is an index of Const(g)
        return ESum(0, elem.value) if isinstance(elem, Left) else ESum(1, elem)
    if isinstance(expr, Sum):
        # the shifted summand's element among the shifted summands from it
        # on, then after those before it
        i, elem = _sum_index(len(expr.parts), elem)
        shifted = [mk_shift(part, g) for part in expr.parts]
        image = shift_translate(expr.parts[i], g, elem)
        image = sum_inject(shifted[i], mk_sum_all(shifted[i + 1:]), 0, image)
        if i:
            image = sum_inject(mk_sum_all(shifted[:i]), mk_sum_all(shifted[i:]), 1, image)
        return image
    if isinstance(expr, MulOmega):
        return ECopies(elem.copy, shift_translate(expr.base, g, elem.inner))
    if isinstance(expr, OmegaComp):
        target = mk_omega_comp(mk_shift(expr.base, g))
        if not isinstance(target, OmegaComp):
            raise TranslationGap(f"shifted {to_str(expr)} renormalizes")
        return tuple((shift_translate(expr.base, g, x), m) for x, m in elem)
    if isinstance(expr, CnfHead):
        return tuple(
            (ESum(x.side, shift_translate(expr.low if x.side == 0 else expr.high, g, x.inner)), m)
            for x, m in elem
        )
    if isinstance(expr, (Sep, Band)):
        return elem  # ambient extension keeps the representation
    raise TranslationGap(f"no shift translation for {expr!r}")


def _sum_split(a: Dil, b: Dil, elem):
    """Which side of mk_sum(a, b) an element belongs to, with the part
    element; the inverse of ``sum_inject``."""
    if isinstance(a, Const) and a.value.is_zero():
        return 1, elem
    if isinstance(b, Const) and b.value.is_zero():
        return 0, elem
    pa, pb = summands(a), summands(b)
    merged = pa[-1].__class__ is Const and pb[0].__class__ is Const
    i, inner = _sum_index(len(pa) + len(pb) - merged, elem)
    if i < len(pa) - 1:
        return 0, elem  # coded alike in the sum and in ``a``
    if merged and i == len(pa) - 1 and not inner < pa[-1].value:
        return 1, _place(ord_left_sub(pa[-1].value, inner), 0, len(pb))
    if i < len(pa):
        return 0, _place(inner, i, len(pa))
    return 1, _place(inner, i - len(pa) + merged, len(pb))


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
        for x, m in elem:
            if x.side == 0:
                new = ESum(0, sum_inject(low_t, band_t, 0, shift_translate(atom.low, g, x.inner)))
            else:
                mi = important_position(atom.high, x.inner)
                if isinstance(mi, Left) and mi.value < g:
                    frozen = _cut_translate(band_t, atom.high, g, x.inner)
                    new = ESum(0, sum_inject(low_t, band_t, 1, frozen))
                else:
                    new = ESum(1, plus_translate(atom.high, g, x.inner))
            pairs.append((new, m))
        return tuple(pairs)
    raise TranslationGap(f"no upper-split translation for {atom!r}")


def _cut_translate(target: Dil, atom: Dil, g: Ord, elem):
    """An element of ``atom`` below the cut ``g`` as an element of ``target``,
    the atom's part below the cut: its frozen rank when that part is a
    constant, else the element itself."""
    if isinstance(target, Const):
        return frozen_value(atom, elem, g)
    return elem


def minus_translate(atom: Dil, g: Ord, elem):
    """Lower-split element as an element of mk_band(atom, 0, g, g)."""
    return _cut_translate(mk_band(atom, ZERO, g, g), atom, g, elem)


def split_translate(atom: Dil, g: Ord, elem):
    """Element of atom over [0,g)+X into the split sum (lower + upper)."""
    minus, plus = mk_band(atom, ZERO, g, g), mk_sep_plus(atom, g)
    mi = important_position(atom, elem)
    if isinstance(mi, Left) and mi.value < g:
        return sum_inject(minus, plus, 0, minus_translate(atom, g, elem))
    return sum_inject(minus, plus, 1, plus_translate(atom, g, elem))


def sep_translate(atom: Dil, g: Ord, elem):
    """Separated element (filter semantics) into mk_sep_atom(atom, g, g)."""
    return _cut_translate(mk_sep_atom(atom, g, g), atom, g, elem)


# ---------------------------------------------------------------------------
# decomposition translations


def prefix_inject(d: Dil, elem):
    """Element of decompose(d).prefix as an element of d."""
    return _part_inject(d, None, elem)


def limit_prefix_inject(d: Dil, j: int, elem):
    """Element of decompose(d).fund(j) as an element of d."""
    return _part_inject(d, j, elem)


def _part_inject(d: Dil, j, elem):
    """Element of an initial part of d's decomposition as an element of d:
    of the successor view's prefix when ``j`` is None, else of the limit
    view's fund(j).  Both views take d apart along the same nodes."""
    succ = j is None
    if decompose(d).kind != ("succ" if succ else "limit"):
        raise TranslationGap("prefix injection needs a successor decomposition" if succ
                             else "limit injection needs a limit decomposition")
    if isinstance(d, Sum):
        # the part is the summands before the last, then the last's part
        rest, last = _split_trailing(d)
        dec = decompose(last)
        side, part = _sum_split(rest, dec.prefix if succ else dec.fund(j), elem)
        if side == 1:
            part = _part_inject(last, j, part)
        return sum_inject(rest, last, side, part)
    if (isinstance(d, Const) or isinstance(d, Band) and ord_left_sub(d.lo, d.hi).is_limit()
            or isinstance(d, Sep) and d.cut.is_limit() and d.amb == d.cut):
        # a part is a band [lo, lo+f(j)) of the same base and ambient, or the
        # separation at the cut f(j); a successor's prefix is a sum with a
        # slice, and a part of a separation with positions above its cut
        # holds them lower, so those have no injection here
        return elem
    if isinstance(d, OmegaComp):
        base = decompose(d.base)
        part = base.prefix if succ else base.fund(j)
        return _oc_inject(part, elem, lambda x: _part_inject(d.base, j, x))
    if isinstance(d, CnfHead) and not is_connected_atom(d):
        high = decompose(d.high)
        if succ:
            if high.kind != "succ" or not isinstance(mk_cnf_head(d.low, high.prefix), CnfHead):
                raise TranslationGap("composite head prefix renormalizes")
        elif high.kind != "limit":
            # the limit comes from the repeated unit top of the high part
            raise TranslationGap(f"no limit injection for {to_str(d)}")
        return _inject_high(elem, lambda x: _part_inject(d.high, j, x))
    if isinstance(d, IdNode):
        raise TranslationGap("the identity expression has an empty prefix")
    if isinstance(d, MulOmega):
        copy, current, remaining = 0, elem, j
        while remaining > 1:
            side, part = _sum_split(d.base, mk_mul_nat(d.base, remaining - 1), current)
            if side == 0:
                return ECopies(copy, part)
            copy, current, remaining = copy + 1, part, remaining - 1
        if remaining == 1:
            return ECopies(copy, current)
        raise TranslationGap("empty repetition prefix has no elements")
    raise TranslationGap(f"no {'prefix' if succ else 'limit'} injection for {d!r}")


def top_inject(d: Dil, elem):
    """Element of decompose(d).top as an element of d."""
    if is_connected_atom(d):
        return elem
    dec = decompose(d)
    if dec.kind != "succ":
        raise TranslationGap("top injection needs a successor decomposition")
    if isinstance(d, Const):
        return ord_pred(d.value)
    if isinstance(d, Sum):
        # the top of a sum is the top of its last summand, in that summand's
        # place; a loop, so a long sum costs no recursion depth
        parts = summands(d)
        return _place(top_inject(parts[-1], elem), len(parts) - 1, len(parts))
    if isinstance(d, OmegaComp):
        # top is mk_cnf_head(prefix, top-of-base); exponents land in the base
        pairs = []
        for x, m in elem:
            if x.side == 0:
                pairs.append((prefix_inject(d.base, x.inner), m))
            else:
                pairs.append((top_inject(d.base, x.inner), m))
        return tuple(pairs)
    if isinstance(d, CnfHead):
        inner_dec = decompose(d.high)
        pairs = []
        for x, m in elem:
            if x.side == 0:
                side, part = _sum_split(d.low, inner_dec.prefix, x.inner)
                if side == 0:
                    pairs.append((ESum(0, part), m))
                else:
                    pairs.append((ESum(1, prefix_inject(d.high, part)), m))
            else:
                pairs.append((ESum(1, top_inject(d.high, x.inner)), m))
        return tuple(pairs)
    raise TranslationGap(f"no top injection for {d!r}")


def _inject_high(elem, inject):
    """A head element with its high-part exponents mapped by ``inject``."""
    return tuple((x if x.side == 0 else ESum(1, inject(x.inner)), m) for x, m in elem)


def _oc_inject(p: Dil, elem, inject_exp):
    """Element of mk_omega_comp(p) as a formal sum with exponents mapped by inject_exp."""
    target = mk_omega_comp(p)
    if isinstance(target, OmegaComp):
        return tuple((inject_exp(x), m) for x, m in elem)
    if isinstance(target, Const):
        # only a constant p composes to a constant: the index in base-omega form
        return tuple((inject_exp(exp), m) for exp, m in elem.terms)
    if isinstance(target, MulOmega):
        pdec = decompose(p)
        if pdec.kind != "succ" or pdec.top != D_ONE:
            raise TranslationGap("unexpected repetition normal form")
        unit = top_inject(p, ZERO)  # the last unit of p
        inner = _oc_inject(pdec.prefix, elem.inner, lambda x: inject_exp(prefix_inject(p, x)))
        if elem.copy == 0:
            return inner
        lead = (inject_exp(unit), elem.copy)
        return (lead,) + inner
    raise TranslationGap(f"no omega-composition translation onto {to_str(target)}")

