"""Explicit element translations witnessing the symbolic rewrites.

Every normalization in the expression layer corresponds to a natural
order isomorphism or embedding; this module constructs those maps on
elements so the checks can compare streams structurally instead of
trusting the rules.  A failed translation or a mismatched prefix is a
real soundness violation.

A sum of parts concatenates their summands but for the constants that meet
at a seam, which merge: ``_seams`` states that rule, and ``sum_inject`` /
``_sum_split`` are its two directions.  A flat sum's elements are read and
built only through ``semantics._sum_index`` / ``_place``; a head's exponents
keep their two-part ``ESum`` sides.
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
    is_connected_atom,
    mk_band,
    mk_cnf_head,
    mk_omega_comp,
    mk_sep_atom,
    mk_sep_plus,
    mk_shift,
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


def _seams(parts):
    """Where each of ``parts`` lands in the normal form of their sum: the
    index there of its first summand and the value of the constant that
    summand merged into (None if none), or None for a zero part, which has
    no summand; and the number of summands of the sum."""
    seams, n, tail = [], 0, None
    for part in parts:
        ps = summands(part)
        if ps[0].__class__ is Const and ps[0].value.is_zero():
            seams.append(None)
            continue
        merged = tail is not None and ps[0].__class__ is Const
        seams.append((n - 1, tail) if merged else (n, None))
        n += len(ps) - merged
        if ps[-1].__class__ is not Const:
            tail = None
        else:  # a lone constant merged into the tail grows it
            tail = ord_add(tail, ps[0].value) if merged and len(ps) == 1 else ps[-1].value
    return seams, n


def sum_inject(parts, k: int, elem):
    """Element of ``parts[k]`` as an element of the sum of ``parts``: its
    summands from the part's first summand's index on, the first above the
    constant it merged into."""
    seams, n = _seams(parts)
    first, below = seams[k]
    i, inner = _sum_index(len(summands(parts[k])), elem)
    if i == 0 and below is not None:
        inner = ord_add(below, inner)
    return _place(inner, first + i, n)


def _sum_split(parts, elem):
    """Which of ``parts`` an element of their sum lies in, with its element
    there; the inverse of ``sum_inject``."""
    seams, n = _seams(parts)
    i, inner = _sum_index(n, elem)
    for k in range(len(parts) - 1, -1, -1):
        if seams[k] is None or seams[k][0] > i:
            continue
        first, below = seams[k]
        if first == i and below is not None:
            if inner < below:
                continue  # below the merge: in an earlier part
            inner = ord_left_sub(below, inner)
        return k, _place(inner, i - first, len(summands(parts[k])))
    raise TranslationGap("no part holds the element")


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
        return _place(elem.value, 0, 2) if isinstance(elem, Left) else _place(elem, 1, 2)
    if isinstance(expr, Sum):
        # the shifted summand's element among the shifted summands
        i, elem = _sum_index(len(expr.parts), elem)
        shifted = [mk_shift(part, g) for part in expr.parts]
        return sum_inject(shifted, i, shift_translate(expr.parts[i], g, elem))
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


# ---------------------------------------------------------------------------
# splits of connected atoms


def plus_translate(atom: Dil, g: Ord, elem):
    """Upper-split element as an element of mk_sep_plus(atom, g)."""
    if g.is_zero():
        return elem
    if isinstance(atom, IdNode):
        return elem
    if isinstance(atom, CnfHead):
        low = (mk_shift(atom.low, g), mk_band(atom.high, ZERO, g, g))
        pairs = []
        for x, m in elem:
            if x.side == 0:
                new = ESum(0, sum_inject(low, 0, shift_translate(atom.low, g, x.inner)))
            else:
                mi = important_position(atom.high, x.inner)
                if isinstance(mi, Left) and mi.value < g:
                    frozen = _cut_translate(low[1], atom.high, g, x.inner)
                    new = ESum(0, sum_inject(low, 1, frozen))
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


def split_translate(atom: Dil, g: Ord, elem):
    """Element of atom over [0,g)+X into the split sum (lower + upper)."""
    parts = (mk_band(atom, ZERO, g, g), mk_sep_plus(atom, g))
    mi = important_position(atom, elem)
    if isinstance(mi, Left) and mi.value < g:
        return sum_inject(parts, 0, _cut_translate(parts[0], atom, g, elem))
    return sum_inject(parts, 1, plus_translate(atom, g, elem))


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
    dec = decompose(d.parts[-1] if d.__class__ is Sum else d)  # a sum's kind is its last's
    if dec.kind != ("succ" if succ else "limit"):
        raise TranslationGap("prefix injection needs a successor decomposition" if succ
                             else "limit injection needs a limit decomposition")
    if d.__class__ is Sum:
        # the part is the summands before the last, then the last's part
        parts = d.parts
        k, elem = _sum_split((*parts[:-1], dec.prefix if succ else dec.fund(j)), elem)
        if k == len(parts) - 1:
            elem = _part_inject(parts[-1], j, elem)
        return _place(elem, k, len(parts))
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
        # fund(j) is j copies of the base
        return ECopies(*_sum_split((d.base,) * j, elem))
    raise TranslationGap(f"no {'prefix' if succ else 'limit'} injection for {d!r}")


def top_inject(d: Dil, elem):
    """Element of decompose(d).top as an element of d."""
    if is_connected_atom(d):
        return elem
    if d.__class__ is Sum:
        # the top of a sum is the top of its last summand, in that summand's
        # place, and so is its decomposition kind
        return _place(top_inject(d.parts[-1], elem), len(d.parts) - 1, len(d.parts))
    if decompose(d).kind != "succ":
        raise TranslationGap("top injection needs a successor decomposition")
    if isinstance(d, Const):
        return ord_pred(d.value)
    if isinstance(d, OmegaComp):
        # top is mk_cnf_head(prefix, top-of-base); exponents land in the base
        return tuple(((top_inject if x.side else prefix_inject)(d.base, x.inner), m)
                     for x, m in elem)
    if isinstance(d, CnfHead):
        # top is mk_cnf_head(low + the high part's prefix, its top)
        prefix, pairs = decompose(d.high).prefix, []
        for x, m in elem:
            if x.side == 1:
                x = ESum(1, top_inject(d.high, x.inner))
            else:
                side, part = _sum_split((d.low, prefix), x.inner)
                x = ESum(side, prefix_inject(d.high, part) if side else part)
            pairs.append((x, m))
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

