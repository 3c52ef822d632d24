"""Symbolic analysis of dilator expressions.

``decompose`` presents an expression as an ordered sum of connected
pieces, exposed through a successor/limit view: either a last connected
component with the prefix before it, or a fundamental sequence of proper
initial summands.  ``classify``, ``sep``, ``sep_signed`` and
``otp_symbolic`` ride on top of it.  The brute-force trace relations
(``ll_relation``, ``important_index``) live here too; they are the
oracles the symbolic rules are tested against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    NoUniqueIndex,
    NotConnected,
    NotTypeOmega,
    UnsupportedDecomposition,
    UnsupportedOtp,
)
from .expr import (
    Band,
    CnfHead,
    Const,
    D_ONE,
    D_ZERO,
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
    mk_slice,
    mk_sum,
    to_str,
)
from .ordinal import (
    EQUAL,
    GREATER,
    LESS,
    LIMIT_SAMPLES,
    ONE,
    ZERO,
    Ord,
    fund_seq,
    ord_add,
    ord_left_sub,
    ord_mul_omega,
    ord_omega_pow,
    ord_pred,
    ord_sup_of_sequence,
)
from .semantics import (
    EnumBudget,
    apply_embedding,
    compare_elements,
    enum_elements,
    support_of,
)


@dataclass(frozen=True)
class Decomposition:
    """Successor/limit view of the connected-sum decomposition."""

    kind: str  # "zero" | "succ" | "limit"
    prefix: Optional[Dil] = None
    top: Optional[Dil] = None
    fund: Optional[Callable[[int], Dil]] = None
    length: Optional[Ord] = None


def _concat(prefix_expr: Dil, rest: Dil) -> Decomposition:
    d = decompose(rest)
    if d.kind == "zero":
        return decompose(prefix_expr)
    if d.kind == "succ":
        return Decomposition("succ", mk_sum(prefix_expr, d.prefix), d.top)
    return Decomposition("limit", fund=lambda k: mk_sum(prefix_expr, d.fund(k)))


def decompose(d: Dil) -> Decomposition:
    if isinstance(d, Const):
        a = d.value
        if a.is_zero():
            return Decomposition("zero", length=ZERO)
        if a.is_successor():
            return Decomposition("succ", Const(ord_pred(a)), D_ONE, length=a)
        return Decomposition("limit", fund=lambda k: Const(fund_seq(a, k)), length=a)
    if isinstance(d, IdNode):
        return Decomposition("succ", D_ZERO, d, length=ONE)
    if isinstance(d, Sum):
        return _concat(d.left, d.right)
    if isinstance(d, MulOmega):
        return Decomposition("limit", fund=lambda k: mk_mul_nat(d.base, k))
    if isinstance(d, OmegaComp):
        inner = decompose(d.base)
        if inner.kind == "succ":
            return Decomposition(
                "succ",
                mk_omega_comp(inner.prefix),
                mk_cnf_head(inner.prefix, inner.top),
            )
        if inner.kind == "limit":
            return Decomposition(
                "limit", fund=lambda k: mk_omega_comp(inner.fund(k))
            )
        raise UnsupportedDecomposition(f"omega composed with zero: {to_str(d)}")
    if isinstance(d, CnfHead):
        if is_connected_atom(d.high):
            return Decomposition("succ", D_ZERO, d, length=ONE)
        inner = decompose(d.high)
        if inner.kind == "succ":
            return _concat(
                mk_cnf_head(d.low, inner.prefix),
                mk_cnf_head(mk_sum(d.low, inner.prefix), inner.top),
            )
        if inner.kind == "limit":
            return Decomposition(
                "limit", fund=lambda k: mk_cnf_head(d.low, inner.fund(k))
            )
        raise UnsupportedDecomposition(f"head over zero: {to_str(d)}")
    if isinstance(d, Sep):
        free = ord_left_sub(d.cut, d.amb)
        if d.cut.is_successor():
            nu = ord_pred(d.cut)
            fiber = mk_shift(mk_slice(d.base, nu, ord_add(nu, ONE)), free)
            return _concat(mk_sep_atom(d.base, nu, d.amb), fiber)
        return Decomposition(
            "limit",
            fund=lambda k: mk_sep_atom(d.base, fund_seq(d.cut, k), d.amb),
            length=d.cut,
        )
    if isinstance(d, Band):
        span = ord_left_sub(d.lo, d.hi)
        if span.is_zero():
            return Decomposition("zero", length=ZERO)
        if span.is_successor():
            nu = ord_add(d.lo, ord_pred(span))
            return _concat(
                mk_band(d.base, d.lo, nu, d.amb), mk_slice(d.base, nu, d.amb)
            )
        return Decomposition(
            "limit",
            fund=lambda k: mk_band(d.base, d.lo, ord_add(d.lo, fund_seq(span, k)), d.amb),
            length=span,
        )
    raise UnsupportedDecomposition(f"no decomposition rule for {d!r}")


def components(d: Dil, cap: int = 64) -> list:
    """Finite list of connected components; raises if transfinite."""
    out = []
    while True:
        dec = decompose(d)
        if dec.kind == "zero":
            out.reverse()
            return out
        if dec.kind == "limit":
            raise UnsupportedDecomposition(
                f"transfinite decomposition of {to_str(d)}"
            )
        out.append(dec.top)
        d = dec.prefix
        if len(out) > cap:
            raise UnsupportedDecomposition("component cap exceeded")


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class TypeClass:
    kind: str  # "0" | "1" | "omega" | "Omega"
    pred: Optional[Dil] = None
    fund_seq: Optional[Callable[[int], Dil]] = None
    sep_fn: Optional[Callable[[Ord], Dil]] = None


def classify(d: Dil) -> TypeClass:
    dec = decompose(d)
    if dec.kind == "zero":
        return TypeClass("0")
    if dec.kind == "limit":
        return TypeClass("omega", fund_seq=dec.fund)
    if dec.top == D_ONE:
        return TypeClass("1", pred=dec.prefix)
    prefix, top = dec.prefix, dec.top
    return TypeClass(
        "Omega", sep_fn=lambda g: mk_sum(prefix, mk_sep_atom(top, g, g))
    )


def sep(d: Dil, g: Ord) -> Dil:
    """Separation of variables; demands the top classification."""
    tc = classify(d)
    if tc.kind != "Omega":
        raise NotTypeOmega(f"{to_str(d)} has type {tc.kind}")
    return tc.sep_fn(g)


def shift(d: Dil, g: Ord) -> Dil:
    return mk_shift(d, g)


def sep_signed(d: Dil, g: Ord):
    """Split of a connected non-unit expression at ``g``: (lower, upper)."""
    if not is_connected_atom(d):
        raise NotConnected(f"{to_str(d)} is not a connected non-unit expression")
    return mk_band(d, ZERO, g, g), mk_sep_plus(d, g)


def sep_signed_iter(d: Dil, gammas):
    """Iterated split along a finite cut sequence: minus parts and final plus."""
    if not is_connected_atom(d):
        raise NotConnected(f"{to_str(d)} is not a connected non-unit expression")
    minuses, total = [], ZERO
    for g in gammas:
        hi = ord_add(total, g)
        minuses.append(mk_band(d, total, hi, hi))
        total = hi
    return minuses, mk_sep_plus(d, total)


# ---------------------------------------------------------------------------
# symbolic order types

_OTP_CACHE: dict = {}
_OTP_FOLD_CAP = 256


def otp_symbolic(d: Dil, a: Ord) -> Ord:
    """Exact order type of d evaluated at the notation ``a``."""
    key = (d, a)
    if key in _OTP_CACHE:
        return _OTP_CACHE[key]
    value = _otp(d, a)
    _OTP_CACHE[key] = value
    return value


def _otp(d: Dil, a: Ord) -> Ord:
    if isinstance(d, Const):
        return d.value
    if isinstance(d, IdNode):
        return a
    if isinstance(d, Sum):
        return ord_add(otp_symbolic(d.left, a), otp_symbolic(d.right, a))
    if isinstance(d, MulOmega):
        return ord_mul_omega(otp_symbolic(d.base, a))
    if isinstance(d, OmegaComp):
        return ord_omega_pow(otp_symbolic(d.base, a))
    if isinstance(d, CnfHead):
        high = otp_symbolic(d.high, a)
        if high.is_zero():
            return ZERO
        return ord_omega_pow(ord_add(otp_symbolic(d.low, a), high))
    if isinstance(d, Sep):
        arg = ord_add(ord_left_sub(d.cut, d.amb), a)
        return _otp_fold(
            d.cut,
            lambda v: otp_symbolic(mk_slice(d.base, v, ord_add(v, ONE)), arg),
            lambda mid: otp_symbolic(Sep(d.base, mid, mid), arg),
        )
    if isinstance(d, Band):
        arg = ord_add(ord_left_sub(d.hi, d.amb), a)
        span = ord_left_sub(d.lo, d.hi)
        return _otp_fold(
            span,
            lambda v: otp_symbolic(mk_slice(d.base, ord_add(d.lo, v), d.hi), arg),
            lambda mid: otp_symbolic(
                mk_band(d.base, d.lo, ord_add(d.lo, mid), d.hi), arg
            ),
        )
    raise UnsupportedOtp(f"no order-type rule for {d!r}")


def _otp_fold(length: Ord, piece, prefix_value) -> Ord:
    """Sum of piece(v) over v < length, via peeling and limit extrapolation."""
    if length.is_zero():
        return ZERO
    if length.is_finite():
        n = length.as_int()
        if n > _OTP_FOLD_CAP:
            raise UnsupportedOtp(f"finite fold of length {n} beyond cap")
        acc = ZERO
        v = ZERO
        for _ in range(n):
            acc = ord_add(acc, piece(v))
            v = ord_add(v, ONE)
        return acc
    if length.is_successor():
        nu = ord_pred(length)
        return ord_add(prefix_value(nu), piece(nu))
    samples = []
    for k in range(1, LIMIT_SAMPLES):
        samples.append(prefix_value(fund_seq(length, k)))
    return ord_sup_of_sequence(samples)


# ---------------------------------------------------------------------------
# trace relations (brute force)

MUCH_LESS, MUCH_GREATER, EQUIVALENT = "much-less", "much-greater", "equivalent"


def _embeddings(n: int, big: int):
    return [dict(enumerate(c)) for c in itertools.combinations(range(big), n)]


def ll_relation(d: Dil, t1, t2) -> str:
    """Coarse comparison of trace terms by exhausting embedding pairs."""
    n1, n2 = len(support_of(d, t1)), len(support_of(d, t2))
    big = n1 + n2
    if big == 0:
        c = compare_elements(d, t1, t2)
        if c == LESS:
            return MUCH_LESS
        return EQUIVALENT if c == 0 else MUCH_GREATER
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


def important_index(d: Dil, t) -> int:
    """The unique argument slot whose increase strictly increases the value.

    Each embedding f of the n support points into 2n points is applied once,
    and the images are ranked under ``compare_elements``, equal images
    sharing a dense rank.  Slot i wins iff rank[f] < rank[g] for every pair
    of embeddings with f[i] < g[i].  This assumes ``compare_elements`` is a
    total order on well-formed elements: then rank[f] < rank[g] holds exactly
    when the image under f compares LESS than the image under g.
    """
    if not is_connected_atom(d):
        raise NotConnected(f"{to_str(d)} is not connected and non-unit")
    pts = support_of(d, t)
    n = len(pts)
    if n == 0:
        raise NotConnected("nullary trace term in a connected non-unit expression")
    embs = _embeddings(n, 2 * n)
    images = [apply_embedding(d, t, {p: f[j] for j, p in enumerate(pts)}) for f in embs]
    order = sorted(
        range(len(images)),
        key=functools.cmp_to_key(lambda a, b: compare_elements(d, images[a], images[b])),
    )
    rank = [0] * len(images)
    for prev, k in zip(order, order[1:]):
        same = compare_elements(d, images[prev], images[k]) == EQUAL
        rank[k] = rank[prev] if same else rank[prev] + 1
    winners = [
        i
        for i in range(n)
        if all(
            rank[a] < rank[b]
            for a, f in enumerate(embs)
            for b, g in enumerate(embs)
            if f[i] < g[i]
        )
    ]
    if len(winners) != 1:
        raise NoUniqueIndex(f"candidates {winners} for {to_str(d)}")
    return winners[0]


def enum_trace_terms(d: Dil, max_arity: int, budget=None):
    """Trace terms (full-support elements) grouped as (term, arity) pairs."""
    budget = budget or EnumBudget()
    out = []
    for n in range(max_arity + 1):
        for e in enum_elements(d, n, budget):
            if len(support_of(d, e)) == n:
                out.append((e, n))
    return out
