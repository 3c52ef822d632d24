"""Symbolic analysis of dilator expressions.

``decompose`` presents an expression as an ordered sum of connected
pieces, exposed through a successor/limit view: either a last connected
component with the prefix before it, or a fundamental sequence of proper
initial summands.  ``classify`` (the type name), ``sep``, ``sep_signed``
and ``otp_symbolic`` ride on top of it; ``decompose`` and ``otp_symbolic``
take a separation or band apart through the same two parts, ``_below``
and ``_slice_at``.  The brute-force trace relations (``ll_relation``,
``important_index``) live here too; they are the oracles the symbolic
rules are tested against.  Neither builds an image.  ``ll_relation`` keys
only each term's least and greatest image, under its lowest and its
highest embedding, since an image's ``element_key`` is monotone in the
embedding.  ``important_index`` sorts every embedding by the tuple of its
values at the term's live positions, which orders the images of one term
as their keys do.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Optional

from .errors import (
    DepthExceeded,
    GuardViolation,
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
    _split_trailing,
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
    summands,
    to_str,
)
from .ordinal import (
    LIMIT_SAMPLES,
    ONE,
    ZERO,
    Frozen,
    Ord,
    _set,
    _sup_of_monotone,
    from_int,
    fund_seq,
    ord_add,
    ord_left_sub,
    ord_mul_omega,
    ord_omega_pow,
    ord_pred,
)
from .semantics import (
    EnumBudget,
    Right,
    _candidates,
    element_key,
    element_positions,
    support_of,
)


class Decomposition(Frozen):
    """Successor/limit view of the connected-sum decomposition."""

    def __init__(self, kind: str, prefix: Optional[Dil] = None, top: Optional[Dil] = None,
                 fund: Optional[Callable[[int], Dil]] = None):
        _set(self, "kind", kind)  # "zero" | "succ" | "limit"
        _set(self, "prefix", prefix)
        _set(self, "top", top)
        _set(self, "fund", fund)


def _concat(prefix_expr: Dil, rest: Dil) -> Decomposition:
    d = decompose(rest)
    if d.kind == "succ":
        return Decomposition("succ", mk_sum(prefix_expr, d.prefix), d.top)
    if d.kind == "zero":  # only a hand-built empty band is a zero summand
        raise UnsupportedDecomposition(f"{to_str(rest)} is not normalized")
    return Decomposition("limit", fund=lambda k: mk_sum(prefix_expr, d.fund(k)))


def _length(d: Dil) -> Ord:
    """The number of values the most important position of ``d`` takes."""
    return d.cut if isinstance(d, Sep) else ord_left_sub(d.lo, d.hi)


def _below(d: Dil, m: Ord) -> Dil:
    """The initial part of ``d`` whose most important position lies below
    its m-th value; a separation's part keeps the positions above its cut."""
    if isinstance(d, Sep):
        return mk_sep_atom(d.base, m, ord_add(m, ord_left_sub(d.cut, d.amb)))
    return mk_band(d.base, d.lo, ord_add(d.lo, m), d.amb)


def _slice_at(d: Dil, v: Ord) -> Dil:
    """The slice of ``d`` whose most important position is its v-th value."""
    if isinstance(d, Sep):
        return mk_shift(mk_slice(d.base, v, ord_add(v, ONE)), ord_left_sub(d.cut, d.amb))
    return mk_slice(d.base, ord_add(d.lo, v), d.amb)


def decompose(d: Dil) -> Decomposition:
    if isinstance(d, Const):
        a = d.value
        if a.is_zero():
            return Decomposition("zero")
        if a.is_successor():
            return Decomposition("succ", Const(ord_pred(a)), D_ONE)
        return Decomposition("limit", fund=lambda k: Const(fund_seq(a, k)))
    if isinstance(d, IdNode):
        return Decomposition("succ", D_ZERO, d)
    if isinstance(d, Sum):
        return _concat(*_split_trailing(d))
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
            return Decomposition("succ", D_ZERO, d)
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
    if isinstance(d, (Sep, Band)):
        length = _length(d)
        if length.is_zero():
            return Decomposition("zero")
        if length.is_successor():
            nu = ord_pred(length)
            return _concat(_below(d, nu), _slice_at(d, nu))
        return Decomposition("limit", fund=lambda k: _below(d, fund_seq(length, k)))
    raise UnsupportedDecomposition(f"no decomposition rule for {d!r}")


def components(d: Dil) -> list:
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
        if len(out) > 64:
            raise UnsupportedDecomposition("component cap exceeded")


# ---------------------------------------------------------------------------
# classification


def classify(d: Dil) -> str:
    """The type of ``d`` read off its decomposition: "0", "1", "omega" or "Omega"."""
    dec = decompose(d)
    if dec.kind == "zero":
        return "0"
    if dec.kind == "limit":
        return "omega"
    return "1" if dec.top == D_ONE else "Omega"


def _normalized(d: Dil, dec: Decomposition) -> Decomposition:
    """``dec``, the decomposition of ``d`` that J or psi takes as a limit or
    as a successor with a connected top; a zero or unit-top one refuses.

    J and psi answer a ``Const`` and compose or fold a ``Sum`` first (psi's
    step ``Const + atom`` decomposes as ``atom``).  Every other normalized
    node is a limit or has a connected top (``Id``, or from ``mk_cnf_head``
    or ``mk_slice`` over a connected base), and zero comes only from
    ``Const(0)`` and from an empty ``Band``, which ``mk_band`` never builds;
    so only a hand-built node gets here zero or unit-topped."""
    if dec.kind == "zero" or isinstance(dec.top, Const):
        raise UnsupportedDecomposition(f"{to_str(d)} is not normalized")
    return dec


def separate(dec: Decomposition, g: Ord) -> Dil:
    """The separation at ``g`` of a successor with a connected top."""
    return mk_sum(dec.prefix, mk_sep_atom(dec.top, g, g))


def sep(d: Dil, g: Ord) -> Dil:
    """Separation of variables; demands the top classification."""
    dec = decompose(d)
    if dec.kind != "succ" or dec.top == D_ONE:
        raise NotTypeOmega(f"{to_str(d)} has type {classify(d)}")
    return separate(dec, g)


def sep_signed(d: Dil, g: Ord):
    """Split of a connected non-unit expression at ``g``: (lower, upper), the
    iterated split at the one cut ``g``."""
    (minus,), plus = sep_signed_iter(d, [g])
    return minus, plus


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


def _limit_sup(d: Dil, sample: Callable[[int], Ord]) -> Ord:
    """The limit rule of J, psi and otp: sup of ``sample(k)``, k < ``LIMIT_SAMPLES``.
    Samples are values of partial sums of ``d`` (for psi's connected clause,
    the partial sums of its stages), so a decrease is a kernel bug.

    All samples are drawn first, in order.  One pass then compares each with
    the last distinct one: a decrease raises ``GuardViolation``, a repeat is
    dropped, and the distinct samples go to the solver, whose
    ``detect_limit_pattern`` still tests that they increase."""
    values = [sample(k) for k in range(LIMIT_SAMPLES)]
    return _sup_of_monotone(
        values, lambda: GuardViolation(f"partial-sum values decreased under {to_str(d)}")
    )


def _refusing(cache: dict, call: Callable[..., Ord], *args) -> Ord:
    """``call(*args)``; if it raises ``DepthExceeded``, the entries it added
    to ``cache`` are dropped first.

    A refused call forgets what it cached: its budget counts cache misses,
    so what a refusal kept would let the same call, repeated, get further
    and answer."""
    mark = len(cache)
    try:
        return call(*args)
    except DepthExceeded:
        while len(cache) > mark:
            cache.popitem()
        raise


_OTP_CACHE: dict = {}
_OTP_FOLD_CAP = 256
# separations and bands one call may fold: a limit cut folds LIMIT_SAMPLES
# prefixes, so the work grows about sevenfold per nested limit cut
_OTP_FOLD_BUDGET = 4000


def otp_symbolic(d: Dil, a: Ord) -> Ord:
    """Exact order type of d evaluated at the notation ``a``; past
    ``_OTP_FOLD_BUDGET`` folds not in the cache it refuses with
    ``DepthExceeded`` and leaves the cache as it found it.

    ``_OTP_CACHE`` keeps the value of each node asked for at each argument,
    but for a ``Const`` or ``Id``, which are answered directly, and for the
    sums made of a sum's summands, which are never asked for: a sum is the
    fold of its summands' values.  Only separations and bands fold, so
    a sum whose summands are cached costs no budget.  A fold sums the
    parts that ``decompose`` names."""
    return _refusing(_OTP_CACHE, _otp_cached, d, a, [_OTP_FOLD_BUDGET])


def _otp_cached(d: Dil, a: Ord, budget: list) -> Ord:
    if isinstance(d, Const):
        return d.value
    if isinstance(d, IdNode):
        return a
    key = (d, a)
    if key in _OTP_CACHE:
        return _OTP_CACHE[key]
    value = _otp(d, a, budget)
    _OTP_CACHE[key] = value
    return value


def _otp(d: Dil, a: Ord, budget: list) -> Ord:
    if isinstance(d, Sum):
        # summands left to right, folded from the right: a long sum costs no
        # recursion depth
        values = [_otp_cached(part, a, budget) for part in summands(d)]
        value = values.pop()
        for left in reversed(values):
            value = ord_add(left, value)
        return value
    if isinstance(d, MulOmega):
        return ord_mul_omega(_otp_cached(d.base, a, budget))
    if isinstance(d, OmegaComp):
        return ord_omega_pow(_otp_cached(d.base, a, budget))
    if isinstance(d, CnfHead):
        high = _otp_cached(d.high, a, budget)
        if high.is_zero():
            return ZERO
        return ord_omega_pow(ord_add(_otp_cached(d.low, a, budget), high))
    if isinstance(d, (Sep, Band)):
        return _otp_fold(d, a, budget)
    raise UnsupportedOtp(f"no order-type rule for {d!r}")


def _otp_fold(d: Dil, a: Ord, budget: list) -> Ord:
    """The sum at ``a`` of the slices of a separation or band: a finite
    length (zero too) folds them, a successor peels the last off ``_below``,
    and a limit samples ``_below`` at its fundamental sequence."""
    budget[0] -= 1
    if budget[0] < 0:
        raise DepthExceeded(f"order-type folds exceeded {_OTP_FOLD_BUDGET} steps")
    length = _length(d)
    if length.is_finite():
        n = length.as_int()
        if n > _OTP_FOLD_CAP:
            raise UnsupportedOtp(f"finite fold of length {n} beyond cap")
        acc = ZERO
        for v in map(from_int, range(n)):
            acc = ord_add(acc, _otp_cached(_slice_at(d, v), a, budget))
        return acc
    if length.is_successor():
        nu = ord_pred(length)
        prefix = _otp_cached(_below(d, nu), a, budget)
        return ord_add(prefix, _otp_cached(_slice_at(d, nu), a, budget))
    return _limit_sup(d, lambda k: _otp_cached(_below(d, fund_seq(length, k)), a, budget))


# ---------------------------------------------------------------------------
# trace relations (brute force)

MUCH_LESS, MUCH_GREATER, EQUIVALENT = "much-less", "much-greater", "equivalent"


def _embeddings(n: int, big: int):
    return [dict(enumerate(c)) for c in itertools.combinations(range(big), n)]


def ll_relation(d: Dil, t1, t2) -> str:
    """Coarse comparison of trace terms over every pair of embeddings of
    their supports into n1 + n2 points, decided by four extreme images.

    MUCH_LESS iff max1 < min2, MUCH_GREATER iff max2 < min1, and EQUIVALENT
    otherwise, where min and max are the least and greatest image keys of a
    term.  An image is keyed off the term itself, so none is built: a live
    point p keys as (1, f[slot of p]) and a frozen position as (0, value).

    A term's least image is under the lowest embedding (0, ..., n-1) and its
    greatest under the highest (big-n, ..., big-1).  The images of one term
    have keys of one shape, ordered as their leaf sequences; the lowest
    embedding is pointwise below every embedding and the highest above, and
    a pointwise smaller embedding gives a leafwise smaller key.  So every
    pair compares LESS iff max1 < min2, and GREATER iff max2 < min1; if
    neither holds, the pair (highest, lowest) is not LESS and (lowest,
    highest) is not GREATER, which makes the terms EQUIVALENT."""
    pts1, pts2 = support_of(d, t1), support_of(d, t2)
    big = len(pts1) + len(pts2)

    def extreme_key(t, pts, lowest):
        slot = {p: j if lowest else big - len(pts) + j for j, p in enumerate(pts)}
        return element_key(
            d, t, lambda pos: (1, slot[pos.point]) if pos.__class__ is Right else (0, pos.value)
        )

    if extreme_key(t1, pts1, False) < extreme_key(t2, pts2, True):
        return MUCH_LESS
    if extreme_key(t2, pts2, False) < extreme_key(t1, pts1, True):
        return MUCH_GREATER
    return EQUIVALENT


def important_index(d: Dil, t) -> int:
    """The unique argument slot whose increase strictly increases the value.

    Each embedding f of the n support points into 2n points (a
    ``combinations`` tuple) is keyed by its slot tuple: f[s] for the slot s
    of each live position of t, in ``element_positions`` order.  Along the
    embeddings sorted by key, slot i wins iff f[i] never falls and changes
    only where the key changes.

    This is the pairwise rule "f[i] < g[i] implies key f < key g".  Its
    contrapositive, "key f <= key g implies f[i] <= g[i]", says that f[i] is
    a non-decreasing function of the key; along the sorted list that is
    exactly a walk that never falls and is constant on each run of equal keys.

    The slot tuples order the images as their ``element_key``s do.  The
    images of one term have keys of one shape, which differ only at the live
    leaves (1, f[s]); ``element_positions`` walks the leaves in the key's
    order; and two nested tuples of one shape compare as their leaf
    sequences.  This assumes that ``element_key``'s key order is
    ``compare_elements``' order, a total order on well-formed elements: then
    key f < key g holds exactly when the image under f compares LESS than
    the image under g.
    """
    if not is_connected_atom(d):
        raise NotConnected(f"{to_str(d)} is not connected and non-unit")
    pts = support_of(d, t)
    n = len(pts)
    if n == 0:
        raise NotConnected("nullary trace term in a connected non-unit expression")
    slot = {p: j for j, p in enumerate(pts)}
    seq = [slot[p.point] for p in element_positions(d, t) if p.__class__ is Right]
    key = operator.itemgetter(*seq) if seq else lambda f: ()
    embs = sorted(itertools.combinations(range(2 * n), n), key=key)
    steps = [(f, g, key(f) != key(g)) for f, g in zip(embs, embs[1:])]
    winners = [
        i for i in range(n) if all(f[i] == g[i] or (f[i] < g[i] and new) for f, g, new in steps)
    ]
    if len(winners) != 1:
        raise NoUniqueIndex(f"candidates {winners} for {to_str(d)}")
    return winners[0]


def enum_trace_terms(d: Dil, max_arity: int, budget=None):
    """Trace terms (full-support elements) grouped as (term, arity) pairs."""
    budget = budget or EnumBudget()
    out = []
    for n in range(max_arity + 1):
        # as enum_elements, keeping the elements whose position keys hold n
        # distinct live points (1, i)
        for cand, held in zip(*_candidates(d, list(range(n)), budget, [])):
            if len({v for tag, v in held if tag == 1}) == n:
                out.append((cand, n))
    return out
