"""Element semantics: the ground truth the symbolic layer is checked against.

An element of an expression over an argument order is a nested value
mirroring the expression structure.  Positions are either frozen ordinals
below an ambient bound (``Left``) or live points of the argument order
(``Right``); live points may be arbitrary labels, which is how collapse
terms reuse this module.  Two enumerators are provided: an exhaustive
budget-capped one, and a lazy stream that yields the true ascending
prefix of the order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, MalformedElement
from .expr import Band, CnfHead, Const, Dil, IdNode, MulOmega, OmegaComp, Sep, Sum
from .ordinal import EQUAL, GREATER, LESS, ONE, ZERO, Ord, ord_add, ord_cmp, ord_str


@dataclass(frozen=True)
class Left:
    value: Ord


@dataclass(frozen=True)
class Right:
    point: object


@dataclass(frozen=True)
class EConst:
    index: Ord


@dataclass(frozen=True)
class EId:
    pos: object


@dataclass(frozen=True)
class ESum:
    side: int
    inner: object


@dataclass(frozen=True)
class ECopies:
    copy: int
    inner: object


@dataclass(frozen=True)
class ECnf:
    """Formal sum of omega-powers: ((exponent, multiplicity), ...) descending."""

    pairs: tuple = ()


EMPTY_CNF = ECnf()


def default_pos_cmp(p, q) -> int:
    if isinstance(p, Left) and isinstance(q, Left):
        return ord_cmp(p.value, q.value)
    if isinstance(p, Left):
        return LESS
    if isinstance(q, Left):
        return GREATER
    a, b = p.point, q.point
    return LESS if a < b else GREATER if a > b else EQUAL


# ---------------------------------------------------------------------------
# comparison and structure


def compare_elements(expr: Dil, e1, e2, pos_cmp=default_pos_cmp) -> int:
    """Total order on well-formed elements of ``expr``."""
    if isinstance(expr, Const):
        return ord_cmp(e1.index, e2.index)
    if isinstance(expr, IdNode):
        return pos_cmp(e1.pos, e2.pos)
    if isinstance(expr, Sum):
        if e1.side != e2.side:
            return LESS if e1.side < e2.side else GREATER
        part = expr.left if e1.side == 0 else expr.right
        return compare_elements(part, e1.inner, e2.inner, pos_cmp)
    if isinstance(expr, MulOmega):
        if e1.copy != e2.copy:
            return LESS if e1.copy < e2.copy else GREATER
        return compare_elements(expr.base, e1.inner, e2.inner, pos_cmp)
    if isinstance(expr, (OmegaComp, CnfHead)):
        for (x, m), (y, n) in zip(e1.pairs, e2.pairs):
            c = compare_elements(expr.exponents, x, y, pos_cmp)
            if c != EQUAL:
                return c
            if m != n:
                return LESS if m < n else GREATER
        if len(e1.pairs) == len(e2.pairs):
            return EQUAL
        return LESS if len(e1.pairs) < len(e2.pairs) else GREATER
    if isinstance(expr, (Sep, Band)):
        return compare_elements(expr.base, e1, e2, pos_cmp)
    raise MalformedElement(f"no comparison rule for {expr!r}")


def element_positions(expr: Dil, elem) -> list:
    """All positions of the element (Left and Right), unsorted."""
    out = []
    _walk_positions(expr, elem, out)
    return out


def _walk_positions(expr, elem, out):
    if isinstance(expr, Const):
        return
    if isinstance(expr, IdNode):
        out.append(elem.pos)
        return
    if isinstance(expr, Sum):
        _walk_positions(expr.left if elem.side == 0 else expr.right, elem.inner, out)
        return
    if isinstance(expr, MulOmega):
        _walk_positions(expr.base, elem.inner, out)
        return
    if isinstance(expr, (OmegaComp, CnfHead)):
        for x, _ in elem.pairs:
            _walk_positions(expr.exponents, x, out)
        return
    if isinstance(expr, (Sep, Band)):
        _walk_positions(expr.base, elem, out)
        return
    raise MalformedElement(f"no position rule for {expr!r}")


def support_of(expr: Dil, elem) -> list:
    """The live points of the element; frozen ordinals are part of the code."""
    points = [p.point for p in element_positions(expr, elem) if isinstance(p, Right)]
    seen, out = set(), []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    try:
        return sorted(out)
    except TypeError:
        return out


def apply_embedding(expr: Dil, elem, mapping) -> object:
    """Functorial action on a live-point embedding given as a dict."""
    if isinstance(expr, Const):
        return elem
    if isinstance(expr, IdNode):
        if isinstance(elem.pos, Right):
            return EId(Right(mapping[elem.pos.point]))
        return elem
    if isinstance(expr, Sum):
        part = expr.left if elem.side == 0 else expr.right
        return ESum(elem.side, apply_embedding(part, elem.inner, mapping))
    if isinstance(expr, MulOmega):
        return ECopies(elem.copy, apply_embedding(expr.base, elem.inner, mapping))
    if isinstance(expr, OmegaComp):
        return ECnf(
            tuple((apply_embedding(expr.base, x, mapping), m) for x, m in elem.pairs)
        )
    if isinstance(expr, CnfHead):
        return ECnf(
            tuple(
                (
                    ESum(
                        x.side,
                        apply_embedding(
                            expr.low if x.side == 0 else expr.high, x.inner, mapping
                        ),
                    ),
                    m,
                )
                for x, m in elem.pairs
            )
        )
    if isinstance(expr, (Sep, Band)):
        return apply_embedding(expr.base, elem, mapping)
    raise MalformedElement(f"no embedding rule for {expr!r}")


def validate_element(expr: Dil, elem, pos_cmp=default_pos_cmp):
    """Structural well-formedness; raises MalformedElement."""
    if isinstance(expr, Const):
        if not isinstance(elem, EConst) or ord_cmp(elem.index, expr.value) != LESS:
            raise MalformedElement(f"bad constant element {elem!r}")
        return
    if isinstance(expr, IdNode):
        if not isinstance(elem, EId):
            raise MalformedElement(f"bad Id element {elem!r}")
        return
    if isinstance(expr, Sum):
        if not isinstance(elem, ESum) or elem.side not in (0, 1):
            raise MalformedElement(f"bad sum element {elem!r}")
        validate_element(expr.left if elem.side == 0 else expr.right, elem.inner, pos_cmp)
        return
    if isinstance(expr, MulOmega):
        if not isinstance(elem, ECopies) or elem.copy < 0:
            raise MalformedElement(f"bad repetition element {elem!r}")
        validate_element(expr.base, elem.inner, pos_cmp)
        return
    if isinstance(expr, (OmegaComp, CnfHead)):
        if not isinstance(elem, ECnf):
            raise MalformedElement(f"bad formal sum {elem!r}")
        for x, m in elem.pairs:
            if m < 1:
                raise MalformedElement("multiplicities must be positive")
            validate_element(expr.exponents, x, pos_cmp)
        for (x, _), (y, _) in zip(elem.pairs, elem.pairs[1:]):
            if compare_elements(expr.exponents, x, y, pos_cmp) != GREATER:
                raise MalformedElement("exponents must strictly descend")
        if isinstance(expr, CnfHead):
            if not elem.pairs or elem.pairs[0][0].side != 1:
                raise MalformedElement("head elements need a high-part lead")
        return
    if isinstance(expr, Sep):
        validate_element(expr.base, elem, pos_cmp)
        if not sep_member(expr, elem):
            raise MalformedElement("element violates the separation condition")
        return
    if isinstance(expr, Band):
        validate_element(expr.base, elem, pos_cmp)
        if not band_member(expr, elem):
            raise MalformedElement("element outside the band")
        return
    raise MalformedElement(f"no validation rule for {expr!r}")


def important_position(expr: Dil, elem):
    """The most important position, computed structurally (None if frozen)."""
    if isinstance(expr, Const):
        return None
    if isinstance(expr, IdNode):
        return elem.pos
    if isinstance(expr, Sum):
        return important_position(expr.left if elem.side == 0 else expr.right, elem.inner)
    if isinstance(expr, MulOmega):
        return important_position(expr.base, elem.inner)
    if isinstance(expr, (OmegaComp, CnfHead)):
        if not elem.pairs:
            return None
        return important_position(expr.exponents, elem.pairs[0][0])
    if isinstance(expr, (Sep, Band)):
        return important_position(expr.base, elem)
    raise MalformedElement(f"no importance rule for {expr!r}")


def sep_member(node: Sep, elem) -> bool:
    mi = important_position(node.base, elem)
    if not isinstance(mi, Left) or ord_cmp(mi.value, node.cut) != LESS:
        return False
    for p in element_positions(node.base, elem):
        if isinstance(p, Left) and p.value < node.cut and p.value > mi.value:
            return False
    return True


def band_member(node: Band, elem) -> bool:
    mi = important_position(node.base, elem)
    return (
        isinstance(mi, Left)
        and ord_cmp(node.lo, mi.value) != GREATER
        and ord_cmp(mi.value, node.hi) == LESS
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration under a budget


@dataclass(frozen=True)
class EnumBudget:
    max_count: int = 4000
    const_cap: int = 12
    copies: int = 3
    cnf_len: int = 2
    cnf_mult: int = 2
    grid: int = 8


def _grid_values(bound: Ord, size: int) -> tuple:
    """A small sample of ordinals below ``bound``, always starting 0,1,2,...

    Memoized on ``(bound, size)``.  This plain function stays in front of
    the cache so that per-call tracing (``perfbench/tracer.py`` wraps plain
    functions only) still counts every call.
    """
    return _grid(bound, size)


@functools.lru_cache(maxsize=256)
def _grid(bound: Ord, size: int) -> tuple:
    seeds = [ZERO]
    partial = ZERO
    for exp, coeff in bound.terms:
        for c in range(1, coeff + 1):
            nxt = ord_add(partial, Ord(((exp, c),)))
            if nxt < bound and nxt not in seeds:
                seeds.append(nxt)
        partial = ord_add(partial, Ord(((exp, coeff),)))
    out = set()
    for s in seeds:
        v = s
        for _ in range(size):
            if v < bound:
                out.add(v)
                v = ord_add(v, ONE)
            else:
                break
    return tuple(sorted(out))


def _gen(expr: Dil, points, budget: EnumBudget, lefts, pos_cmp=default_pos_cmp):
    """All elements within the structural budget (unsorted)."""
    if isinstance(expr, Const):
        bound = expr.value
        out = []
        v = ZERO
        while len(out) < budget.const_cap and v < bound:
            out.append(EConst(v))
            v = ord_add(v, ONE)
        return out
    if isinstance(expr, IdNode):
        return [EId(Left(v)) for v in lefts] + [EId(Right(p)) for p in points]
    if isinstance(expr, Sum):
        return [ESum(0, x) for x in _gen(expr.left, points, budget, lefts, pos_cmp)] + [
            ESum(1, x) for x in _gen(expr.right, points, budget, lefts, pos_cmp)
        ]
    if isinstance(expr, MulOmega):
        inner = _gen(expr.base, points, budget, lefts, pos_cmp)
        return [ECopies(k, x) for k in range(budget.copies) for x in inner]
    if isinstance(expr, (OmegaComp, CnfHead)):
        exps = _sorted_by(
            _gen(expr.exponents, points, budget, lefts, pos_cmp),
            lambda x, y: compare_elements(expr.exponents, x, y, pos_cmp),
        )
        out = []
        for count in range(0, budget.cnf_len + 1):
            for combo in itertools.combinations(range(len(exps)), count):
                descending = [exps[i] for i in reversed(combo)]
                for mults in itertools.product(range(1, budget.cnf_mult + 1), repeat=count):
                    cand = ECnf(tuple(zip(descending, mults)))
                    if isinstance(expr, CnfHead):
                        if not cand.pairs or cand.pairs[0][0].side != 1:
                            continue
                    out.append(cand)
                    if len(out) > budget.max_count:
                        raise BudgetExceeded("formal-sum budget overflow")
        return out
    if isinstance(expr, (Sep, Band)):
        member = sep_member if isinstance(expr, Sep) else band_member
        inner_lefts = _grid_values(expr.amb, budget.grid)
        return [
            e
            for e in _gen(expr.base, points, budget, inner_lefts, pos_cmp)
            if member(expr, e)
        ]
    raise MalformedElement(f"no enumeration rule for {expr!r}")


def _sorted_by(items, cmp):
    return sorted(items, key=functools.cmp_to_key(cmp))


def enum_elements(
    expr: Dil,
    points,
    budget: EnumBudget = EnumBudget(),
    lefts=(),
    pos_cmp=default_pos_cmp,
):
    """All elements over the given points within the budget, ascending.

    ``points`` may be a count (meaning 0..n-1) or an explicit label list;
    labels need not be integers when a matching ``pos_cmp`` is supplied.
    """
    if isinstance(points, int):
        points = list(range(points))
    out = _gen(expr, list(points), budget, list(lefts), pos_cmp)
    if len(out) > budget.max_count:
        raise BudgetExceeded(f"{len(out)} elements exceed cap {budget.max_count}")
    return _sorted_by(out, lambda x, y: compare_elements(expr, x, y, pos_cmp))


# ---------------------------------------------------------------------------
# ascending streams (true prefixes)


def ambient_stream(expr: Dil, points, bound: Ord = ZERO, pull_cap: int = 200000):
    """Yield the elements of ``expr`` over the order [0, bound) + points in
    strictly ascending order.

    The stream realizes the true initial segment of the order: frozen
    positions are walked upward from zero, and filtered nodes stop as soon
    as the most important argument leaves their window.
    """
    state = {"pulls": 0}
    return _stream(expr, tuple(points), state, pull_cap, bound)


def _tick(state, pull_cap):
    state["pulls"] += 1
    if state["pulls"] > pull_cap:
        raise BudgetExceeded("stream pull budget exhausted")


def _stream(expr: Dil, points, state, cap, bound):
    """Ascending elements of ``expr`` over the order [0, bound) + points."""
    if isinstance(expr, Const):
        v = ZERO
        while v < expr.value:
            _tick(state, cap)
            yield EConst(v)
            v = ord_add(v, ONE)
        return
    if isinstance(expr, IdNode):
        v = ZERO
        while v < bound:
            _tick(state, cap)
            yield EId(Left(v))
            v = ord_add(v, ONE)
        for p in points:
            _tick(state, cap)
            yield EId(Right(p))
        return
    if isinstance(expr, Sum):
        for x in _stream(expr.left, points, state, cap, bound):
            yield ESum(0, x)
        for x in _stream(expr.right, points, state, cap, bound):
            yield ESum(1, x)
        return
    if isinstance(expr, MulOmega):
        k = 0
        while True:
            produced = False
            for x in _stream(expr.base, points, state, cap, bound):
                produced = True
                yield ECopies(k, x)
            if not produced:
                return
            k += 1
    if isinstance(expr, OmegaComp):
        lead_stream = lambda: _stream(expr.base, points, state, cap, bound)
        yield from _cnf_stream(lead_stream, lambda: (), state, cap)
        return
    if isinstance(expr, CnfHead):
        lead_stream = lambda: (
            ESum(1, x) for x in _stream(expr.high, points, state, cap, bound)
        )
        low_stream = lambda: (
            ESum(0, x) for x in _stream(expr.low, points, state, cap, bound)
        )
        yield from _cnf_stream(lead_stream, low_stream, state, cap, head=True)
        return
    if isinstance(expr, (Sep, Band)):
        hi, member = (expr.cut, sep_member) if isinstance(expr, Sep) else (expr.hi, band_member)
        for e in _stream(expr.base, points, state, cap, expr.amb):
            mi = important_position(expr.base, e)
            if not isinstance(mi, Left) or mi.value >= hi:
                return  # ascending, so nothing later can re-enter
            if member(expr, e):
                yield e
        return
    raise MalformedElement(f"no stream rule for {expr!r}")


def _cnf_stream(lead_factory, below_factory, state, cap, head=False):
    """Ascending formal sums; leads ascend over lead_factory, tails over
    everything strictly below the current lead: below_factory, then the
    earlier leads.  A tail stream passes no below_factory; it is the same
    stream over its source, except that its leads are not charged a pull."""
    if not head:
        yield EMPTY_CNF
    seen_leads = []
    for lead in lead_factory():
        if below_factory is not None:
            _tick(state, cap)
        prior = list(seen_leads)

        def tails(prior=prior):
            return itertools.chain(below_factory() if below_factory else (), prior)

        if next(tails(), None) is None:
            m = 1
            while True:
                _tick(state, cap)
                yield ECnf(((lead, m),))
                m += 1
        else:
            for tail in _cnf_stream(tails, None, state, cap):
                _tick(state, cap)
                yield ECnf(((lead, 1),) + tail.pairs)
        seen_leads.append(lead)


def prefix_elements(expr: Dil, n_points: int, k: int, pull_cap: int = 200000):
    """The first ``k`` elements of the order over {0,...,n_points-1}."""
    out = []
    for e in ambient_stream(expr, range(n_points), ZERO, pull_cap):
        out.append(e)
        if len(out) >= k:
            break
    return out


# ---------------------------------------------------------------------------
# rendering


def pos_str(p) -> str:
    if isinstance(p, Left):
        return f"L({ord_str(p.value)})"
    return f"x{p.point}"


def element_str(expr: Dil, elem, render_pos=pos_str) -> str:
    if isinstance(expr, Const):
        return f"c[{ord_str(elem.index)}]"
    if isinstance(expr, IdNode):
        return render_pos(elem.pos)
    if isinstance(expr, Sum):
        tag = "l" if elem.side == 0 else "r"
        part = expr.left if elem.side == 0 else expr.right
        return f"{tag}:{element_str(part, elem.inner, render_pos)}"
    if isinstance(expr, MulOmega):
        return f"{elem.copy}#{element_str(expr.base, elem.inner, render_pos)}"
    if isinstance(expr, (OmegaComp, CnfHead)):
        if not elem.pairs:
            return "0"
        return "+".join(
            f"w^{{{element_str(expr.exponents, x, render_pos)}}}" + (f"*{m}" if m > 1 else "")
            for x, m in elem.pairs
        )
    if isinstance(expr, (Sep, Band)):
        return element_str(expr.base, elem, render_pos)
    return repr(elem)
