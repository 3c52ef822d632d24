"""Element semantics: the ground truth the symbolic layer is checked against.

An element of an expression over an argument order is a nested value
mirroring the expression structure.  Positions are either frozen ordinals
below an ambient bound (``Left``) or live points of the argument order
(``Right``); live points may be arbitrary labels, which is how collapse
terms reuse this module.  The leaves are plain values: a ``Const``'s
element is its ``Ord`` index, an ``Id``'s element is its position, and an
``omega[...]`` or ``omega_head(...)`` element is the tuple of its
``(exponent, multiplicity)`` pairs, exponents descending, with ``()`` the
empty sum.  Only sum and repetition levels wrap the element below them
(``ESum``, ``ECopies``).  Two enumerators are provided: an exhaustive
budget-capped one, and a lazy stream that yields the true ascending
prefix of the order, charging one pull per element that a constant, an
``Id`` or a formal-sum level yields.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, MalformedElement
from .expr import (
    Band, CnfHead, Const, Dil, IdNode, MulOmega, OmegaComp, Sep, Sum,
)
from .ordinal import (
    EQUAL, GREATER, LESS, ONE, ZERO, Frozen, Ord, _set, from_int, ord_add, ord_cmp, ord_str,
)


class Left(Frozen):
    def __init__(self, value: Ord):
        _set(self, "value", value)


class Right(Frozen):
    def __init__(self, point: object):
        _set(self, "point", point)


class ESum(Frozen):
    def __init__(self, side: int, inner: object):
        _set(self, "side", side)
        _set(self, "inner", inner)


class ECopies(Frozen):
    def __init__(self, copy: int, inner: object):
        _set(self, "copy", copy)
        _set(self, "inner", inner)


def default_pos_cmp(p, q) -> int:
    """Frozen positions by value, below every live point; live points by
    their labels' own order."""
    if p.__class__ is Left:
        return ord_cmp(p.value, q.value) if q.__class__ is Left else LESS
    if q.__class__ is Left:
        return GREATER
    a, b = p.point, q.point
    return LESS if a < b else GREATER if a > b else EQUAL


# ---------------------------------------------------------------------------
# comparison and structure
#
# An element of a sum's i-th summand is coded as over nested binary sums:
# behind i ESum(1, -) layers, and then one ESum(0, -) unless the summand is
# the last.  The walkers (compare_elements, element_key, apply_embedding and
# the rest) count those layers into an index over the sum's parts, inline
# where they are hot, taking the first layer unchecked since a sum has two
# or more parts.  They go down Sum, MulOmega, Sep and Band levels in a loop,
# so a long sum costs no recursion depth; only formal-sum exponents recurse.
# Each level dispatches on the node's exact class: the node classes have no
# subclasses.


def _sum_index(n: int, elem):
    """The index of the summand that an element of an n-summand sum lies
    in, and its element there."""
    i = 0
    while i < n - 1:
        side, elem = elem.side, elem.inner
        if side == 0:
            break
        i += 1
    return i, elem


def _descend(expr: Dil, elem):
    """The first node below Sum, MulOmega, Sep and Band levels, with its element."""
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts, i = expr.parts, 0
            while True:
                side, elem = elem.side, elem.inner
                if side == 0:
                    break
                i += 1
                if i == len(parts) - 1:
                    break
            expr = parts[i]
        elif kind is MulOmega:
            expr, elem = expr.base, elem.inner
        elif kind is Sep or kind is Band:
            expr = expr.base
        else:
            return expr, elem


def compare_elements(expr: Dil, e1, e2, pos_cmp=default_pos_cmp) -> int:
    """Total order on well-formed elements of ``expr``."""
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts, i = expr.parts, 0
            while True:
                side = e1.side
                if side != e2.side:
                    return LESS if side < e2.side else GREATER
                e1, e2 = e1.inner, e2.inner
                if side == 0:
                    break
                i += 1
                if i == len(parts) - 1:
                    break
            expr = parts[i]
        elif kind is OmegaComp or kind is CnfHead:
            exponents = expr.exponents
            for (x, m), (y, n) in zip(e1, e2):
                c = compare_elements(exponents, x, y, pos_cmp)
                if c != EQUAL:
                    return c
                if m != n:
                    return LESS if m < n else GREATER
            if len(e1) == len(e2):
                return EQUAL
            return LESS if len(e1) < len(e2) else GREATER
        elif kind is IdNode:
            return pos_cmp(e1, e2)
        elif kind is Const:
            return ord_cmp(e1, e2)
        elif kind is MulOmega:
            if e1.copy != e2.copy:
                return LESS if e1.copy < e2.copy else GREATER
            expr = expr.base
            e1, e2 = e1.inner, e2.inner
        elif kind is Sep or kind is Band:
            expr = expr.base
        else:
            raise MalformedElement(f"no comparison rule for {expr!r}")


def element_key(expr: Dil, elem, pos_key) -> object:
    """A key whose Python order is ``compare_elements``' order, for a
    ``pos_key`` whose order is the position order: the body
    (``(key(exponent), multiplicity)`` pairs for a formal sum,
    ``pos_key(pos)`` at Id, the index at a constant), behind the side of
    each Sum level and the copy of each MulOmega level walked through if
    there are any.  An expression's elements all walk such a level or none
    does, so keys are equal exactly when the elements compare EQUAL."""
    key = []
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts, i = expr.parts, 0
            while True:
                side, elem = elem.side, elem.inner
                key.append(side)
                if side == 0:
                    break
                i += 1
                if i == len(parts) - 1:
                    break
            expr = parts[i]
        elif kind is OmegaComp or kind is CnfHead:
            exponents = expr.exponents
            body = tuple([(element_key(exponents, x, pos_key), m) for x, m in elem])
            break
        elif kind is IdNode:
            body = pos_key(elem)
            break
        elif kind is Const:
            body = elem
            break
        elif kind is MulOmega:
            key.append(elem.copy)
            expr, elem = expr.base, elem.inner
        elif kind is Sep or kind is Band:
            expr = expr.base
        else:
            raise MalformedElement(f"no comparison rule for {expr!r}")
    return (*key, body) if key else body


def element_positions(expr: Dil, elem) -> list:
    """All positions of the element (Left and Right), unsorted."""
    out = []
    _walk_positions(expr, elem, out)
    return out


def _walk_positions(expr, elem, out):
    expr, elem = _descend(expr, elem)
    kind = expr.__class__
    if kind is IdNode:
        out.append(elem)
    elif kind is OmegaComp or kind is CnfHead:
        for x, _ in elem:
            _walk_positions(expr.exponents, x, out)
    elif kind is not Const:
        raise MalformedElement(f"no position rule for {expr!r}")


def support_of(expr: Dil, elem) -> list:
    """The live points of the element, ascending and without repeats;
    frozen ordinals are part of the code."""
    return sorted({p.point for p in element_positions(expr, elem) if isinstance(p, Right)})


def apply_embedding(expr: Dil, elem, mapping) -> object:
    """Functorial action on a live-point embedding given as a dict.  The
    ESum and ECopies layers walked through are rebuilt around the image of
    the node below them."""
    layers = []
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts, i = expr.parts, 0
            while True:
                side, elem = elem.side, elem.inner
                layers.append((ESum, side))
                if side == 0:
                    break
                i += 1
                if i == len(parts) - 1:
                    break
            expr = parts[i]
        elif kind is OmegaComp or kind is CnfHead:
            exponents = expr.exponents
            elem = tuple([(apply_embedding(exponents, x, mapping), m) for x, m in elem])
            break
        elif kind is IdNode:
            if isinstance(elem, Right):
                elem = Right(mapping[elem.point])
            break
        elif kind is Const:
            break
        elif kind is MulOmega:
            layers.append((ECopies, elem.copy))
            expr, elem = expr.base, elem.inner
        elif kind is Sep or kind is Band:
            expr = expr.base
        else:
            raise MalformedElement(f"no embedding rule for {expr!r}")
    for make, tag in reversed(layers):
        elem = make(tag, elem)
    return elem


def validate_element(expr: Dil, elem, pos_cmp=default_pos_cmp):
    """Structural well-formedness, leaves included: a repetition copy is an
    ``int`` >= 0 and a frozen position holds an ``Ord``.  Raises
    MalformedElement.  A separation's or band's membership is checked after
    its base, innermost first."""
    filters = []
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts, i, last = expr.parts, 0, len(expr.parts) - 1
            while i < last:
                if not isinstance(elem, ESum) or elem.side not in (0, 1):
                    raise MalformedElement(f"bad sum element {elem!r}")
                side, elem = elem.side, elem.inner
                if side == 0:
                    break
                i += 1
            expr = parts[i]
        elif kind is MulOmega:
            if not isinstance(elem, ECopies) or elem.copy.__class__ is not int or elem.copy < 0:
                raise MalformedElement(f"bad repetition element {elem!r}")
            expr, elem = expr.base, elem.inner
        elif kind is Sep or kind is Band:
            filters.append((expr, elem))
            expr = expr.base
        else:
            break
    if kind is Const:
        if not isinstance(elem, Ord) or ord_cmp(elem, expr.value) != LESS:
            raise MalformedElement(f"bad constant element {elem!r}")
    elif kind is IdNode:
        if not (isinstance(elem, Right) or isinstance(elem, Left) and isinstance(elem.value, Ord)):
            raise MalformedElement(f"bad Id element {elem!r}")
    elif kind is OmegaComp or kind is CnfHead:
        if not isinstance(elem, tuple):
            raise MalformedElement(f"bad formal sum {elem!r}")
        for entry in elem:
            if (entry.__class__ is not tuple or len(entry) != 2
                    or entry[1].__class__ is not int or entry[1] < 1):
                raise MalformedElement(f"bad formal-sum entry {entry!r}, not an (exponent, "
                                       "multiplicity >= 1) pair")
            validate_element(expr.exponents, entry[0], pos_cmp)
        for (x, _), (y, _) in zip(elem, elem[1:]):
            if compare_elements(expr.exponents, x, y, pos_cmp) != GREATER:
                raise MalformedElement("exponents must strictly descend")
        if kind is CnfHead:
            if not elem or elem[0][0].side != 1:
                raise MalformedElement("head elements need a high-part lead")
    else:
        raise MalformedElement(f"no validation rule for {expr!r}")
    for node, e in reversed(filters):
        if not member(node, e):
            raise MalformedElement("element violates the separation condition"
                                   if node.__class__ is Sep else "element outside the band")


def important_position(expr: Dil, elem):
    """The most important position, computed structurally (None if frozen)."""
    while True:
        expr, elem = _descend(expr, elem)
        kind = expr.__class__
        if kind is IdNode:
            return elem
        if kind is Const:
            return None
        if kind is not OmegaComp and kind is not CnfHead:
            raise MalformedElement(f"no importance rule for {expr!r}")
        if not elem:  # the empty formal sum
            return None
        expr, elem = expr.exponents, elem[0][0]


def member(node, elem) -> bool:
    """Whether an element of a separation's or band's base lies in it: its
    most important position is frozen, in [lo, hi) for a band; below the cut
    for a separation, with no frozen position between it and the cut."""
    mi = important_position(node.base, elem)
    if not isinstance(mi, Left):
        return False
    if node.__class__ is Band:
        return ord_cmp(node.lo, mi.value) != GREATER and ord_cmp(mi.value, node.hi) == LESS
    if ord_cmp(mi.value, node.cut) != LESS:
        return False
    return not any(isinstance(p, Left) and mi.value < p.value < node.cut
                   for p in element_positions(node.base, elem))


# ---------------------------------------------------------------------------
# exhaustive enumeration under a budget


class EnumBudget(Frozen):
    def __init__(self, max_count: int = 4000, const_cap: int = 12, copies: int = 3,
                 cnf_len: int = 2, cnf_mult: int = 2, grid: int = 8):
        _set(self, "max_count", max_count)
        _set(self, "const_cap", const_cap)
        _set(self, "copies", copies)
        _set(self, "cnf_len", cnf_len)
        _set(self, "cnf_mult", cnf_mult)
        _set(self, "grid", grid)


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


def _gen(expr: Dil, points, budget: EnumBudget, lefts):
    """The exhaustive enumerator's one entry: all elements within the
    structural budget over ascending ``points`` and ``lefts``, and a
    parallel list of their position keys, in ``element_positions`` order: a
    position is keyed by its place in what it was given, ``(0, v)`` for the
    frozen value v and ``(1, i)`` for the i-th point, so the keys order as
    the positions do.  The elements are built ascending, with no sort: each
    level lists its parts in order, and a formal sum walks its ascending
    exponents depth first, which is ``compare_elements``' lexicographic
    order.  Each constant, ``Id``, sum and repetition level is counted
    against the cap before any of its elements is built, so a refusal names
    the first level over the cap; a formal sum's walk stops at cap + 1."""
    kind = expr.__class__
    if kind is Const:
        bound = expr.value
        count = min(bound.as_int(), budget.const_cap) if bound.is_finite() else budget.const_cap
        _check_cap(count, budget)
        return [from_int(k) for k in range(count)], [()] * count
    if kind is IdNode:
        _check_cap(len(lefts) + len(points), budget)
        elems = [Left(v) for v in lefts] + [Right(p) for p in points]
        return elems, [((0, v),) for v in lefts] + [((1, i),) for i in range(len(points))]
    if kind is Sum:
        # each distinct summand is generated once, and placed one ESum
        # layer at a time, a list per layer
        parts = expr.parts
        made = {p: _gen(p, points, budget, lefts) for p in dict.fromkeys(parts)}
        _check_cap(sum(len(made[part][0]) for part in parts), budget)
        elems, positions = [], []
        for i, part in enumerate(parts):
            part_elems, part_positions = made[part]
            if i < len(parts) - 1:
                part_elems = [ESum(0, x) for x in part_elems]
            for _ in range(i):
                part_elems = [ESum(1, x) for x in part_elems]
            elems += part_elems
            positions += part_positions
        return elems, positions
    if kind is MulOmega:
        elems, positions = _gen(expr.base, points, budget, lefts)
        _check_cap(len(elems) * budget.copies, budget)
        copies = range(budget.copies)
        return [ECopies(k, x) for k in copies for x in elems], positions * budget.copies
    if kind is OmegaComp or kind is CnfHead:
        exps, positions = _gen(expr.exponents, points, budget, lefts)
        mults = range(1, budget.cnf_mult + 1)
        pairs = [[(x, m) for m in mults] for x in exps]
        out, out_positions = [], []

        def walk(body, held, below):
            # body, then its extensions by the exponents before index ``below``;
            # the walk nests only as deep as the log of the cap
            out.append(body)
            out_positions.append(held)
            if len(out) > budget.max_count:
                raise BudgetExceeded("formal-sum budget overflow")
            if len(body) < budget.cnf_len:
                for i in range(below):
                    more = held + positions[i]
                    for pair in pairs[i]:
                        walk(body + (pair,), more, i)

        if kind is OmegaComp:
            walk((), (), len(exps))
        elif budget.cnf_len:  # a head's sums need a high-part lead
            for i, x in enumerate(exps):
                if x.side == 1:
                    for pair in pairs[i]:
                        walk((pair,), positions[i], i)
        return out, out_positions
    if kind is Sep or kind is Band:
        made = _gen(expr.base, points, budget, _grid_values(expr.amb, budget.grid))
        kept = [member(expr, e) for e in made[0]]
        return tuple(list(itertools.compress(column, kept)) for column in made)
    raise MalformedElement(f"no enumeration rule for {expr!r}")


def _check_cap(count: int, budget: EnumBudget):
    """Refuse a level of ``count`` elements over ``budget.max_count``, before
    any of them is built."""
    if count > budget.max_count:
        raise BudgetExceeded(f"{count} elements exceed cap {budget.max_count}")


def _place(elem, i: int, n: int):
    """An element of the i-th of n summands as an element of their sum,
    the inverse of ``_sum_index``: its ESum layers, built in a loop, so a
    long sum costs no recursion depth."""
    if i < n - 1:
        elem = ESum(0, elem)
    for _ in range(i):
        elem = ESum(1, elem)
    return elem


def enum_elements(expr: Dil, points, budget: EnumBudget = EnumBudget()):
    """All elements over the given points within the budget, ascending, as
    they are built: only the points are sorted.

    ``points`` may be a count (meaning 0..n-1) or a list of distinct labels
    that compare with each other; a repeated label raises ``ValueError``.
    """
    points = sorted(range(points) if isinstance(points, int) else points)
    if any(a == b for a, b in itertools.pairwise(points)):
        raise ValueError("enum_elements: repeated point")
    return _gen(expr, points, budget, ())[0]


# ---------------------------------------------------------------------------
# ascending streams (true prefixes)


def ambient_stream(expr: Dil, points, bound: Ord = ZERO, pull_cap: int = 200000):
    """Yield the elements of ``expr`` over the order [0, bound) + points in
    strictly ascending order.

    The stream realizes the true initial segment of the order: frozen
    positions are walked upward from zero, a formal sum yields the least
    lead's block, and filtered nodes stop as soon as the most important
    argument leaves their window.  Each element that a constant, an ``Id``
    or a formal-sum level yields costs one pull, the empty sum included,
    and the pull past ``pull_cap`` raises ``BudgetExceeded``.  A ``range``,
    tuple or list of points is read as given; other iterables are copied once.
    Points that do not strictly ascend raise ``ValueError``.
    """
    if points.__class__ is range:
        ascending = points.step > 0
    else:
        if points.__class__ not in (tuple, list):
            points = tuple(points)
        ascending = all(a < b for a, b in itertools.pairwise(points))
    if not ascending:
        raise ValueError("ambient_stream: points must strictly ascend")
    pulls = itertools.count(1)

    def pull():
        if next(pulls) > pull_cap:
            raise BudgetExceeded("stream pull budget exhausted")

    return _stream(expr, points, bound, pull)


def _stream(expr: Dil, points, bound, pull):
    """Ascending elements of ``expr`` over the order [0, bound) + points,
    calling ``pull()`` before each element of a constant, Id or formal sum."""
    kind = expr.__class__
    if kind is Const or kind is IdNode:
        v, top = ZERO, expr.value if kind is Const else bound
        while v < top:
            pull()
            yield v if kind is Const else Left(v)
            v = ord_add(v, ONE)
        if kind is IdNode:
            for p in points:
                pull()
                yield Right(p)
    elif kind is Sum:
        parts = expr.parts
        for i, part in enumerate(parts):
            for x in _stream(part, points, bound, pull):
                yield _place(x, i, len(parts))
    elif kind is MulOmega:
        for k in itertools.count():
            x = None
            for x in _stream(expr.base, points, bound, pull):
                yield ECopies(k, x)
            if x is None:
                return  # an empty base: no copy has an element
    elif kind is OmegaComp or kind is CnfHead:
        # the multiplicity is unbounded, so the least lead's block comes
        # first: lead*m when no exponent lies below the lead, else the lead
        # alone, then lead + t*m for t the least low exponent
        if kind is OmegaComp:
            pull()
            yield ()
        lead = next(_stream(expr.base if kind is OmegaComp else expr.high, points, bound, pull),
                    None)
        if lead is None:
            return
        body, least = (), None
        if kind is CnfHead:
            lead, least = ESum(1, lead), next(_stream(expr.low, points, bound, pull), None)
        if least is not None:
            pull()
            yield ((lead, 1),)
            body, lead = ((lead, 1),), ESum(0, least)
        for m in itertools.count(1):
            pull()
            yield (*body, (lead, m))
    elif kind is Sep or kind is Band:
        if kind is Band and not expr.lo.is_zero():
            # the part below lo is infinite unless the base is Id and lo finite
            if not (expr.base.__class__ is IdNode and expr.lo.is_finite()):
                raise BudgetExceeded("band stream skips infinitely many elements below lo")
        hi = expr.cut if kind is Sep else expr.hi
        for e in _stream(expr.base, points, expr.amb, pull):
            mi = important_position(expr.base, e)
            if mi.__class__ is not Left or mi.value >= hi:
                return  # ascending, so nothing later can re-enter
            if member(expr, e):
                yield e
    else:
        raise MalformedElement(f"no stream rule for {expr!r}")


def prefix_elements(expr: Dil, n_points: int, k: int, pull_cap: int = 200000):
    """The first ``k`` elements of the order over {0,...,n_points-1}."""
    return list(itertools.islice(ambient_stream(expr, range(n_points), ZERO, pull_cap), k))


# ---------------------------------------------------------------------------
# rendering


def pos_str(p) -> str:
    if isinstance(p, Left):
        return f"L({ord_str(p.value)})"
    return f"x{p.point}"


def element_str(expr: Dil, elem, render_pos=pos_str) -> str:
    """The element as text; down Sum, MulOmega, Sep and Band levels in a loop."""
    head = []
    while True:
        kind = expr.__class__
        if kind is Sum:
            parts = expr.parts
            i, elem = _sum_index(len(parts), elem)
            head.append("r:" * i + ("l:" if i < len(parts) - 1 else ""))
            expr = parts[i]
        elif kind is MulOmega:
            head.append(f"{elem.copy}#")
            expr, elem = expr.base, elem.inner
        elif kind is Sep or kind is Band:
            expr = expr.base
        else:
            break
    if kind is Const:
        body = f"c[{ord_str(elem)}]"
    elif kind is IdNode:
        body = render_pos(elem)
    elif kind is OmegaComp or kind is CnfHead:
        body = "+".join(
            f"w^{{{element_str(expr.exponents, x, render_pos)}}}" + (f"*{m}" if m > 1 else "")
            for x, m in elem
        ) or "0"
    else:
        raise MalformedElement(f"no rendering rule for {expr!r}")
    return "".join(head) + body
