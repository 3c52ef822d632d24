"""Collapse term orders and the fixed-point recursion clauses.

A collapse term over (D, gamma) is an element of D whose positions are
either ordinals below gamma or strictly smaller collapse terms; the order
compares terms through the element order of D with that position
comparator.  ``psi_clause_otp`` computes the order type of the whole term
order by recursion on D.  A sum takes the prefix clause
psi(P + X, gamma) = psi(Const(psi(P, gamma)) + X, gamma), one summand at a
time left to right, so a sum of n summands costs n steps of two summands
each; each step of a sum passed in has its own step budget, and a refused
call forgets what it cached, by the rule ``otp_symbolic`` follows.  A limit
and a connected component's fixed point both take their value from
``LIMIT_SAMPLES`` partial sums through ``analysis._limit_sup``.  The
term-level services (validity, comparison, enumeration, seeded descent
search) stay available even where the order type leaves the notation
fragment.

Seeded draws come from a sampler each ``PsiOrder`` builds once
(``_build_sampler``): one closure per expression node, holding its pools, its
summand count and the closures below it, which draws each index with the
rng's own ``_randbelow``, the rule ``randint`` and ``choice`` use.  A draw
is built well formed and records the sub-terms it placed, each with its own
records, so ``random_term`` checks only that each recorded sub-term lies
below its term, recursively, without walking the draw again.
"""

from __future__ import annotations

import random
from functools import cached_property

from . import analysis
from .analysis import _limit_sup, _normalized, _refusing, decompose
from .errors import DepthExceeded, MalformedElement
from .expr import (
    Band,
    CnfHead,
    Const,
    Dil,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    mk_band,
    mk_sum,
    summands,
)
from .ordinal import (
    EQUAL,
    GREATER,
    LESS,
    ZERO,
    Frozen,
    Ord,
    Record,
    _set,
    ord_add,
    ord_str,
)
from .semantics import (
    ECopies,
    ESum,
    EnumBudget,
    Left,
    Right,
    _candidates,
    _grid_values,
    _place,
    compare_elements,
    default_pos_cmp,
    element_positions,
    element_str,
    member,
    validate_element,
)

# the budget of PsiOrder.enum's candidates, and the nesting depth of
# PsiOrder.random_term's draws
ENUM_BUDGET = EnumBudget(const_cap=8, copies=2, cnf_len=2, cnf_mult=2, grid=6)
RANDOM_DEPTH = 3


# ---------------------------------------------------------------------------
# order types by recursion on the expression

_PSI_CACHE: dict = {}


def psi_clause_otp(d: Dil, gamma: Ord) -> Ord:
    """Order type of the collapse order of d shifted by gamma.

    A sum other than ``Const + atom`` is folded by the prefix clause
    psi(P + X, gamma) = psi(Const(psi(P, gamma)) + X, gamma), so its cost is
    linear in the number of summands.

    The step budget counts cache misses, 4,000 to a recursion, then
    ``DepthExceeded``.  A constant is its own value: it is neither cached
    nor counted.  A sum passed in by the caller gives each of its summand
    steps a budget of its own, so no length of sum runs out of budget; a
    sum met inside a recursion shares that recursion's budget, so the
    budget still bounds the work of every step.  A refused call leaves the
    cache as it found it (``analysis._refusing``, as for ``otp_symbolic``).
    """
    return _refusing(_PSI_CACHE, _psi_cached, d, gamma, None)


def _psi_cached(d: Dil, gamma: Ord, budget) -> Ord:
    """psi with the recursion's budget; ``None`` marks a call from outside
    a recursion, where a folding sum is not charged and each summand step
    starts a budget of its own."""
    if isinstance(d, Const):
        return d.value
    key = (d, gamma)
    if key in _PSI_CACHE:
        return _PSI_CACHE[key]
    if budget is not None or not _folds(d):
        if budget is None:
            budget = [4000]
        budget[0] -= 1
        if budget[0] < 0:
            raise DepthExceeded("collapse recursion exceeded its step budget")
    value = _psi(d, gamma, budget)
    _PSI_CACHE[key] = value
    return value


def _folds(d: Dil) -> bool:
    """A sum that the prefix clause folds; a step ``Const + atom`` does not."""
    return d.__class__ is Sum and (len(d.parts) > 2 or d.parts[0].__class__ is not Const)


def _psi(d: Dil, gamma: Ord, budget) -> Ord:
    if _folds(d):
        # psi(P + X, gamma) = psi(Const(psi(P, gamma)) + X, gamma), one
        # summand at a time: the terms over P form an initial segment of
        # the collapse order, and the terms over X see them only as
        # available positions, so only their order type matters
        value = ZERO
        for part in summands(d):
            value = _psi_cached(mk_sum(Const(value), part), gamma, budget)
        return value
    dec = _normalized(d, decompose(d))
    if dec.kind == "succ":
        head = _psi_cached(dec.prefix, gamma, budget)
        delta = ord_add(gamma, head)
        return ord_add(head, _psi_connected(dec.top, delta, budget))
    return _limit_sup(d, lambda k: _psi_cached(dec.fund(k), gamma, budget))


def _psi_connected(atom: Dil, delta: Ord, budget) -> Ord:
    """Fixed point of a connected non-unit component above ``delta``.

    Iterates the lower split at the running cut, at most ``LIMIT_SAMPLES``
    times, and sums the stage values: a zero stage ends the sum, and
    otherwise ``_limit_sup`` takes the supremum of the partial sums.
    """
    cut, hi, total, partials = ZERO, delta, ZERO, []
    for _ in range(analysis.LIMIT_SAMPLES):
        stage = _psi_cached(mk_band(atom, cut, hi, hi), ZERO, budget)
        if stage.is_zero():
            return total
        total = ord_add(total, stage)
        partials.append(total)
        cut, hi = hi, ord_add(hi, stage)
    return _limit_sup(atom, partials.__getitem__)


# ---------------------------------------------------------------------------
# the term order


class PsiOrder(Frozen):
    """Decidable presentation of the collapse order of (dilator, gamma)."""

    def __init__(self, dilator: Dil, gamma: Ord):
        _set(self, "dilator", dilator)
        _set(self, "gamma", gamma)

    def pos_cmp(self, p, q) -> int:
        if p.__class__ is Right and q.__class__ is Right:
            return self.compare(p.point, q.point)
        return default_pos_cmp(p, q)

    def compare(self, t1, t2) -> int:
        return compare_elements(self.dilator, t1, t2, self.pos_cmp)

    def valid(self, t) -> bool:
        """The decision procedure, in one walk: ``t`` is a well-formed
        element, each frozen position is below gamma, and each sub-term is
        valid and below ``t``, compared with ``t`` once all are valid."""
        try:
            validate_element(self.dilator, t, self.pos_cmp)
        except MalformedElement:
            return False
        positions = element_positions(self.dilator, t)
        for p in positions:
            if p.__class__ is Left:
                if not p.value < self.gamma:
                    return False
            elif not self.valid(p.point):
                return False
        return all(self.compare(p.point, t) == LESS
                   for p in positions if p.__class__ is Right)

    # -- enumeration

    def enum(self, depth: int = 2):
        """All valid terms of nesting depth <= depth, sorted ascending.

        Level L walks the ``_candidates`` over the terms known after the
        levels before it, a list sorted ascending, in the order they are
        built, which is ascending.  A point of a candidate is one of those
        term objects, and ``_gen`` keys it ``(1, rank)`` by its place in that
        list, which is its rank, so the position keys stay shallow at any
        level and no key of a term is ever built.  A candidate is valid iff
        each frozen position v (key ``(0, v)``; a separation's or band's base
        draws them up to its ambient) is below gamma and each point is below
        it: ``_gen`` builds only well-formed elements.  Generation is
        monotone in the known points and validity does not depend on the
        level, so the valid candidates whose points all predate the level
        before (at level 0, none) are the known terms again, met in rank
        order: the point of rank r is below a candidate iff more than r of
        them have been met.  A level that meets no new valid candidate ends
        the walk; otherwise its valid candidates, in order, are the next
        known terms, bounded by the cap on the candidates.
        """
        dilator, gamma = self.dilator, self.gamma
        lefts = _grid_values(gamma, ENUM_BUDGET.grid)
        known: list = []
        last = None  # ranks of the terms accepted at the level before
        for _level in range(depth + 1):
            terms, fresh, older = [], [], 0  # older: the known terms passed so far
            for cand, held in zip(*_candidates(dilator, known, ENUM_BUDGET, lefts)):
                new = last is None
                for tag, v in held:
                    if tag == 0:
                        if not v < gamma:
                            break
                    elif v >= older:
                        break
                    elif not new:
                        new = v in last
                else:
                    if new:
                        fresh.append(len(terms))
                    else:
                        older += 1
                    terms.append(cand)
            if not fresh:
                break
            known, last = terms, set(fresh)
        return known

    # -- random generation

    def random_term(self, rng: random.Random):
        """A valid term drawn from ``rng``, or None after 40 failed draws.

        ``rng`` is assumed to be a ``random.Random``: the sampler draws each
        index with ``rng._randbelow``, which ``randint`` and ``choice`` call
        there, so a seeded draw reads the stream they would.
        The sampler (``_build_sampler``) builds only well-formed terms:
        frozen positions and constant indices from their grids, formal-sum
        exponents descending without repeats, heads with a high lead,
        filtered nodes that pass ``member``.  Each draw records the
        sub-terms it placed (``_draw``), so a draw is checked for descent
        only, on its records, with no second walk (``_placed_descend``,
        which decides on a draw as ``valid`` does); ``valid`` is the full
        decision procedure.
        """
        for _ in range(40):
            try:
                t, placed = self._draw(rng)
            except _DeadEnd:
                continue
            if self._placed_descend(t, placed):
                return t
        return None

    def _draw(self, rng: random.Random):
        """One raw draw, ``(term, placed)``: ``placed`` holds a pair
        ``(sub-term, its placed)`` for each live position of the term.
        Raises ``_DeadEnd`` where a node has nothing to draw from."""
        placed = []
        return self._sampler(rng._randbelow, rng.random, RANDOM_DEPTH, placed), placed

    def _placed_descend(self, t, placed) -> bool:
        """Each placed sub-term lies below ``t``, recursively."""
        for s, inner in placed:
            if self.compare(s, t) != LESS or not self._placed_descend(s, inner):
                return False
        return True

    @cached_property
    def _sampler(self):
        """The dilator's sampler, built on first use; not a field."""
        return _build_sampler(self.dilator, _grid_values(self.gamma, 12), self.pos_cmp)


class _DeadEnd(Exception):
    pass


def _dead_end(below, unit, depth, placed):
    raise _DeadEnd()


def _build_sampler(dilator: Dil, lefts: tuple, pos_cmp):
    """The dilator's closure ``draw(below, unit, depth, placed)``, with one
    such closure per node below it; ``below`` and ``unit`` are an rng's
    ``_randbelow`` and ``random``.  An Id at ``depth`` > 0 may place a
    sub-term instead of a frozen position, drawn by the dilator's closure at
    one depth less, and appends ``(sub-term, its placed)`` to ``placed``.
    A draw drops the records of what it throws away: a rejected separation
    or band candidate, a repeated formal-sum exponent, and what a sum part
    or a head's second exponent placed before it raised ``_DeadEnd``
    (trimmed where the ``_DeadEnd`` is caught)."""
    lefts = tuple(Left(v) for v in lefts)
    n_lefts = len(lefts)

    def formal(exponents, x, y, mark, below, placed):
        """The formal sum of the drawn exponents ``x`` and ``y`` (None if
        only ``x`` was drawn), descending; an ``y`` equal to ``x`` is
        dropped with its records, those past ``mark``.  Then a
        multiplicity of 1 or 2 is drawn for each kept exponent in order."""
        if y is not None:
            c = compare_elements(exponents, x, y, pos_cmp)
            if c == GREATER:
                return ((x, below(2) + 1), (y, below(2) + 1))
            if c == LESS:
                return ((y, below(2) + 1), (x, below(2) + 1))
            del placed[mark:]
        return ((x, below(2) + 1),)

    def build(expr):
        kind = expr.__class__
        if kind is Const:
            pool = _grid_values(expr.value, 6)
            size = len(pool)
            if not size:  # Const(0) has no element
                return _dead_end

            def draw(below, unit, depth, placed):
                return pool[below(size)]
        elif kind is IdNode:
            def draw(below, unit, depth, placed):
                if lefts and (depth <= 0 or unit() < 0.6):
                    return lefts[below(n_lefts)]
                if depth <= 0:
                    raise _DeadEnd()
                inner = []
                t = top(below, unit, depth - 1, inner)
                placed.append((t, inner))
                return Right(t)
        elif kind is Sum:
            parts = [build(p) for p in expr.parts]
            n = len(parts)

            def draw(below, unit, depth, placed):
                i, mark = below(n), len(placed)
                for _ in range(n):
                    try:
                        return _place(parts[i](below, unit, depth, placed), i, n)
                    except _DeadEnd:
                        del placed[mark:]
                        i = (i + 1) % n
                raise _DeadEnd()
        elif kind is MulOmega:
            base = build(expr.base)

            def draw(below, unit, depth, placed):
                copy = below(4)
                return ECopies(copy, base(below, unit, depth, placed))
        elif kind is OmegaComp:
            base, exponents = build(expr.base), expr.exponents

            def draw(below, unit, depth, placed):
                count = below(3)
                if count == 0:
                    return ()
                x = base(below, unit, depth, placed)
                mark = len(placed)
                y = base(below, unit, depth, placed) if count == 2 else None
                return formal(exponents, x, y, mark, below, placed)
        elif kind is CnfHead:
            low, high, exponents = build(expr.low), build(expr.high), expr.exponents

            def draw(below, unit, depth, placed):
                count = below(2) + 1
                x = ESum(1, high(below, unit, depth, placed))
                mark, y = len(placed), None
                if count == 2:
                    side = 0 if unit() < 0.7 else 1
                    try:
                        y = ESum(side, (high if side else low)(below, unit, depth, placed))
                    except _DeadEnd:  # the head keeps its lead alone
                        del placed[mark:]
                return formal(exponents, x, y, mark, below, placed)
        elif kind is Sep or kind is Band:
            base = build(expr.base)

            def draw(below, unit, depth, placed):
                mark = len(placed)
                for _ in range(12):
                    elem = base(below, unit, depth, placed)
                    if member(expr, elem):
                        return elem
                    del placed[mark:]
                raise _DeadEnd()
        else:
            raise MalformedElement(f"no sampling rule for {expr!r}")
        return draw

    top = build(dilator)
    return top


def psi_enum(order: PsiOrder, depth: int = 4):
    """Sorted valid terms of bounded nesting depth; see PsiOrder.enum."""
    return order.enum(depth)


def term_str(order: PsiOrder, t) -> str:
    """Render a collapse term; bracketed positions are nested sub-terms."""
    def render(p):
        if isinstance(p, Left):
            return ord_str(p.value)
        return "[" + term_str(order, p.point) + "]"

    return element_str(order.dilator, t, render)


# ---------------------------------------------------------------------------
# descent search and embedding checks


class SearchResult(Frozen):
    def __init__(self, found: bool, chain: tuple = (), trials: int = 0):
        _set(self, "found", found)
        _set(self, "chain", chain)
        _set(self, "trials", trials)

    @property
    def summary(self) -> str:
        return "Counterexample" if self.found else "NoneFound"


def chain_search(handle, trials: int, depth: int, seed: int) -> SearchResult:
    """Seeded random search for a strictly descending chain.

    Each trial draws fresh elements and extends the chain only when the
    draw is strictly smaller (four draws per level).  Finding a chain of
    the requested depth refutes well-foundedness of the sampled region;
    exhausting the trials certifies only absence within the budget.
    """
    rng = random.Random(seed)
    for trial in range(trials):
        current = handle.random_element(rng)
        if current is None:
            continue
        chain = [current]
        while len(chain) < depth:
            extended = False
            for _ in range(4):
                cand = handle.random_element(rng)
                if cand is None:
                    continue
                if handle.compare(cand, current) == LESS:
                    chain.append(cand)
                    current = cand
                    extended = True
                    break
            if not extended:
                break
        if len(chain) >= depth:
            return SearchResult(True, tuple(chain), trial + 1)
    return SearchResult(False, (), trials)


class PsiSearchHandle(Record):
    def __init__(self, order: PsiOrder):
        self.order = order

    def random_element(self, rng):
        return self.order.random_term(rng)

    def compare(self, a, b):
        return self.order.compare(a, b)


class IllFoundedFixture(Record):
    """Deliberately descending integer generator; the harness self-test."""

    def __init__(self, state: int = 0):
        self.state = state

    def random_element(self, rng):
        self.state -= rng.randint(1, 9)
        return self.state

    def compare(self, a, b):
        return LESS if a < b else EQUAL if a == b else GREATER
