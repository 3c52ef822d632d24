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
"""

from __future__ import annotations

import random

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
    default_pos_key,
    element_key,
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
        if isinstance(p, Right) and isinstance(q, Right):
            return self.compare(p.point, q.point)
        return default_pos_cmp(p, q)

    def pos_key(self, p) -> tuple:
        """The position key of ``pos_cmp``'s order: a sub-term is keyed by
        its own ``element_key``."""
        if p.__class__ is Right:
            return (1, element_key(self.dilator, p.point, self.pos_key))
        return default_pos_key(p)

    def compare(self, t1, t2) -> int:
        return compare_elements(self.dilator, t1, t2, self.pos_cmp)

    def valid(self, t) -> bool:
        """The decision procedure: ``t`` is well formed and descends."""
        return self._well_formed(t) and self._descends(t)

    def _well_formed(self, t) -> bool:
        """Well formed as an element, each frozen position below gamma,
        and each sub-term well formed, recursively."""
        try:
            validate_element(self.dilator, t, self.pos_cmp)
        except MalformedElement:
            return False
        for p in element_positions(self.dilator, t):
            if p.__class__ is Left:
                if not p.value < self.gamma:
                    return False
            elif not self._well_formed(p.point):
                return False
        return True

    def _descends(self, t) -> bool:
        """Each sub-term of a well-formed ``t`` lies below it, recursively."""
        for p in element_positions(self.dilator, t):
            if p.__class__ is Right and (self.compare(p.point, t) != LESS
                                         or not self._descends(p.point)):
                return False
        return True

    # -- enumeration

    def enum(self, depth: int = 2):
        """All valid terms of nesting depth <= depth, sorted ascending.

        Level L walks, in key order, the ``_candidates`` over the terms known
        after the levels before it, a list sorted ascending.  A point of a
        candidate is one of those term objects, keyed ``(1, rank)`` by its
        rank there; ranks are injective and order-preserving, so the keys
        order the candidates as ``compare`` does, and stay shallow at any
        level.  A candidate is valid iff each frozen position v (key
        ``(0, v)``; a separation's or band's base draws them up to its
        ambient) is below gamma and each point is below it: ``_gen`` builds
        only well-formed elements.  Generation is monotone in the
        known points and validity does not depend on the level, so the
        valid candidates whose points all predate the level before (at
        level 0, none) are the known terms again, met in rank order: the
        point of rank r is below a candidate iff more than r of them have
        been met.  A level that meets no new valid candidate ends the walk;
        otherwise its valid candidates, in key order, are the next known
        terms, bounded by the cap on the candidates.
        """
        dilator, gamma = self.dilator, self.gamma
        lefts = _grid_values(gamma, ENUM_BUDGET.grid)

        def pos_key(p):
            return ranks[id(p.point)] if p.__class__ is Right else (0, p.value)

        known: list = []
        last = None  # ranks of the terms accepted at the level before
        for _level in range(depth + 1):
            ranks = {id(t): (1, i) for i, t in enumerate(known)}
            cands = _candidates(dilator, known, ENUM_BUDGET, lefts, pos_key)
            terms, fresh, older = [], [], 0  # older: the known terms passed so far
            for i in cands.key_order():
                new = last is None
                for tag, v in cands.positions[i]:
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
                    terms.append(cands[i])
            if not fresh:
                break
            known, last = terms, set(fresh)
        return known

    # -- random generation

    def random_term(self, rng: random.Random):
        """A valid term drawn from ``rng``, or None after 40 failed draws.

        ``_rand`` builds only well-formed terms: frozen positions and
        constant indices from their grids, formal-sum exponents sorted and
        de-duplicated by key, heads with a high lead, filtered nodes that
        pass ``member``.  So a draw is checked for descent only
        (``_descends``); ``valid`` is the full decision procedure.
        """
        lefts = _grid_values(self.gamma, 12)
        for _ in range(40):
            try:
                cand = self._rand(self.dilator, rng, RANDOM_DEPTH, lefts)
            except _DeadEnd:
                continue
            if self._descends(cand):
                return cand
        return None

    def _rand_position(self, rng, depth, lefts):
        if lefts and (depth <= 0 or rng.random() < 0.6):
            return Left(rng.choice(lefts))
        if depth > 0:
            return Right(self._rand(self.dilator, rng, depth - 1, lefts))
        raise _DeadEnd()

    def _rand(self, expr, rng, depth, lefts):
        if isinstance(expr, Const):
            if expr.value.is_zero():
                raise _DeadEnd()
            bound = expr.value
            pool = _grid_values(bound, 6)
            if not pool:
                raise _DeadEnd()
            return rng.choice(pool)
        if isinstance(expr, IdNode):
            return self._rand_position(rng, depth, lefts)
        if isinstance(expr, Sum):
            parts = expr.parts
            n = len(parts)
            i = rng.randint(0, n - 1)
            for _ in range(n):
                try:
                    return _place(self._rand(parts[i], rng, depth, lefts), i, n)
                except _DeadEnd:
                    i = (i + 1) % n
            raise _DeadEnd()
        if isinstance(expr, MulOmega):
            return ECopies(rng.randint(0, 3), self._rand(expr.base, rng, depth, lefts))
        if isinstance(expr, (OmegaComp, CnfHead)):
            return self._rand_cnf(expr, rng, depth, lefts)
        if isinstance(expr, (Sep, Band)):
            for _ in range(12):
                cand = self._rand(expr.base, rng, depth, lefts)
                if member(expr, cand):
                    return cand
            raise _DeadEnd()
        raise _DeadEnd()

    def _rand_cnf(self, expr, rng, depth, lefts):
        head = isinstance(expr, CnfHead)
        count = rng.randint(0 if not head else 1, 2)
        if count == 0:
            return ()
        exps = []
        if head:
            exps.append(ESum(1, self._rand(expr.high, rng, depth, lefts)))
            count -= 1
        for _ in range(count):
            if not head:
                exps.append(self._rand(expr.base, rng, depth, lefts))
            else:
                side = 0 if rng.random() < 0.7 else 1
                part = expr.low if side == 0 else expr.high
                try:
                    exps.append(ESum(side, self._rand(part, rng, depth, lefts)))
                except _DeadEnd:
                    continue
        keyed = [(element_key(expr.exponents, e, self.pos_key), e) for e in exps]
        keyed.sort(key=lambda ke: ke[0], reverse=True)
        uniq, last = [], None
        for k, e in keyed:
            if not uniq or last > k:
                uniq.append((e, rng.randint(1, 2)))
                last = k
        if head and (not uniq or uniq[0][0].side != 1):
            raise _DeadEnd()
        return tuple(uniq)


class _DeadEnd(Exception):
    pass


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
