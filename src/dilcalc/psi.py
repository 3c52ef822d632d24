"""Collapse term orders and the fixed-point recursion clauses.

A collapse term over (D, gamma) is an element of D whose positions are
either ordinals below gamma or strictly smaller collapse terms; the order
compares terms through the element order of D with that position
comparator.  ``psi_clause_otp`` computes the order type of the whole term
order by recursion on D; the term-level services (validity, comparison,
enumeration, seeded descent search) stay available even where the order
type leaves the notation fragment.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import decompose
from .errors import BudgetExceeded, DepthExceeded, EnumerationShortfall, MalformedElement
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
    _split_trailing,
    mk_band,
)
from .ordinal import (
    EQUAL,
    GREATER,
    LESS,
    LIMIT_SAMPLES,
    ONE,
    ZERO,
    Ord,
    ord_add,
    ord_str,
    ord_sup_of_sequence,
)
from .semantics import (
    ECnf,
    EConst,
    ECopies,
    EId,
    ESum,
    EnumBudget,
    Left,
    Right,
    _grid_values,
    band_member,
    compare_elements,
    default_pos_cmp,
    element_positions,
    element_str,
    enum_elements,
    prefix_elements,
    sep_member,
    validate_element,
)

CONNECTED_ROUNDS = 10


# ---------------------------------------------------------------------------
# order types by recursion on the expression

_PSI_CACHE: dict = {}


def psi_clause_otp(d: Dil, gamma: Ord, _budget: list = None) -> Ord:
    """Order type of the collapse order of d shifted by gamma."""
    key = (d, gamma)
    if key in _PSI_CACHE:
        return _PSI_CACHE[key]
    if _budget is None:
        _budget = [4000]
    _budget[0] -= 1
    if _budget[0] < 0:
        raise DepthExceeded("collapse recursion exceeded its step budget")
    value = _psi(d, gamma, _budget)
    _PSI_CACHE[key] = value
    return value


def _psi(d: Dil, gamma: Ord, budget) -> Ord:
    if isinstance(d, Const):
        return d.value
    rest, last = _split_trailing(d)
    if rest is not None and isinstance(last, Const):
        # sum clause with a constant tail: the shifted tail keeps its value
        return ord_add(psi_clause_otp(rest, gamma, budget), last.value)
    dec = decompose(d)
    if dec.kind == "zero":
        return ZERO
    if dec.kind == "succ":
        head = psi_clause_otp(dec.prefix, gamma, budget)
        if isinstance(dec.top, Const):  # the unit component
            return ord_add(head, ONE)
        delta = ord_add(gamma, head)
        return ord_add(head, _psi_connected(dec.top, delta, budget))
    samples = []
    for k in range(LIMIT_SAMPLES):
        samples.append(psi_clause_otp(dec.fund(k), gamma, budget))
    return ord_sup_of_sequence(samples)


def _psi_connected(atom: Dil, delta: Ord, budget) -> Ord:
    """Fixed point of a connected non-unit component above ``delta``.

    Iterates the lower split at the running cut and sums the resulting
    values; the partial sums are extrapolated to their supremum.
    """
    stages = connected_stage_values(atom, delta, CONNECTED_ROUNDS, budget)
    partials = list(itertools.accumulate(stages, ord_add))
    if stages[-1].is_zero():
        return partials[-1]
    return ord_sup_of_sequence(partials)


def connected_stage_values(atom: Dil, delta: Ord, rounds: int, _budget: list = None) -> list:
    """The successive stage values of the connected clause at ``delta``."""
    total_cut, step = ZERO, delta
    stages = []
    for _ in range(rounds):
        hi = ord_add(total_cut, step)
        value = psi_clause_otp(mk_band(atom, total_cut, hi, hi), ZERO, _budget)
        stages.append(value)
        if value.is_zero():
            break
        total_cut, step = hi, value
    return stages


# ---------------------------------------------------------------------------
# the term order


@dataclass(frozen=True)
class PsiOrder:
    """Decidable presentation of the collapse order of (dilator, gamma)."""

    dilator: Dil
    gamma: Ord

    def pos_cmp(self, p, q) -> int:
        if isinstance(p, Right) and isinstance(q, Right):
            return self.compare(p.point, q.point)
        return default_pos_cmp(p, q)

    def compare(self, t1, t2) -> int:
        return compare_elements(self.dilator, t1, t2, self.pos_cmp)

    def valid(self, t) -> bool:
        try:
            validate_element(self.dilator, t, self.pos_cmp)
        except MalformedElement:
            return False
        for p in element_positions(self.dilator, t):
            if isinstance(p, Left):
                if not p.value < self.gamma:
                    return False
            else:
                sub = p.point
                if not self.valid(sub):
                    return False
                if self.compare(sub, t) != LESS:
                    return False
        return True

    # -- enumeration

    def enum(self, depth: int = 2, budget: EnumBudget = None):
        """All valid terms of nesting depth <= depth, sorted ascending."""
        budget = budget or EnumBudget(const_cap=8, copies=2, cnf_len=2, cnf_mult=2, grid=6)
        lefts = _grid_values(self.gamma, budget.grid)
        known: list = []
        seen = set()
        for _level in range(depth + 1):
            fresh = []
            for cand in enum_elements(
                self.dilator, known, budget, lefts=lefts, pos_cmp=self.pos_cmp
            ):
                if cand in seen:
                    continue
                if self.valid(cand):
                    seen.add(cand)
                    fresh.append(cand)
            if not fresh:
                break
            known.extend(fresh)
            if len(known) > budget.max_count:
                raise BudgetExceeded("term universe exceeds the budget")
        return sorted(known, key=functools.cmp_to_key(self.compare))

    # -- random generation

    def random_term(self, rng: random.Random, depth: int = 3, tries: int = 40):
        lefts = _grid_values(self.gamma, 12)
        for _ in range(tries):
            try:
                cand = self._rand(self.dilator, rng, depth, lefts)
            except _DeadEnd:
                continue
            if cand is not None and self.valid(cand):
                return cand
        return None

    def _rand_position(self, rng, depth, lefts):
        if lefts and (depth <= 0 or rng.random() < 0.6):
            return Left(rng.choice(lefts))
        if depth > 0:
            sub = self._rand(self.dilator, rng, depth - 1, lefts)
            if sub is not None:
                return Right(sub)
        raise _DeadEnd()

    def _rand(self, expr, rng, depth, lefts):
        if isinstance(expr, Const):
            if expr.value.is_zero():
                raise _DeadEnd()
            bound = expr.value
            pool = _grid_values(bound, 6)
            if not pool:
                raise _DeadEnd()
            return EConst(rng.choice(pool))
        if isinstance(expr, IdNode):
            return EId(self._rand_position(rng, depth, lefts))
        if isinstance(expr, Sum):
            side = rng.randint(0, 1)
            for s in (side, 1 - side):
                try:
                    part = expr.left if s == 0 else expr.right
                    return ESum(s, self._rand(part, rng, depth, lefts))
                except _DeadEnd:
                    continue
            raise _DeadEnd()
        if isinstance(expr, MulOmega):
            return ECopies(rng.randint(0, 3), self._rand(expr.base, rng, depth, lefts))
        if isinstance(expr, (OmegaComp, CnfHead)):
            return self._rand_cnf(expr, rng, depth, lefts)
        if isinstance(expr, (Sep, Band)):
            for _ in range(12):
                cand = self._rand(expr.base, rng, depth, lefts)
                ok = (
                    sep_member(expr, cand)
                    if isinstance(expr, Sep)
                    else band_member(expr, cand)
                )
                if ok:
                    return cand
            raise _DeadEnd()
        raise _DeadEnd()

    def _rand_cnf(self, expr, rng, depth, lefts):
        head = isinstance(expr, CnfHead)
        count = rng.randint(0 if not head else 1, 2)
        if count == 0:
            return ECnf(())
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
        key = functools.cmp_to_key(
            lambda x, y: compare_elements(expr.exponents, x, y, self.pos_cmp)
        )
        uniq = []
        for e in sorted(exps, key=key, reverse=True):
            if not uniq or key(uniq[-1][0]) > key(e):
                uniq.append((e, rng.randint(1, 2)))
        if head and (not uniq or uniq[0][0].side != 1):
            raise _DeadEnd()
        return ECnf(tuple(uniq))


class _DeadEnd(Exception):
    pass


def psi_enum(order: PsiOrder, depth: int = 4, budget=None):
    """Sorted valid terms of bounded nesting depth; see PsiOrder.enum."""
    if isinstance(budget, int):
        budget = EnumBudget(max_count=budget)
    return order.enum(depth, budget)


def term_str(order: PsiOrder, t) -> str:
    """Render a collapse term; bracketed positions are nested sub-terms."""
    def render(p):
        if isinstance(p, Left):
            return ord_str(p.value)
        return "[" + term_str(order, p.point) + "]"

    return element_str(order.dilator, t, render)


# ---------------------------------------------------------------------------
# descent search and embedding checks


@dataclass(frozen=True)
class SearchResult:
    found: bool
    chain: tuple = ()
    trials: int = 0

    @property
    def summary(self) -> str:
        return "Counterexample" if self.found else "NoneFound"


def chain_search(handle, trials: int, depth: int, seed: int, retries: int = 4) -> SearchResult:
    """Seeded random search for a strictly descending chain.

    Each trial draws fresh elements and extends the chain only when the
    draw is strictly smaller (a few retries per level).  Finding a chain of
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
            for _ in range(retries):
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


@dataclass
class PsiSearchHandle:
    order: PsiOrder
    depth: int = 3

    def random_element(self, rng):
        return self.order.random_term(rng, self.depth)

    def compare(self, a, b):
        return self.order.compare(a, b)


@dataclass
class IllFoundedFixture:
    """Deliberately descending integer generator; the harness self-test."""

    state: int = 0

    def random_element(self, rng):
        self.state -= rng.randint(1, 9)
        return self.state

    def compare(self, a, b):
        return LESS if a < b else EQUAL if a == b else GREATER


@dataclass(frozen=True)
class OrderHandle:
    elements: Callable[[int], list]
    compare: Callable[[object, object], int]


def expr_order_handle(expr: Dil, n_points: int, pull_cap: int = 400000) -> OrderHandle:
    return OrderHandle(
        elements=lambda k: prefix_elements(expr, n_points, k, pull_cap),
        compare=lambda a, b: compare_elements(expr, a, b),
    )


def psi_order_handle(order: PsiOrder, depth: int = 2, budget=None) -> OrderHandle:
    return OrderHandle(
        elements=lambda k: order.enum(depth, budget)[:k],
        compare=order.compare,
    )


@dataclass(frozen=True)
class EmbedReport:
    verified: bool
    violation: Optional[tuple] = None
    checked: int = 0

    @property
    def summary(self) -> str:
        return "Verified" if self.verified else f"Violation{self.violation}"


def embed_check(map_fn, source: OrderHandle, target: OrderHandle, k: int) -> EmbedReport:
    """Check injectivity and order preservation of map_fn on a k-prefix."""
    src = source.elements(k)
    if len(src) < k:
        raise EnumerationShortfall(f"source produced {len(src)} < {k} elements")
    images = [map_fn(e) for e in src]
    checked = 0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            checked += 1
            if target.compare(images[i], images[j]) != LESS:
                return EmbedReport(False, (i, j), checked)
    return EmbedReport(True, None, checked)
