"""Exact arithmetic on ordinal notations below epsilon_0.

A notation is a Cantor normal form: a finite descending list of
(exponent, coefficient) pairs with exponents themselves notations.  The
module also houses the limit solver used by the evaluators: it detects a
step pattern in a strictly increasing sequence of notations and returns
the exact supremum, or refuses honestly.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import OutOfNotation, ParseError, UnsupportedLimit

LESS, EQUAL, GREATER = -1, 0, 1

# how a frozen record's ``__init__`` sets its fields
_set = object.__setattr__


class Record:
    """A record whose fields are the parameters of its class's ``__init__``.

    Equality compares the fields of two records of one class, and the repr
    lists them.  A plain record is mutable and unhashable; see ``Frozen``.
    The classes are written out rather than made by ``dataclasses``, whose
    import and generated code a fresh CLI process would pay for each time.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, hashed as the tuple of its fields.  Its
    ``__init__`` sets each field once with ``_set``.  Classes whose records
    are memo keys write out ``__eq__`` and ``__hash__``: per call the
    generic ones below cost 4-10x as much."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class Ord(Frozen):
    """Ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs, exponents
    strictly descending, coefficients >= 1.  The empty tuple is 0.
    """

    _hash = None  # not a field: set on first use, then kept

    def __init__(self, terms: tuple = ()):
        for exp, coeff in terms:
            if not isinstance(exp, Ord) or coeff < 1:
                raise ValueError("malformed CNF term")
        _set(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.terms,) == (other.terms,)
        return NotImplemented

    def __hash__(self):
        """hash((terms,)), the field hash, computed once: memo keys hold
        the same notations again and again, and each hash would otherwise
        walk the whole CNF tree."""
        if self._hash is None:
            _set(self, "_hash", hash((self.terms,)))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise ValueError("not a finite ordinal")
        return self.terms[0][1]

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    # comparisons delegate to ord_cmp so the order is defined in one place
    def __lt__(self, other):
        return ord_cmp(self, other) == LESS

    def __le__(self, other):
        return ord_cmp(self, other) != GREATER

    def __gt__(self, other):
        return ord_cmp(self, other) == GREATER

    def __ge__(self, other):
        return ord_cmp(self, other) != LESS

    def __repr__(self):
        return f"Ord({ord_str(self)!r})"

    def __str__(self):
        return ord_str(self)


ZERO = Ord()
ONE = Ord(((ZERO, 1),))
OMEGA = Ord(((ONE, 1),))


def from_int(n: int) -> Ord:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ord(((ZERO, n),)) if n else ZERO


def ord_cmp(a: Ord, b: Ord) -> int:
    """Total order: lexicographic on the descending (exponent, coeff) lists."""
    if a is b:
        # values built from one gamma share their terms and exponents
        return EQUAL
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ord_cmp(ea, eb)
        if c != EQUAL:
            return c
        if ca != cb:
            return LESS if ca < cb else GREATER
    if len(a.terms) == len(b.terms):
        return EQUAL
    return LESS if len(a.terms) < len(b.terms) else GREATER


def ord_add(a: Ord, b: Ord) -> Ord:
    """Ordinal sum; terms of ``a`` below b's leading exponent are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead = b.terms[0][0]
    kept = []
    for exp, coeff in a.terms:
        c = ord_cmp(exp, lead)
        if c == GREATER:
            kept.append((exp, coeff))
        elif c == EQUAL:
            kept.append((exp, coeff + b.terms[0][1]))
            return Ord(tuple(kept) + b.terms[1:])
        else:
            break
    return Ord(tuple(kept) + b.terms)


def ord_omega_pow(e: Ord) -> Ord:
    return Ord(((e, 1),))


def ord_mul_nat(a: Ord, n: int) -> Ord:
    """a * n as an iterated sum (n >= 0)."""
    if n < 0:
        raise ValueError("natural multiplier required")
    if n == 0 or a.is_zero():
        return ZERO
    exp, coeff = a.terms[0]
    return Ord(((exp, coeff * n),) + a.terms[1:])


def ord_mul_omega(a: Ord) -> Ord:
    """a * omega; zero stays zero, otherwise omega^(lead exponent + 1)."""
    if a.is_zero():
        return ZERO
    return ord_omega_pow(ord_add(a.terms[0][0], ONE))


def ord_is_principal(a: Ord) -> bool:
    """True iff a = omega^e; the convention includes 1 = omega^0."""
    return len(a.terms) == 1 and a.terms[0][1] == 1


def ord_pred(a: Ord) -> Ord:
    if not a.is_successor():
        raise ValueError("predecessor of a non-successor")
    exp, coeff = a.terms[-1]
    if coeff > 1:
        return Ord(a.terms[:-1] + ((exp, coeff - 1),))
    return Ord(a.terms[:-1])


def ord_left_sub(a: Ord, b: Ord) -> Ord:
    """The unique c with a + c = b; requires a <= b."""
    if ord_cmp(a, b) == GREATER:
        raise ValueError("left subtraction needs a <= b")
    # a <= b: the first term where they differ has a smaller exponent or
    # a smaller coefficient in a
    for i, ((ea, ca), (eb, cb)) in enumerate(zip(a.terms, b.terms)):
        if ord_cmp(ea, eb) == LESS:
            return Ord(b.terms[i:])
        if ca < cb:
            return Ord(((eb, cb - ca),) + b.terms[i + 1:])
    return Ord(b.terms[len(a.terms):])


def fund_seq(a: Ord, k: int) -> Ord:
    """k-th member of the canonical fundamental sequence of a limit notation."""
    if not a.is_limit():
        raise ValueError("fundamental sequences exist for limits only")
    head, (exp, coeff) = a.terms[:-1], a.terms[-1]
    if coeff > 1:
        head = head + ((exp, coeff - 1),)
    if exp.is_successor():
        if k == 0:
            return Ord(head)
        return Ord(head + ((ord_pred(exp), k),))
    return Ord(head + ((fund_seq(exp, k), 1),))


def ord_nesting_depth(a: Ord) -> int:
    if a.is_zero():
        return 0
    return 1 + max(ord_nesting_depth(exp) for exp, _ in a.terms)


# ---------------------------------------------------------------------------
# limit solver

# samples drawn from a fundamental sequence before its supremum is solved
LIMIT_SAMPLES = 8


class ConstantIncrement(Frozen):
    def __init__(self, increment: Ord):
        _set(self, "increment", increment)


class TermEscalation(Frozen):
    """Values share a stable CNF prefix while the next term escalates."""

    def __init__(self, prefix: Ord, exponent_limit: Ord):
        _set(self, "prefix", prefix)
        _set(self, "exponent_limit", exponent_limit)


class Unsupported(Frozen):
    def __init__(self, reason: str = ""):
        _set(self, "reason", reason)


class LimitPattern(Frozen):
    def __init__(self, kind: object, start: Ord):
        if isinstance(kind, ConstantIncrement) and kind.increment.is_zero():
            raise ValueError("ConstantIncrement needs a positive increment")
        _set(self, "kind", kind)
        _set(self, "start", start)


def ord_sup_solve(pattern: LimitPattern) -> Ord:
    """Exact supremum of the omega-sequence generated by the pattern.

    The result is the least ordinal above ``start`` closed under the step
    map, which equals the supremum of the iterates.
    """
    kind, start = pattern.kind, pattern.start
    if isinstance(kind, Unsupported):
        raise UnsupportedLimit(kind.reason or "step pattern outside supported family")
    if isinstance(kind, ConstantIncrement):
        return ord_add(start, ord_mul_omega(kind.increment))
    if isinstance(kind, TermEscalation):
        return ord_add(kind.prefix, ord_omega_pow(kind.exponent_limit))
    raise UnsupportedLimit(f"unknown pattern kind {kind!r}")


def _common_prefix(values: Sequence[Ord]) -> tuple:
    prefix = values[0].terms
    for v in values[1:]:
        i = 0
        while i < min(len(prefix), len(v.terms)) and prefix[i] == v.terms[i]:
            i += 1
        prefix = prefix[:i]
    return prefix


def detect_limit_pattern(values: Sequence[Ord], _depth: int = 0) -> LimitPattern:
    """Detect the step family of a strictly increasing notation sequence.

    Two families: constant increments, then escalation of the first CNF
    term the last four values do not share (an affine step delta -> delta*m
    + a, m >= 2, escalates its lead coefficient from its second value on).
    Sequences whose iterates satisfy omega^delta_k <= delta_{k+1} throughout
    escape the notation fragment and raise OutOfNotation.
    """
    values = list(values)
    if len(values) < 3:
        raise UnsupportedLimit("need at least three sample values")
    for a, b in zip(values, values[1:]):
        if ord_cmp(a, b) != LESS:
            raise UnsupportedLimit("sequence is not strictly increasing")
    start = values[0]

    if _depth > 8:
        raise UnsupportedLimit("pattern recursion too deep")

    # escape detection: each step dominates omega^previous
    if all(ord_omega_pow(a) <= b for a, b in zip(values[1:], values[2:])):
        depths = [ord_nesting_depth(v) for v in values]
        if all(d2 > d1 for d1, d2 in zip(depths[1:], depths[2:])):
            raise OutOfNotation("iterates escalate beyond the epsilon_0 fragment")

    # stops at the first increment that differs, which for an escalation
    # is the second
    step = ord_left_sub(values[0], values[1])
    if all(ord_left_sub(a, b) == step for a, b in zip(values[1:], values[2:])):
        return LimitPattern(ConstantIncrement(step), start)

    tail = values[-4:] if len(values) >= 4 else values
    prefix = _common_prefix(tail)
    residues = [Ord(v.terms[len(prefix):]) for v in tail]
    if any(r.is_zero() for r in residues):
        return LimitPattern(Unsupported("no growing residue behind the prefix"), start)
    exps = [r.terms[0][0] for r in residues]
    if all(e == exps[0] for e in exps):
        coeffs = [r.terms[0][1] for r in residues]
        if all(c1 < c2 for c1, c2 in zip(coeffs, coeffs[1:])):
            return LimitPattern(
                TermEscalation(Ord(prefix), ord_add(exps[0], ONE)), start
            )
        return LimitPattern(Unsupported("stable residue exponent, stagnant coefficient"), start)
    if all(e1 < e2 for e1, e2 in zip(exps, exps[1:])):
        inner = detect_limit_pattern(exps, _depth + 1)
        exp_limit = ord_sup_solve(inner)
        return LimitPattern(TermEscalation(Ord(prefix), exp_limit), start)
    return LimitPattern(Unsupported("residue exponents not monotone"), start)


def _sup_of_monotone(values: list, decrease: Callable[[], Exception]) -> Ord:
    """Supremum of a non-empty list of samples, in one pass: each is compared
    with the last distinct one, a repeat is dropped and a decrease raises
    ``decrease()``.  A stabilised sequence returns its one value; otherwise
    the detected pattern is solved and the result checked against the
    largest sample.  ``detect_limit_pattern`` and ``ord_sup_solve`` are
    looked up in this module at each call, so a patch or a wrapper of either
    is seen."""
    strict = [values[0]]
    for v in values[1:]:
        c = ord_cmp(v, strict[-1])
        if c == GREATER:
            strict.append(v)
        elif c == LESS:
            raise decrease()
    if len(strict) == 1:
        return strict[0]
    result = ord_sup_solve(detect_limit_pattern(strict))
    if ord_cmp(strict[-1], result) != LESS:
        raise UnsupportedLimit("solved supremum does not bound the samples")
    return result


# ---------------------------------------------------------------------------
# parsing and printing


def _atom_printable(a: Ord) -> bool:
    # exponents that parse unambiguously without parentheses
    if a.is_finite():
        return True
    return (
        len(a.terms) == 1
        and a.terms[0][1] == 1
        and _atom_printable(a.terms[0][0])
    )


def _exp_str(e: Ord) -> str:
    if _atom_printable(e):
        if e.is_finite():
            return str(e.as_int())
        return "w" if e == OMEGA else "w^" + _exp_str(e.terms[0][0])
    return "(" + ord_str(e) + ")"


def ord_str(a: Ord) -> str:
    """Canonical string; round-trips through parse_ord."""
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        base = "w" if exp == ONE else "w^" + _exp_str(exp)
        parts.append(base + (f"*{coeff}" if coeff > 1 else ""))
    return "+".join(parts)


# deepest bracket nesting the parsers accept; each level costs a few stack
# frames, so a deeper input would otherwise end in a RecursionError
MAX_NESTING = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise ParseError(
                f"expected {ch!r} at position {self.pos}", self.pos, [ch]
            )
        self.pos += 1
        if ch in "([":
            self.open()
        elif ch in ")]":
            self.depth -= 1

    def open(self):
        """Count an opening bracket that was just consumed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"brackets nested deeper than {MAX_NESTING} at position {self.pos}",
                self.pos,
            )

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected a natural at position {start}", start, ["digit"])
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"natural at position {start} has too many digits", start) from None


def _parse_ord_sum(sc: _Scanner) -> Ord:
    total = _parse_ord_term(sc)
    while sc.peek() == "+":
        sc.take("+")
        total = ord_add(total, _parse_ord_term(sc))
    return total


def _parse_ord_exponent(sc: _Scanner) -> Ord:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        inner = _parse_ord_sum(sc)
        sc.take(")")
        return inner
    if ch == "w":
        sc.take("w")
        if sc.peek() == "^":
            sc.take("^")
            return ord_omega_pow(_parse_ord_exponent(sc))
        return OMEGA
    return from_int(sc.nat())


def _parse_ord_term(sc: _Scanner) -> Ord:
    ch = sc.peek()
    if ch == "w":
        sc.take("w")
        exp = ONE
        if sc.peek() == "^":
            sc.take("^")
            exp = _parse_ord_exponent(sc)
        value = ord_omega_pow(exp)
        if sc.peek() == "*":
            sc.take("*")
            value = ord_mul_nat(value, sc.nat())
        return value
    if ch.isdigit():
        return from_int(sc.nat())
    raise ParseError(
        f"expected an ordinal term at position {sc.pos}", sc.pos, ["w", "digit"]
    )


def parse_ord(text: str) -> Ord:
    """Parse the notation grammar; compound exponents take parentheses."""
    sc = _Scanner(text)
    value = _parse_ord_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"trailing input at position {sc.pos}", sc.pos)
    return value
