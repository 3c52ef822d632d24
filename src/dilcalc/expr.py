"""The closed dilator grammar and its normal forms.

Surface syntax::

    Dil ::= Term ("+" Term)*
    Term ::= Atom ("*" Nat | "*w")*
    Atom ::= "0" | "1" | "Id" | "Const(" Ord ")" | "omega[" Dil "]"
           | "shift(" Dil "," Ord ")" | "sep(" Dil "," Ord ")" | "(" Dil ")"

Construction goes through the ``mk_*`` functions, which keep each sum a
flat tuple of its summands, zero-free, merge adjacent constants, expand
finite multiples, rewrite ``omega[D+1]`` to ``omega[D]*w``, and eliminate
shift nodes entirely.  Two node kinds exist only internally: ``CnfHead`` (the
connected head of an ``omega[...]`` expression) and ``Band`` (a slab of a
connected expression cut by its most important argument position).
"""

from __future__ import annotations

from functools import cached_property

from .errors import ParseError
from .ordinal import (
    GREATER,
    LESS,
    ONE,
    ZERO,
    Frozen,
    Ord,
    _Scanner,
    _set,
    _parse_ord_sum,
    from_int,
    ord_add,
    ord_cmp,
    ord_left_sub,
    ord_mul_omega,
    ord_omega_pow,
    ord_pred,
    ord_str,
)


# ``D*n`` expands to n summands, so the parser refuses larger multipliers
MAX_MULTIPLIER = 100_000


class Dil(Frozen):
    """Base class for dilator expression nodes.  Nodes are memo keys, so each
    node class writes out its ``__hash__``; the common ones its ``__eq__``."""

    __slots__ = ()


class Const(Dil):
    def __init__(self, value: Ord):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class IdNode(Dil):
    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())


class Sum(Dil):
    """A sum of two or more summands, left to right.  Built by ``mk_sum_all``
    it is in normal form: no summand is a sum or zero, and no two adjacent
    summands are constants."""

    _hash = None  # not a field: set on first use, then kept

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)

    def __hash__(self):
        """hash((parts,)), the field hash, computed once: memo keys hold the
        same sums again and again."""
        if self._hash is None:
            _set(self, "_hash", hash((self.parts,)))
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Sum:
            return NotImplemented
        return self.parts == other.parts


class MulOmega(Dil):
    def __init__(self, base: Dil):
        _set(self, "base", base)

    def __hash__(self):
        return hash((self.base,))


class OmegaComp(Dil):
    """Formal base-omega sums whose exponents are the elements of base."""

    def __init__(self, base: Dil):
        _set(self, "base", base)

    def __hash__(self):
        return hash((self.base,))

    @cached_property
    def exponents(self) -> Dil:
        return self.base


class CnfHead(Dil):
    """Formal base-omega sums over low+high whose lead lies in the high part."""

    def __init__(self, low: Dil, high: Dil):
        _set(self, "low", low)
        _set(self, "high", high)

    def __hash__(self):
        return hash((self.low, self.high))

    @cached_property
    def exponents(self) -> Dil:
        """Sum((low, high)), not flattened, so each exponent keeps its side tag."""
        return Sum((self.low, self.high))


class Sep(Dil):
    """Elements of base(amb+X) whose most important position is the largest
    position below ``cut``; base is a connected non-max-dominated atom."""

    def __init__(self, base: Dil, cut: Ord, amb: Ord):
        _set(self, "base", base)
        _set(self, "cut", cut)
        _set(self, "amb", amb)

    def __hash__(self):
        return hash((self.base, self.cut, self.amb))


class Band(Dil):
    """Elements of base(amb+X) whose most important position lies in [lo, hi)."""

    def __init__(self, base: Dil, lo: Ord, hi: Ord, amb: Ord):
        _set(self, "base", base)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "amb", amb)

    def __hash__(self):
        return hash((self.base, self.lo, self.hi, self.amb))


D_ZERO = Const(ZERO)
D_ONE = Const(ONE)
D_ID = IdNode()


def summands(d: Dil) -> tuple:
    """The summands of d, left to right; a non-sum is its own one summand."""
    return d.parts if d.__class__ is Sum else (d,)


def is_connected_atom(d: Dil) -> bool:
    """Connected non-unit building blocks of the normalized grammar."""
    if isinstance(d, IdNode):
        return True
    if isinstance(d, CnfHead):
        return is_connected_atom(d.high)
    return False


def is_max_dominated(d: Dil) -> bool:
    """The most important position of every element is its maximal position.
    Such an expression is also support-monotone (smaller elements never carry
    larger maximal positions), by induction on this definition."""
    if isinstance(d, IdNode):
        return True
    if isinstance(d, CnfHead):
        return isinstance(d.low, Const) and is_max_dominated(d.high)
    return False


# ---------------------------------------------------------------------------
# smart constructors


def mk_sum(a: Dil, b: Dil) -> Dil:
    return mk_sum_all((a, b))


def mk_sum_all(parts) -> Dil:
    """The normal form of the sum of ``parts``, themselves normal forms, in
    one pass: their summands are concatenated, zeros dropped, and the
    constants that meet where one part ends and the next begins merged."""
    out = []
    for part in parts:
        ps = part.parts if part.__class__ is Sum else (part,)
        if ps[0].__class__ is Const:
            if ps[0].value.is_zero():
                continue
            if out and out[-1].__class__ is Const:
                out[-1] = Const(ord_add(out[-1].value, ps[0].value))
                ps = ps[1:]
        out += ps
    if len(out) < 2:
        return out[0] if out else D_ZERO
    return Sum(tuple(out))


def mk_mul_nat(d: Dil, n: int) -> Dil:
    if n < 0:
        raise ValueError("natural multiplier required")
    return mk_sum_all([d] * n)


def mk_mul_omega(d: Dil) -> Dil:
    if isinstance(d, Const):
        return Const(ord_mul_omega(d.value))
    return MulOmega(d)


def _split_trailing(d: Dil):
    """Split a normalized expression as (rest, last summand); the summands
    before the last are already in normal form, so the rest is a slice."""
    parts = summands(d)
    if len(parts) < 3:
        return (parts[0] if len(parts) == 2 else None), parts[-1]
    return Sum(parts[:-1]), parts[-1]


def mk_omega_comp(d: Dil) -> Dil:
    if isinstance(d, Const):
        return Const(ord_omega_pow(d.value))
    rest, last = _split_trailing(d)
    if isinstance(last, Const) and last.value.is_successor():
        peeled = ord_pred(last.value)
        inner = rest if rest is not None else D_ZERO
        if not peeled.is_zero():
            inner = mk_sum(inner, Const(peeled))
        return mk_mul_omega(mk_omega_comp(inner))
    return OmegaComp(d)


def mk_cnf_head(low: Dil, high: Dil) -> Dil:
    if isinstance(high, Const):
        if high.value.is_zero():
            return D_ZERO
        if high.value == ONE:
            return mk_mul_omega(mk_omega_comp(low))
        if isinstance(low, Const):
            return Const(ord_omega_pow(ord_add(low.value, high.value)))
    return CnfHead(low, high)


def mk_band(base: Dil, lo: Ord, hi: Ord, amb: Ord) -> Dil:
    """The slab of a connected atom with most important position in [lo, hi)."""
    if ord_cmp(lo, hi) != LESS:
        return D_ZERO
    if isinstance(base, IdNode):
        return Const(ord_left_sub(lo, hi))
    if is_max_dominated(base):
        from .analysis import otp_symbolic

        return Const(ord_left_sub(otp_symbolic(base, lo), otp_symbolic(base, hi)))
    return Band(base, lo, hi, amb)


def mk_sep_atom(base: Dil, cut: Ord, amb: Ord) -> Dil:
    """Separation of a connected atom at ``cut`` (ambient ``amb`` >= cut)."""
    if cut.is_zero():
        return D_ZERO
    if isinstance(base, IdNode):
        return Const(cut)
    if is_max_dominated(base):
        from .analysis import otp_symbolic

        return Const(otp_symbolic(base, cut))
    return Sep(base, cut, amb)


def mk_sep_plus(base: Dil, g: Ord) -> Dil:
    """The upper part of the split of a connected atom at ``g``."""
    if g.is_zero():
        return base
    if isinstance(base, IdNode):
        return D_ID
    if isinstance(base, CnfHead):
        return mk_cnf_head(
            mk_sum(mk_shift(base.low, g), mk_band(base.high, ZERO, g, g)),
            mk_sep_plus(base.high, g),
        )
    raise ValueError(f"not a connected atom: {to_str(base)}")


def mk_slice(base: Dil, beta: Ord, amb: Ord) -> Dil:
    """Elements of a connected atom whose most important position equals beta."""
    if isinstance(base, IdNode):
        return D_ONE
    if isinstance(base, CnfHead):
        return mk_cnf_head(
            mk_sum(mk_shift(base.low, amb), mk_band(base.high, ZERO, beta, amb)),
            mk_band(base.high, beta, ord_add(beta, ONE), amb),
        )
    raise ValueError(f"not a connected atom: {to_str(base)}")


def mk_shift(d: Dil, g: Ord) -> Dil:
    """The expression for alpha |-> d(g + alpha); shift nodes never survive."""
    if g.is_zero():
        return d
    if isinstance(d, Const):
        return d
    if isinstance(d, IdNode):
        return mk_sum(Const(g), D_ID)
    if isinstance(d, Sum):
        return mk_sum_all([mk_shift(part, g) for part in summands(d)])
    if isinstance(d, MulOmega):
        return mk_mul_omega(mk_shift(d.base, g))
    if isinstance(d, OmegaComp):
        return mk_omega_comp(mk_shift(d.base, g))
    if isinstance(d, CnfHead):
        return mk_cnf_head(mk_shift(d.low, g), mk_shift(d.high, g))
    if isinstance(d, Sep):
        return Sep(d.base, d.cut, ord_add(d.amb, g))
    if isinstance(d, Band):
        return Band(d.base, d.lo, d.hi, ord_add(d.amb, g))
    raise ValueError(f"unhandled node {d!r}")


# ---------------------------------------------------------------------------
# printing


def _term_str(d: Dil) -> str:
    s = to_str(d)
    return f"({s})" if isinstance(d, Sum) else s


def to_str(d: Dil) -> str:
    if isinstance(d, Const):
        if d.value.is_zero():
            return "0"
        if d.value == ONE:
            return "1"
        return f"Const({ord_str(d.value)})"
    if isinstance(d, IdNode):
        return "Id"
    if isinstance(d, Sum):
        return "+".join(to_str(part) for part in summands(d))
    if isinstance(d, MulOmega):
        return f"{_term_str(d.base)}*w"
    if isinstance(d, OmegaComp):
        return f"omega[{to_str(d.base)}]"
    if isinstance(d, CnfHead):
        return f"omega_head({to_str(d.low)};{to_str(d.high)})"
    if isinstance(d, Sep):
        if d.amb == d.cut:
            return f"sep({to_str(d.base)},{ord_str(d.cut)})"
        return f"sep@({to_str(d.base)};{ord_str(d.cut)};{ord_str(d.amb)})"
    if isinstance(d, Band):
        return (
            f"band({to_str(d.base)};{ord_str(d.lo)};"
            f"{ord_str(d.hi)};{ord_str(d.amb)})"
        )
    raise ValueError(f"unhandled node {d!r}")


# ---------------------------------------------------------------------------
# parsing


def _parse_atom(sc: _Scanner) -> Dil:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        inner = _parse_dil(sc)
        sc.take(")")
        return inner
    if ch.isdigit():
        return Const(from_int(sc.nat()))
    for word, parser in _KEYWORDS:
        if sc.text.startswith(word, sc.pos):
            sc.pos += len(word)
            return parser(sc)
    raise ParseError(
        f"expected a dilator atom at position {sc.pos}",
        sc.pos,
        ["0", "1", "Id", "Const(", "omega[", "shift(", "sep("],
    )


def _parse_const(sc):
    sc.take("(")
    value = _parse_ord_sum(sc)
    sc.take(")")
    return Const(value)


def _parse_omega_comp(sc):
    sc.open()  # the "[" of the keyword
    inner = _parse_dil(sc)
    sc.take("]")
    return mk_omega_comp(inner)


def _parse_shift(sc):
    sc.take("(")
    inner = _parse_dil(sc)
    sc.take(",")
    g = _parse_ord_sum(sc)
    sc.take(")")
    return mk_shift(inner, g)


def _parse_sep(sc):
    from .analysis import sep

    sc.take("(")
    inner = _parse_dil(sc)
    sc.take(",")
    g = _parse_ord_sum(sc)
    sc.take(")")
    return sep(inner, g)


def _parse_cut_form(form, count, build):
    """The parser of an internal ``sep@`` / ``band`` form.  Its base is a
    connected atom, the only base their rules can cut; of its ``count``
    ordinal arguments the last is the ambient, and the one before it, the
    cut or the upper bound, may not exceed it."""

    def parse(sc):
        sc.take("(")
        start = sc.pos
        base = _parse_dil(sc)
        if not is_connected_atom(base):
            raise ParseError(
                f"{form} base at position {start} is not a connected atom: {to_str(base)}",
                start,
            )
        parts = []
        for _ in range(count):
            sc.take(";")
            parts.append(_parse_ord_sum(sc))
        cut, amb = parts[-2:]
        if ord_cmp(cut, amb) == GREATER:
            raise ParseError(
                f"{form} cut {ord_str(cut)} exceeds its ambient {ord_str(amb)}", sc.pos
            )
        sc.take(")")
        return build(base, *parts)

    return parse


def _parse_head(sc):
    sc.take("(")
    low = _parse_dil(sc)
    sc.take(";")
    high = _parse_dil(sc)
    sc.take(")")
    return mk_cnf_head(low, high)


_KEYWORDS = (
    ("Id", lambda sc: D_ID),
    ("Const", _parse_const),
    ("omega_head", _parse_head),
    ("omega[", _parse_omega_comp),
    ("shift", _parse_shift),
    ("sep@", _parse_cut_form("sep@", 2, mk_sep_atom)),
    ("sep", _parse_sep),
    ("band", _parse_cut_form("band", 3, mk_band)),
)


def _parse_term(sc: _Scanner) -> Dil:
    value = _parse_atom(sc)
    while sc.peek() == "*":
        sc.take("*")
        if sc.peek() == "w":
            sc.take("w")
            value = mk_mul_omega(value)
        else:
            start = sc.pos
            n = sc.nat()
            if n > MAX_MULTIPLIER:
                raise ParseError(
                    f"multiplier {n} at position {start} exceeds {MAX_MULTIPLIER}", start
                )
            value = mk_mul_nat(value, n)
    return value


def _parse_dil(sc: _Scanner) -> Dil:
    # fold once at the end: folding per summand re-walks the growing sum
    terms = [_parse_term(sc)]
    while sc.peek() == "+":
        sc.take("+")
        terms.append(_parse_term(sc))
    return mk_sum_all(terms)


def parse_dil(text: str) -> Dil:
    sc = _Scanner(text)
    value = _parse_dil(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"trailing input at position {sc.pos}", sc.pos)
    return value
