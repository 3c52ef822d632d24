import collections
import contextlib
import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilcalc.ordinal as ordinal_module
from dilcalc.errors import DilcalcError, OutOfNotation, UnsupportedLimit
from dilcalc.ordinal import (
    GREATER,
    LESS,
    OMEGA,
    ONE,
    ZERO,
    ConstantIncrement,
    LimitPattern,
    Ord,
    TermEscalation,
    Unsupported,
    _common_prefix,
    _sup_of_monotone,
    detect_limit_pattern,
    from_int,
    fund_seq,
    ord_add,
    ord_cmp,
    ord_is_principal,
    ord_left_sub,
    ord_mul_nat,
    ord_mul_omega,
    ord_nesting_depth,
    ord_omega_pow,
    ord_str,
    ord_sup_solve,
    parse_ord,
)

w = OMEGA


def o(s):
    return parse_ord(s)


def sup_of_sequence(values):
    """The supremum of a non-decreasing sequence of samples, through the
    kernel's one-pass rule; an empty sequence refuses, and so does a
    decrease, with "sequence is not monotone"."""
    values = list(values)
    if not values:
        raise UnsupportedLimit("empty sequence has no supremum here")
    return _sup_of_monotone(values, lambda: UnsupportedLimit("sequence is not monotone"))


def _mk_cnf(pairs):
    pairs = sorted(pairs, key=functools.cmp_to_key(lambda a, b: ord_cmp(a[0], b[0])), reverse=True)
    terms = []
    for exp, coeff in pairs:
        if terms and terms[-1][0] == exp:
            terms[-1] = (exp, terms[-1][1] + coeff)
        else:
            terms.append((exp, coeff))
    return Ord(tuple(terms))


def ords(depth=2):
    if depth == 0:
        return st.integers(0, 6).map(from_int)
    sub = ords(depth - 1)
    return st.lists(st.tuples(sub, st.integers(1, 3)), max_size=3).map(_mk_cnf)


class TestComparison:
    def test_reflexive(self):
        assert ord_cmp(w, w) == 0

    def test_forced_examples(self):
        assert ord_cmp(o("w+1"), o("w*2")) == -1
        assert ord_cmp(o("w^w"), o("w^3*5+w")) == 1

    @settings(max_examples=150)
    @given(ords(), ords(), ords())
    def test_total_order(self, a, b, c):
        assert ord_cmp(a, b) == -ord_cmp(b, a)
        if a < b and b < c:
            assert a < c
        if ord_cmp(a, b) == 0:
            assert a == b


class TestNotation:
    def test_hash_is_the_field_hash_computed_once(self):
        a = o("w^(w+1)*2+w^w+3")
        b = ord_add(o("w^(w+1)*2"), o("w^w+3"))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.terms,))
        assert hash(a) == hash(a) and {a: "found"}[b] == "found" and len({a, b}) == 1
        # the cache is no field: the fields, a copy's equality and the repr ignore it
        assert Ord._fields == ("terms",) and a._values() == (a.terms,)
        copy = Ord(a.terms)
        assert copy == a and repr(copy) == repr(a) == "Ord('w^(w+1)*2+w^w+3')"

    @settings(max_examples=150)
    @given(ords(), ords())
    def test_hash_covers_every_term(self, a, b):
        assert hash(a) == hash((a.terms,))
        if a == b:
            assert hash(a) == hash(b)


class TestArithmetic:
    def test_absorption(self):
        assert ord_add(ONE, w) == w

    def test_successor(self):
        assert ord_str(ord_add(w, ONE)) == "w+1"

    def test_cnf_merge(self):
        assert ord_str(ord_add(o("w^2+w"), o("w^2"))) == "w^2*2"

    @settings(max_examples=120)
    @given(ords(), ords(), ords())
    def test_associative(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ords())
    def test_zero_identity(self, a):
        assert ord_add(a, ZERO) == a
        assert ord_add(ZERO, a) == a

    @settings(max_examples=120)
    @given(ords(), ords())
    def test_left_absorption(self, a, p):
        p = ord_omega_pow(ord_add(p, ONE))  # a principal limit
        if a < p:
            assert ord_add(a, p) == p

    @settings(max_examples=120)
    @given(ords(), ords())
    def test_left_sub_inverse(self, a, b):
        if a <= b:
            assert ord_add(a, ord_left_sub(a, b)) == b

    @pytest.mark.parametrize("a,b", [("1", "w"), ("w+5", "w*2"), ("w", "w+1"), ("0", "3")])
    def test_left_sub_refuses_a_greater_left(self, a, b):
        with pytest.raises(ValueError):
            ord_left_sub(o(b), o(a))

    def test_mul_nat(self):
        assert ord_mul_nat(o("w+1"), 3) == o("w*3+1")

    def test_mul_omega(self):
        assert ord_mul_omega(from_int(3)) == w
        assert ord_mul_omega(o("w*2+5")) == o("w^2")


class TestOmegaPower:
    def test_zero(self):
        assert ord_omega_pow(ZERO) == ONE

    def test_one(self):
        assert ord_omega_pow(ONE) == w

    def test_compound(self):
        assert ord_str(ord_omega_pow(o("w+1"))) == "w^(w+1)"


class TestPrincipal:
    def test_examples(self):
        assert ord_is_principal(o("w^w"))
        assert not ord_is_principal(o("w*2"))
        assert ord_is_principal(ONE)


class TestFundSeq:
    def test_omega(self):
        assert [fund_seq(w, k) for k in (0, 1, 3)] == [ZERO, ONE, from_int(3)]

    def test_nested(self):
        assert ord_str(fund_seq(o("w^w"), 2)) == "w^2"
        assert ord_str(fund_seq(o("w*2"), 3)) == "w+3"

    @settings(max_examples=80)
    @given(ords(), st.integers(0, 5))
    def test_below_and_cofinal(self, a, k):
        a = ord_add(a, ord_omega_pow(ord_add(a, ONE)))  # force a limit
        v = fund_seq(a, k)
        assert v < a
        assert fund_seq(a, k + 1) >= v


# ---------------------------------------------------------------------------
# a three-family limit solver, kept as a reference: constant increments, then
# affine steps delta -> delta*m + a for m = 2..9, then term escalation.  The
# kernel's two families must give the same outcomes on kernel samples

AffineStep = collections.namedtuple("AffineStep", "multiplier addend")


def reference_sup_solve(pattern):
    kind, start = pattern.kind, pattern.start
    if isinstance(kind, AffineStep):
        first = ord_add(ord_mul_nat(start, kind.multiplier), kind.addend)
        if ord_cmp(first, start) != GREATER:
            raise UnsupportedLimit("affine step fails to increase")
        return ord_omega_pow(ord_add(first.terms[0][0], ONE))
    return ord_sup_solve(pattern)


def reference_detect_limit_pattern(values, _depth=0, affine=None):
    """The reference's pattern; ``affine``, if given, collects the number of
    values of each affine match in the derivation, recursion included."""
    values = list(values)
    if len(values) < 3:
        raise UnsupportedLimit("need at least three sample values")
    for a, b in zip(values, values[1:]):
        if ord_cmp(a, b) != LESS:
            raise UnsupportedLimit("sequence is not strictly increasing")
    start = values[0]

    if _depth > 8:
        raise UnsupportedLimit("pattern recursion too deep")

    if all(ord_omega_pow(a) <= b for a, b in zip(values[1:], values[2:])):
        depths = [ord_nesting_depth(v) for v in values]
        if all(d2 > d1 for d1, d2 in zip(depths[1:], depths[2:])):
            raise OutOfNotation("iterates escalate beyond the epsilon_0 fragment")

    diffs = [ord_left_sub(a, b) for a, b in zip(values, values[1:])]
    if all(d == diffs[0] for d in diffs):
        return LimitPattern(ConstantIncrement(diffs[0]), start)

    for m in range(2, 10):
        scaled = ord_mul_nat(values[0], m)
        if scaled > values[1]:
            continue
        addend = ord_left_sub(scaled, values[1])
        if all(
            ord_add(ord_mul_nat(a, m), addend) == b
            for a, b in zip(values, values[1:])
        ):
            if affine is not None:
                affine.append(len(values))
            return LimitPattern(AffineStep(m, addend), start)

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
        inner = reference_detect_limit_pattern(exps, _depth + 1, affine)
        exp_limit = reference_sup_solve(inner)
        return LimitPattern(TermEscalation(Ord(prefix), exp_limit), start)
    return LimitPattern(Unsupported("residue exponents not monotone"), start)


@contextlib.contextmanager
def reference_solver(affine=None):
    """Within the block, every supremum the kernel solves goes through the
    reference (``_sup_of_monotone`` looks both names up in its module)."""
    with mock.patch.multiple(
        ordinal_module,
        detect_limit_pattern=functools.partial(reference_detect_limit_pattern, affine=affine),
        ord_sup_solve=reference_sup_solve,
    ):
        yield


def outcome(call):
    """The value of ``call()``, or its refusal as (type, message)."""
    try:
        return call()
    except DilcalcError as exc:
        return type(exc), str(exc)


def affine_built(start, multiplier, addend, n):
    values = [start]
    while len(values) < n:
        values.append(ord_add(ord_mul_nat(values[-1], multiplier), addend))
    return values


def affine_sequences(min_size, max_size):
    """Strictly increasing v, v*m + a, ... of ``ords()`` notations."""
    return st.builds(
        affine_built, ords(), st.integers(2, 9), ords(), st.integers(min_size, max_size)
    ).filter(lambda vs: vs[0] < vs[1])


def increasing_sequences(min_size, max_size):
    return st.lists(ords(), min_size=min_size, max_size=max_size).map(
        lambda vs: sorted(set(vs), key=functools.cmp_to_key(ord_cmp))
    ).filter(lambda vs: len(vs) >= min_size)


class TestSupSolve:
    def test_constant_increment_one(self):
        assert ord_sup_solve(LimitPattern(ConstantIncrement(ONE), w)) == o("w*2")

    def test_constant_increment_omega_oracle(self):
        # oracle: iterate the step 50 times, confirm strict bounding and
        # that the canonical approximants of the solution are overtaken
        pattern = LimitPattern(ConstantIncrement(w), w)
        solution = ord_sup_solve(pattern)
        assert solution == o("w^2")
        iterates, current = [], w
        for _ in range(50):
            iterates.append(current)
            current = ord_add(current, w)
        assert all(it < solution for it in iterates)
        for j in range(1, 20):
            below = fund_seq(solution, j)
            assert any(it > below for it in iterates)

    def test_outside_family(self):
        values = [w]
        for _ in range(5):
            values.append(ord_omega_pow(values[-1]))
        with pytest.raises(OutOfNotation):
            sup_of_sequence(values)

    @pytest.mark.parametrize(
        "values,message",
        [
            ([], "empty sequence has no supremum here"),
            (["w", "w*2", "w+1", "w*3"], "sequence is not monotone"),
            (["w", "w", "w*2", "w*2"], "need at least three sample values"),
        ],
    )
    def test_sequence_refusals_pinned(self, values, message):
        with pytest.raises(UnsupportedLimit) as info:
            sup_of_sequence([o(v) for v in values])
        assert type(info.value) is UnsupportedLimit and str(info.value) == message

    def test_stable_sequence_is_its_value(self):
        assert sup_of_sequence([o("w^2+1")] * 4) == o("w^2+1")

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedLimit):
            ord_sup_solve(LimitPattern(Unsupported("declared outside fragment"), w))

    def test_affine(self):
        # w*c -> w*3c + w*2: the lead coefficient escalates
        coeffs = [1, 5, 17, 53, 161]
        values = [ord_mul_nat(w, c) for c in coeffs]
        pattern = detect_limit_pattern(values)
        assert pattern.kind == TermEscalation(ZERO, o("2"))
        assert ord_sup_solve(pattern) == o("w^2")

    def test_four_affine_values_are_refused(self):
        # v -> v*5 + w^(w^3*3)+2 from 2: the reference answered w^(w^3*3+1)
        # from these four values; the first residue's exponent is 0
        values = [o(v) for v in ("2", "w^(w^3*3)+2", "w^(w^3*3)*6+2", "w^(w^3*3)*31+2")]
        assert values == affine_built(o("2"), 5, o("w^(w^3*3)+2"), 4)
        with reference_solver():
            assert sup_of_sequence(values) == o("w^(w^3*3+1)")
        with pytest.raises(UnsupportedLimit, match="^residue exponents not monotone$"):
            sup_of_sequence(values)

    @settings(max_examples=150, deadline=None)
    @given(affine_sequences(5, 10))
    def test_affine_supremum_is_the_reference(self, values):
        with reference_solver():
            want = sup_of_sequence(values)
        assert sup_of_sequence(values) == want

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(increasing_sequences(3, 10), affine_sequences(3, 10)))
    def test_outcome_is_the_reference(self, values):
        # the one difference: an affine match on three or four values
        # somewhere in the reference's derivation may now be refused
        affine = []
        with reference_solver(affine):
            want = outcome(lambda: sup_of_sequence(values))
        got = outcome(lambda: sup_of_sequence(values))
        if got != want:
            assert any(n <= 4 for n in affine) and got[0] is UnsupportedLimit, (values, want, got)

    def test_escalation(self):
        values = [ord_add(o("w^w"), ord_omega_pow(from_int(k))) for k in range(1, 7)]
        pattern = detect_limit_pattern(values)
        assert isinstance(pattern.kind, TermEscalation)
        assert sup_of_sequence(values) == o("w^w*2")

    def test_an_escalation_stops_at_its_second_increment(self):
        # the constant-increment test computes increments only until one
        # differs; a constant increment computes all of them
        calls, real = [], ordinal_module.ord_left_sub

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        # the lead coefficient escalates, so no inner sequence is solved
        escalation = [ord_add(o("w^w"), ord_mul_nat(w, 2 ** k)) for k in range(8)]
        constant = [o(f"w*{k}") for k in range(1, 9)]
        with mock.patch.object(ordinal_module, "ord_left_sub", counting):
            assert isinstance(detect_limit_pattern(escalation).kind, TermEscalation)
            assert len(calls) <= 2
            del calls[:]
            assert detect_limit_pattern(constant).kind == ConstantIncrement(w)
            assert len(calls) == 7

    def test_iterates_strictly_bounded(self):
        # the solved supremum strictly bounds 100 iterates and is least in
        # the finite-witness sense: every canonical approximant is overtaken
        values, current = [], o("w")
        for _ in range(100):
            values.append(current)
            current = ord_add(current, o("w*2"))
        sup = sup_of_sequence(values[:8])
        assert all(v < sup for v in values)
        for j in range(1, 30):
            below = fund_seq(sup, j)
            assert any(v > below for v in values)


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["0", "7", "w", "w*4", "w+1", "w^2+1", "w^w*3", "w^(w+1)", "w^(w^2+w)+w*2+5", "w^w^w"],
    )
    def test_round_trip(self, text):
        assert ord_str(parse_ord(text)) == text

    def test_parse_normalizes(self):
        assert ord_str(parse_ord("1+w")) == "w"
        assert ord_str(parse_ord("w^0")) == "1"

    def test_parse_error_position(self):
        from dilcalc.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_ord("w^")
        assert err.value.position is not None

    @settings(max_examples=100)
    @given(ords())
    def test_print_parse_identity(self, a):
        assert parse_ord(ord_str(a)) == a
