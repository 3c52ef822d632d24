import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dilcalc.expr as expr_module
from dilcalc.errors import DilcalcError, ParseError
from dilcalc.expr import (
    CnfHead,
    Const,
    D_ID,
    D_ONE,
    D_ZERO,
    Dil,
    IdNode,
    MulOmega,
    OmegaComp,
    Sep,
    Sum,
    is_connected_atom,
    is_max_dominated,
    mk_band,
    mk_cnf_head,
    mk_mul_nat,
    mk_mul_omega,
    mk_omega_comp,
    mk_sep_atom,
    mk_sep_plus,
    mk_shift,
    mk_slice,
    mk_sum,
    mk_sum_all,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import MAX_NESTING, OMEGA, ONE, ZERO, from_int, parse_ord


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("Id + 1", "Id+1"),
        ("omega[Id+1]", "omega[Id]*w"),
        ("Const(w^2+1)", "Const(w^2+1)"),
        ("0", "0"),
        ("1", "1"),
        ("Id*2", "Id+Id"),
        ("Id*2*w", "(Id+Id)*w"),
        ("omega[Id]", "omega[Id]"),
        ("shift(Id,w)", "Const(w)+Id"),
        ("shift(Const(5),w)", "Const(5)"),
        ("shift(0,w)", "0"),
        ("Const(2)+Const(3)", "Const(5)"),
        ("omega[0]", "1"),
        ("omega[1]", "Const(w)"),
        ("omega[Const(w)]", "Const(w^w)"),
        ("Const(w)*w", "Const(w^2)"),
        ("1*w", "Const(w)"),
        ("sep(Id,w)", "Const(w)"),
        ("sep(Id+Id,w)", "Id+Const(w)"),
        ("sep(omega[Id],0)", "1"),
    ],
)
def test_parse_and_normalize(text, canonical):
    expr = parse_dil(text)
    assert to_str(expr) == canonical
    assert parse_dil(to_str(expr)) == expr


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_dil("Id+shift(Id")
    assert err.value.position is not None


# text of bracket depth n, one shape per kind of bracket
NESTINGS = {
    "parens": lambda n: "(" * n + "Id" + ")" * n,
    "omega": lambda n: "omega[" * n + "Id" + "]" * n,
    "shift": lambda n: "shift(" * n + "Id" + ",1)" * n,
    "ordinal": lambda n: "Const(" + "w^(" * (n - 1) + "1" + ")" * (n - 1) + ")",
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_at_the_limit_parses(default_recursion_limit, shape):
    parse_dil(NESTINGS[shape](MAX_NESTING))


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_past_the_limit_is_a_parse_error(default_recursion_limit, shape):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_dil(NESTINGS[shape](MAX_NESTING + 1))


def _random_summand(rng):
    atom = rng.choice(["0", "1", "Id", "Const(2)", "Const(w)", "Const(w^2+3)", "omega[Id]",
                       "(Id+1)", "(1+Id+Const(w))", "(0+Id)", "shift(Id,w)"])
    return atom + rng.choice(["", "", "*2", "*w"])


def test_sum_parse_equals_the_summand_fold():
    # the parser folds its summands once; the result must be the normal form
    # that folding them one at a time from the left gives
    rng = random.Random(7)
    for _ in range(300):
        summands = [_random_summand(rng) for _ in range(rng.randint(1, 12))]
        parts = [parse_dil(t) for t in summands]
        expected = functools.reduce(mk_sum, parts)
        assert parse_dil("+".join(summands)) == expected == mk_sum_all(parts)


def test_sum_parse_is_linear(monkeypatch, default_recursion_limit):
    # the parser builds each sum once, from its summands: a *2 term's sum,
    # and then the whole sum, with 1+Const(w) merged into Const(w);
    # 5,000 summands, more than the default recursion limit
    built, init = [], Sum.__init__

    def counting(self, parts):
        built.append(len(parts))
        init(self, parts)

    monkeypatch.setattr(Sum, "__init__", counting)
    parse_dil("+".join(["Id"] * 5000))
    assert built == [5000]
    built.clear()
    parsed = parse_dil("+".join(["Id", "1", "Const(w)", "Id*2"] * 1250))
    assert built == [2] * 1250 + [5000]
    assert parsed.parts == (D_ID, Const(OMEGA), D_ID, D_ID) * 1250


def test_sum_hash_and_equality_are_the_field_ones_and_need_no_recursion(
    default_recursion_limit,
):
    # 5,000 summands, more than the default recursion limit
    d = mk_mul_nat(D_ID, 5000)
    assert d.parts == (D_ID,) * 5000
    assert hash(d) == hash((d.parts,))
    fresh = mk_mul_nat(D_ID, 5000)
    assert fresh is not d and fresh == d and hash(fresh) == hash(d)
    assert d != mk_sum_all([D_ID] * 4999 + [D_ONE])
    assert d != mk_sum_all([D_ONE] + [D_ID] * 4999)
    assert d != mk_mul_nat(D_ID, 4999) and d != D_ID
    assert mk_sum(D_ID, D_ONE) == mk_sum(D_ID, D_ONE) != mk_sum(D_ONE, D_ID)


def test_long_sum_prints_in_a_loop(default_recursion_limit):
    # 5,000 summands, deeper than the default recursion limit
    texts = ["Id", "Const(w)", "Id*w", "omega[Id]", "1"]
    summands = [texts[i % len(texts)] for i in range(5000)]
    d = mk_sum_all(parse_dil(t) for t in summands)
    assert to_str(d) == "+".join(to_str(parse_dil(t)) for t in summands)
    assert parse_dil(to_str(d)) == d
    assert to_str(mk_mul_nat(D_ID, 1200)) == "+".join(["Id"] * 1200)


def test_sum_repr_is_the_record_one_and_needs_no_recursion(default_recursion_limit):
    assert repr(mk_sum(D_ID, D_ID)) == "Sum(parts=(IdNode(), IdNode()))"
    assert repr(mk_sum_all([D_ID, D_ID, D_ONE])) == (
        "Sum(parts=(IdNode(), IdNode(), Const(value=Ord('1'))))"
    )
    # a head's exponents are an unnormalized sum with a sum on the left
    assert repr(CnfHead(mk_sum(D_ID, D_ID), D_ID).exponents) == (
        "Sum(parts=(Sum(parts=(IdNode(), IdNode())), IdNode()))"
    )
    text = repr(mk_mul_nat(D_ID, 5000))
    assert text == "Sum(parts=(" + ", ".join(["IdNode()"] * 5000) + "))"


# 5,000 summands, more than the default recursion limit
LONG = mk_mul_nat(D_ID, 5000)


def test_long_sum_constructors_need_no_recursion(default_recursion_limit):
    assert mk_sum(LONG, D_ONE) == mk_sum_all([D_ID] * 5000 + [D_ONE])
    assert mk_shift(LONG, OMEGA) == mk_sum_all([Const(OMEGA), D_ID] * 5000)
    assert mk_omega_comp(mk_sum(LONG, D_ONE)) == MulOmega(OmegaComp(LONG))


# the surface grammar over the leaves 0, 1, Id and Const(w)
_LEAVES = st.sampled_from(["0", "1", "Id", "Const(w)"])


def _grown(inner):
    return st.one_of(
        st.tuples(inner, inner).map("{0[0]}+{0[1]}".format),
        st.tuples(inner, st.integers(0, 3)).map("({0[0]})*{0[1]}".format),
        inner.map("({})*w".format),
        inner.map("omega[{}]".format),
        inner.map("shift({},w)".format),
    )


def _sums(d):
    """Every Sum reachable from d through node fields; a head's exponents
    are a property, not a field, so they are not reached."""
    stack, out = [d], []
    while stack:
        node = stack.pop()
        if node.__class__ is Sum:
            out.append(node)
        for name in node._fields:
            value = getattr(node, name)
            stack += [v for v in (value if isinstance(value, tuple) else (value,))
                      if isinstance(v, Dil)]
    return out


@given(st.recursive(_LEAVES, _grown, max_leaves=8))
def test_parsed_sums_are_in_normal_form(text):
    d = parse_dil(text)
    for node in _sums(d):
        parts = node.parts
        assert len(parts) >= 2, text
        assert not any(p.__class__ is Sum or p == D_ZERO for p in parts), text
        assert not any(a.__class__ is Const and b.__class__ is Const
                       for a, b in zip(parts, parts[1:])), text
    if "Id" not in text:  # every leaf is a constant
        assert isinstance(d, Const), text
    assert parse_dil(to_str(d)) == d, text


def test_multiplier_cap(monkeypatch):
    monkeypatch.setattr(expr_module, "MAX_MULTIPLIER", 5)
    assert to_str(parse_dil("Id*5")) == "Id+Id+Id+Id+Id"
    with pytest.raises(ParseError, match="multiplier 6 at position 3 exceeds 5"):
        parse_dil("Id*6")


def test_sum_normalization_keeps_the_trailing_unit():
    expr = parse_dil("Id+Id+1")
    # the unit stays the last summand, where decompose finds it
    assert to_str(expr) == "Id+Id+1"
    assert expr.parts == (D_ID, D_ID, D_ONE)


def test_shift_composes():
    shifted = mk_shift(mk_shift(D_ID, from_int(2)), from_int(3))
    # (Id shifted by 2) shifted by 3 agrees with a single shift by 3+2... the
    # outer shift prepends, so values below 3 come first
    assert to_str(shifted) == "Const(5)+Id"


def test_shift_distributes_over_heads():
    h = CnfHead(D_ZERO, D_ID)
    assert to_str(mk_shift(h, ONE)) == "omega_head(0;1+Id)"


def test_internal_round_trips():
    # sep@ of a max-dominated base is its constant, as the kernel builds it
    for text in ["omega_head(0;Id)", "omega_head(Id;Id)", "band(omega_head(Id;Id);1;w;w)",
                 "sep@(Id;2;2)", "sep@(omega_head(Id;Id);1;w)"]:
        expr = parse_dil(text)
        assert parse_dil(to_str(expr)) == expr


@pytest.mark.parametrize(
    "text", ["sep@(omega_head(Id;Id);w;1)", "sep@(Id;2;1)", "band(omega_head(Id;Id);0;w;1)"]
)
def test_internal_cut_above_its_ambient_is_a_parse_error(text):
    with pytest.raises(ParseError, match="exceeds its ambient"):
        parse_dil(text)


def test_sep_alias_round_trip():
    node = Sep(CnfHead(D_ID, D_ID), OMEGA, OMEGA)
    assert to_str(node) == "sep(omega_head(Id;Id),w)"
    assert parse_dil(to_str(node)) == node


def test_connected_atoms():
    assert is_connected_atom(D_ID)
    assert is_connected_atom(CnfHead(D_ZERO, D_ID))
    assert not is_connected_atom(parse_dil("Id+Id"))
    assert not is_connected_atom(D_ONE)


def test_max_domination_predicate():
    assert is_max_dominated(D_ID)
    assert is_max_dominated(CnfHead(D_ZERO, D_ID))
    assert is_max_dominated(CnfHead(D_ONE, CnfHead(D_ZERO, D_ID)))
    assert not is_max_dominated(CnfHead(D_ID, D_ID))


def test_sep_plus_rules():
    assert mk_sep_plus(D_ID, OMEGA) == D_ID
    h = CnfHead(D_ZERO, D_ID)
    assert to_str(mk_sep_plus(h, ONE)) == "omega_head(1;Id)"
    assert mk_sep_plus(h, ZERO) == h


def test_band_collapses_for_frozen_shapes():
    assert to_str(mk_band(D_ID, ZERO, OMEGA, OMEGA)) == "Const(w)"
    h = CnfHead(D_ZERO, D_ID)
    assert to_str(mk_band(h, ZERO, OMEGA, OMEGA)) == "Const(w^w)"
    assert mk_band(h, OMEGA, OMEGA, OMEGA) == D_ZERO


# ---------------------------------------------------------------------------
# no constructor returns a constant dilator that is not a Const

CONSTANTS = [D_ZERO, D_ONE, Const(from_int(2)), Const(OMEGA), Const(parse_ord("w+1")),
             Const(parse_ord("w^2"))]
ATOMS = [parse_dil(s) for s in ("Id", "omega_head(0;Id)", "omega_head(Id;Id)",
                                "omega_head(Id+1;Id)", "omega_head(1;omega_head(0;Id))")]
ID_TERMS = ATOMS + [parse_dil(s) for s in (
    "Id+1", "1+Id", "Id*2", "Id*w", "omega[Id]", "omega[Id+1]", "Const(w)+Id", "omega[Id]+Id",
    "sep(omega_head(Id;Id),2)", "band(omega_head(Id;Id);0;2;2)")]
ORDS = [ZERO, ONE, from_int(2), OMEGA, parse_ord("w+1"), parse_ord("w*2")]


def _holds_id(d) -> bool:
    """Whether an Id node is reachable from d through node fields."""
    stack = [d]
    while stack:
        node = stack.pop()
        if node.__class__ is IdNode:
            return True
        for name in node._fields:
            value = getattr(node, name)
            stack += [v for v in (value if isinstance(value, tuple) else (value,))
                      if isinstance(v, Dil)]
    return False


def _constructed():
    """(call, result) for each constructor over the pools."""
    pool = CONSTANTS + ID_TERMS
    calls = [(mk_sum_all, (ps,)) for k in (1, 2) for ps in itertools.product(pool, repeat=k)]
    calls += [(mk_sum_all, (ps,)) for ps in itertools.product(CONSTANTS + ATOMS[:2], repeat=3)]
    calls += [(mk_mul_nat, (d, n)) for d in pool for n in range(4)]
    calls += [(fn, (d,)) for fn in (mk_mul_omega, mk_omega_comp) for d in pool]
    calls += [(mk_cnf_head, ps) for ps in itertools.product(pool, repeat=2)]
    calls += [(mk_shift, (d, g)) for d in pool for g in ORDS]
    for atom, a, amb in itertools.product(ATOMS, ORDS, ORDS):
        if a <= amb:
            calls += [(mk_sep_atom, (atom, a, amb)), (mk_slice, (atom, a, amb))]
            calls += [(mk_band, (atom, lo, a, amb)) for lo in ORDS if lo < a]
    calls += [(mk_sep_plus, (atom, g)) for atom in ATOMS for g in ORDS]
    for fn, args in calls:
        try:
            yield (fn.__name__, args), fn(*args)
        except DilcalcError:
            continue


def test_no_constructor_returns_a_constant_that_is_not_a_const():
    results = list(_constructed())
    assert {name for (name, _), _ in results} == {
        "mk_sum_all", "mk_mul_nat", "mk_mul_omega", "mk_omega_comp", "mk_cnf_head",
        "mk_shift", "mk_band", "mk_sep_atom", "mk_slice", "mk_sep_plus"}
    constant = [(call, d) for call, d in results if not _holds_id(d)]
    assert [(call, d) for call, d in constant if d.__class__ is not Const] == []
    # the property is not vacuous: constants come from every constructor but mk_sep_plus,
    # whose result over an atom always holds Id
    assert {name for (name, _), _ in constant} >= {
        "mk_sum_all", "mk_mul_nat", "mk_mul_omega", "mk_omega_comp", "mk_cnf_head",
        "mk_shift", "mk_band", "mk_sep_atom", "mk_slice"}
