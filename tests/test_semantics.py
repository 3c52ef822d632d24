import itertools

import pytest

import dilcalc.semantics as semantics
from dilcalc.errors import BudgetExceeded, MalformedElement
from dilcalc.expr import CnfHead, D_ID, D_ONE, D_ZERO, Sep, mk_mul_nat, parse_dil
from dilcalc.ordinal import OMEGA, ONE, ZERO, from_int
from dilcalc.psi import PsiOrder
from dilcalc.semantics import (
    ECnf,
    EConst,
    EId,
    EnumBudget,
    Left,
    Right,
    ambient_stream,
    apply_embedding,
    compare_elements,
    element_str,
    enum_elements,
    prefix_elements,
    support_of,
    validate_element,
)

SMALL = EnumBudget(const_cap=4, copies=2, cnf_len=2, cnf_mult=2, grid=3)


class TestCompare:
    def test_sum_of_units_left_first(self):
        two = parse_dil("1+1")  # normalizes to a two-element constant
        assert compare_elements(two, EConst(ZERO), EConst(from_int(1))) == -1

    def test_id_positions(self):
        assert compare_elements(D_ID, EId(Right(1)), EId(Right(2))) == -1

    def test_cnf_lexicographic(self):
        # a doubled power of the smaller point stays below the larger point
        oc = parse_dil("omega[Id]")
        doubled = ECnf(((EId(Right(0)), 2),))
        single = ECnf(((EId(Right(1)), 1),))
        assert compare_elements(oc, doubled, single) == -1

    def test_trichotomy_and_transitivity(self):
        for text in ["Id+1", "omega[Id]", "Id*2", "Const(3)", "Id*w"]:
            expr = parse_dil(text)
            es = enum_elements(expr, 3, SMALL)[:14]
            for x, y in itertools.combinations(es, 2):
                assert compare_elements(expr, x, y) != 0
            for x, y, z in itertools.combinations(es, 3):
                if (
                    compare_elements(expr, x, y) == -1
                    and compare_elements(expr, y, z) == -1
                ):
                    assert compare_elements(expr, x, z) == -1


class TestSupport:
    def test_id(self):
        assert support_of(D_ID, EId(Right(5))) == [5]

    def test_constant_is_frozen(self):
        cw = parse_dil("Const(w)")
        assert support_of(cw, EConst(from_int(3))) == []

    def test_cnf_exponent_set(self):
        oc = parse_dil("omega[Id]")
        e = ECnf(((EId(Right(1)), 1), (EId(Right(0)), 1)))
        assert support_of(oc, e) == [0, 1]

    def test_naturality(self):
        oc = parse_dil("omega[Id]")
        f = {0: 1, 1: 3, 2: 4}
        for e in enum_elements(oc, 3, SMALL):
            fe = apply_embedding(oc, e, f)
            assert support_of(oc, fe) == sorted(f[p] for p in support_of(oc, e))

    def test_support_condition(self):
        expr = parse_dil("omega[Id+1]")
        f = {0: 1, 1: 3}
        inverse = {1: 0, 3: 1}
        for e in enum_elements(expr, 4, SMALL):
            if set(support_of(expr, e)) <= {1, 3}:
                pre = apply_embedding(expr, e, inverse)
                assert apply_embedding(expr, pre, f) == e

    def test_monotonicity(self):
        expr = parse_dil("omega[Id]")
        lo, hi = {0: 0, 1: 2}, {0: 1, 1: 3}
        for e in enum_elements(expr, 2, SMALL):
            a = apply_embedding(expr, e, lo)
            b = apply_embedding(expr, e, hi)
            assert compare_elements(expr, a, b) in (-1, 0)


class TestEnum:
    def test_unit(self):
        assert enum_elements(parse_dil("1"), 0) == [EConst(ZERO)]

    def test_id(self):
        assert enum_elements(D_ID, 2) == [EId(Right(0)), EId(Right(1))]

    def test_cnf_multiplicity_budget(self):
        oc = parse_dil("omega[Id]")
        got = enum_elements(oc, 1, EnumBudget(cnf_len=1, cnf_mult=2))
        assert [element_str(oc, e) for e in got] == ["0", "w^{x0}", "w^{x0}*2"]

    def test_deterministic(self):
        expr = parse_dil("omega[Id*2]")
        assert enum_elements(expr, 2, SMALL) == enum_elements(expr, 2, SMALL)


def _limit_esums(monkeypatch, bound):
    """Count the ``ESum`` nodes built, failing once there are more than bound."""
    made = []

    class CountedESum(semantics.ESum):
        def __init__(self, side, inner):
            made.append(side)
            assert len(made) <= bound, f"more than {bound} ESum nodes built"
            super().__init__(side, inner)

    monkeypatch.setattr(semantics, "ESum", CountedESum)


class TestCapOnLongSums:
    """A sum over the element cap is refused before its elements are built."""

    def test_enum_elements(self, monkeypatch):
        _limit_esums(monkeypatch, 0)
        with pytest.raises(BudgetExceeded, match=r"^8000 elements exceed cap 4000$"):
            enum_elements(mk_mul_nat(D_ID, 800), 10)

    def test_psi_enum(self, monkeypatch):
        # level 0 builds its 800 elements, i+1 nodes for the i-th summand's;
        # level 1 (800 * 801 elements) is refused before any is built
        _limit_esums(monkeypatch, 800 * 801 // 2)
        with pytest.raises(BudgetExceeded, match=r"^640800 elements exceed cap 4000$"):
            PsiOrder(mk_mul_nat(D_ID, 800), ONE).enum(1)


class TestStreams:
    def test_empty_prefix(self):
        assert prefix_elements(D_ID, 2, 0) == []

    def test_true_prefix_of_cnf(self):
        oc = parse_dil("omega[Id]")
        got = [element_str(oc, e) for e in prefix_elements(oc, 2, 5)]
        assert got == ["0", "w^{x0}", "w^{x0}*2", "w^{x0}*3", "w^{x0}*4"]

    def test_repetition_prefix(self):
        m = parse_dil("Id*w")
        got = [element_str(m, e) for e in prefix_elements(m, 2, 5)]
        assert got == ["0#x0", "0#x1", "1#x0", "1#x1", "2#x0"]

    def test_stream_matches_budget_enum_on_finite(self):
        expr = parse_dil("Id*2+Const(2)")
        assert prefix_elements(expr, 2, 50) == enum_elements(
            expr, 2, EnumBudget(const_cap=10)
        )

    def test_streams_ascend(self):
        for text in ["omega[Id*2]", "Id*w", "omega[Id]+Id", "Const(w^2)"]:
            expr = parse_dil(text)
            elems = prefix_elements(expr, 2, 40)
            for a, b in zip(elems, elems[1:]):
                assert compare_elements(expr, a, b) == -1

    def test_ambient_stream_ascends_with_frozen_positions(self):
        from dilcalc.semantics import element_positions

        h = CnfHead(D_ID, D_ID)
        elems = list(itertools.islice(ambient_stream(h, range(1), OMEGA), 30))
        for a, b in zip(elems, elems[1:]):
            assert compare_elements(h, a, b) == -1
        assert any(
            isinstance(p, Left) for e in elems for p in element_positions(h, e)
        )

    @pytest.mark.parametrize(
        "head, expected",
        [
            (
                CnfHead(D_ID, D_ID),
                [
                    "w^{r:L(0)}",
                    "w^{r:L(0)}+w^{l:L(0)}",
                    "w^{r:L(0)}+w^{l:L(0)}*2",
                    "w^{r:L(0)}+w^{l:L(0)}*3",
                    "w^{r:L(0)}+w^{l:L(0)}*4",
                    "w^{r:L(0)}+w^{l:L(0)}*5",
                    "w^{r:L(0)}+w^{l:L(0)}*6",
                    "w^{r:L(0)}+w^{l:L(0)}*7",
                    "w^{r:L(0)}+w^{l:L(0)}*8",
                    "w^{r:L(0)}+w^{l:L(0)}*9",
                    "w^{r:L(0)}+w^{l:L(0)}*10",
                    "w^{r:L(0)}+w^{l:L(0)}*11",
                ],
            ),
            (
                CnfHead(D_ONE, CnfHead(D_ZERO, D_ID)),
                [
                    "w^{r:w^{r:L(0)}}",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*2",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*3",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*4",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*5",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*6",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*7",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*8",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*9",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*10",
                    "w^{r:w^{r:L(0)}}+w^{l:c[0]}*11",
                ],
            ),
        ],
    )
    def test_head_tail_prefix_pinned(self, head, expected):
        # heads with a non-empty low part stream formal-sum tails behind
        # their first lead
        stream = ambient_stream(head, range(2), OMEGA)
        assert [element_str(head, e) for e in itertools.islice(stream, 12)] == expected


class TestValidation:
    def test_duplicate_exponents_rejected(self):
        oc = parse_dil("omega[Id]")
        bad = ECnf(((EId(Right(0)), 1), (EId(Right(0)), 1)))
        with pytest.raises(MalformedElement):
            validate_element(oc, bad)

    def test_ascending_exponents_rejected(self):
        oc = parse_dil("omega[Id]")
        bad = ECnf(((EId(Right(0)), 1), (EId(Right(1)), 1)))
        with pytest.raises(MalformedElement):
            validate_element(oc, bad)

    def test_head_needs_high_lead(self):
        h = CnfHead(D_ZERO, D_ID)
        with pytest.raises(MalformedElement):
            validate_element(h, ECnf(()))

    def test_sep_membership(self):
        node = Sep(CnfHead(D_ID, D_ID), OMEGA, OMEGA)
        for e in prefix_elements(node, 1, 10):
            validate_element(node, e)
