"""The element translations of ``coherence`` over sorted exhaustive lists.

The coherence suite drives them over ascending streams, but a stream over a
formal sum never leaves the omega-block of its first lead, so most formal-sum
branches never run there.  A budgeted enumeration, sorted, spreads over many
leads; each translation must send it to valid elements of the target that
still ascend.
"""

import pytest

from dilcalc import coherence
from dilcalc.analysis import decompose, sep_signed
from dilcalc.expr import D_ID, mk_mul_nat, mk_shift, mk_sum, parse_dil
from dilcalc.ordinal import LESS, parse_ord
from dilcalc.semantics import (
    EId,
    ESum,
    EnumBudget,
    Right,
    _grid_values,
    compare_elements,
    enum_elements,
    validate_element,
)

BUDGET = EnumBudget(const_cap=5, copies=2, cnf_len=2, cnf_mult=2, grid=4, max_count=4000)
EXPRS = ["1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id", "Id+Const(w)",
         "Id*2", "Id*w", "omega[Id]", "omega[Id+1]", "omega[Id*2]", "Const(w)+Id",
         "omega[Id]+Id", "omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(1;Id+1)",
         "omega_head(0;Id*2)", "omega_head(Id;Id*w)", "omega[Id]*w", "Id*w+Id",
         "omega_head(0;Id)+1"]
ATOMS = ["Id", "omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(1;omega_head(0;Id))",
         "omega_head(Id*2;Id)", "omega_head(Const(w);Id)"]
# a head whose limit comes from the repeated unit top of its high part
UNIT_TOP_HEAD = "omega_head(1;Id+1)"


def _elements(d, g):
    """The first 60 elements of ``d`` over [0, g) + two points, ascending."""
    return enum_elements(d, 2, BUDGET, _grid_values(g, 2))[:60]


def _assert_ascending_images(target, images, tag):
    assert images, tag
    for image in images:
        validate_element(target, image)
    for a, b in zip(images, images[1:]):
        assert compare_elements(target, a, b) == LESS, tag


@pytest.mark.parametrize("gs", ["1", "2", "w"])
class TestTranslationsAscend:
    def test_decomposition_injections(self, gs):
        g = parse_ord(gs)
        for text in EXPRS:
            d = parse_dil(text)
            dec = decompose(d)
            if dec.kind == "succ":
                images = [coherence.prefix_inject(d, e) for e in _elements(dec.prefix, g)]
                images += [coherence.top_inject(d, e) for e in _elements(dec.top, g)]
                _assert_ascending_images(d, images, text)
            elif text != UNIT_TOP_HEAD:
                for j in (1, 2, 3):
                    part = _elements(dec.fund(j), g)
                    images = [coherence.limit_prefix_inject(d, j, e) for e in part]
                    _assert_ascending_images(d, images, (text, j))

    def test_shift_translations(self, gs):
        g = parse_ord(gs)
        for text in EXPRS:
            d = parse_dil(text)
            images = [coherence.shift_translate(d, g, e) for e in _elements(d, g)]
            _assert_ascending_images(mk_shift(d, g), images, text)

    def test_split_translations(self, gs):
        g = parse_ord(gs)
        for text in ATOMS:
            atom = parse_dil(text)
            images = [coherence.split_translate(atom, g, e) for e in _elements(atom, g)]
            _assert_ascending_images(mk_sum(*sep_signed(atom, g)), images, text)


def test_limit_injection_refuses_a_unit_top_head():
    # fund(j) here is a sum, not a head over the high part's fundamental sequence
    d = parse_dil(UNIT_TOP_HEAD)
    elem = enum_elements(decompose(d).fund(1), 1)[0]
    with pytest.raises(coherence.TranslationGap):
        coherence.limit_prefix_inject(d, 1, elem)


def test_top_injection_of_a_sum_is_the_recursive_one():
    # ESum(1, -) around the right summand's injection, as the recursion had it
    for text in ("Id+1", "1+Id", "Id*2", "Id*3+1", "Const(w)+Id", "omega[Id]+Id",
                 "omega_head(0;Id)+1", "Id+omega_head(Id;Id)"):
        d = parse_dil(text)
        for e in _elements(decompose(d).top, parse_ord("2")):
            assert coherence.top_inject(d, e) == ESum(1, coherence.top_inject(d.right, e)), text


def test_top_injection_of_a_long_sum_needs_no_recursion(default_recursion_limit):
    elem = EId(Right(0))
    image = coherence.top_inject(mk_mul_nat(D_ID, 2000), elem)
    for _ in range(1999):
        assert image.__class__ is ESum and image.side == 1
        image = image.inner
    assert image is elem
