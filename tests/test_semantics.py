import functools
import gc
import hashlib
import itertools
import resource
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilcalc.semantics as semantics
from dilcalc.coherence import top_inject
from dilcalc.errors import BudgetExceeded, MalformedElement, ParseError
from dilcalc.expr import (
    Band,
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
    mk_mul_nat,
    mk_sum,
    mk_sum_all,
    parse_dil,
    to_str,
)
from dilcalc.ordinal import (
    EQUAL, GREATER, LESS, OMEGA, ONE, ZERO, from_int, ord_add, ord_cmp, ord_str, parse_ord,
)
from dilcalc.psi import PsiOrder
from dilcalc.semantics import (
    ECopies,
    ESum,
    EnumBudget,
    Left,
    Right,
    ambient_stream,
    apply_embedding,
    compare_elements,
    default_pos_cmp,
    element_key,
    element_positions,
    element_str,
    enum_elements,
    important_position,
    prefix_elements,
    support_of,
    validate_element,
)
from dilcalc.suites import COHERENCE_SUITE

SMALL = EnumBudget(const_cap=4, copies=2, cnf_len=2, cnf_mult=2, grid=3)


def default_pos_key(p) -> tuple:
    """The ``element_key`` position key of ``default_pos_cmp``'s order."""
    return (0, p.value) if p.__class__ is Left else (1, p.point)


def psi_pos_key(order):
    """The position key of ``order.pos_cmp``'s order: a sub-term is keyed
    by its own ``element_key``."""
    def key(p):
        if p.__class__ is Right:
            return (1, element_key(order.dilator, p.point, key))
        return default_pos_key(p)
    return key


def halves(d: Sum) -> tuple:
    """A sum as the binary sum its elements are coded over: its first
    summand, and the sum of the others."""
    return d.parts[0], mk_sum_all(d.parts[1:])


class TestCompare:
    def test_sum_of_units_left_first(self):
        two = parse_dil("1+1")  # normalizes to a two-element constant
        assert compare_elements(two, ZERO, from_int(1)) == -1

    def test_id_positions(self):
        assert compare_elements(D_ID, Right(1), Right(2)) == -1

    def test_cnf_lexicographic(self):
        # a doubled power of the smaller point stays below the larger point
        oc = parse_dil("omega[Id]")
        doubled = ((Right(0), 2),)
        single = ((Right(1), 1),)
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
        assert support_of(D_ID, Right(5)) == [5]

    def test_constant_is_frozen(self):
        cw = parse_dil("Const(w)")
        assert support_of(cw, from_int(3)) == []

    def test_cnf_exponent_set(self):
        oc = parse_dil("omega[Id]")
        e = ((Right(1), 1), (Right(0), 1))
        assert support_of(oc, e) == [0, 1]
        e = ((ESum(1, Right(2)), 1), (ESum(0, Right(2)), 1), (ESum(0, Right(0)), 1))
        assert support_of(parse_dil("omega[Id+Id]"), e) == [0, 2]

    def test_unsortable_labels_raise(self):
        # an unsorted support would misplace important_index's slots
        with pytest.raises(TypeError):
            support_of(parse_dil("omega[Id]"), ((Right("a"), 1), (Right(0), 1)))

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
        assert enum_elements(parse_dil("1"), 0) == [ZERO]

    def test_id(self):
        assert enum_elements(D_ID, 2) == [Right(0), Right(1)]

    def test_cnf_multiplicity_budget(self):
        oc = parse_dil("omega[Id]")
        got = enum_elements(oc, 1, EnumBudget(cnf_len=1, cnf_mult=2))
        assert [element_str(oc, e) for e in got] == ["0", "w^{x0}", "w^{x0}*2"]

    def test_deterministic(self):
        expr = parse_dil("omega[Id*2]")
        assert enum_elements(expr, 2, SMALL) == enum_elements(expr, 2, SMALL)

    def test_repeated_labels_are_refused(self):
        with pytest.raises(ValueError, match="^enum_elements: repeated point$"):
            enum_elements(D_ID, [0, 0])


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
    """A constant, ``Id``, sum or ``*w`` level over the element cap is
    refused before its elements are built."""

    def test_id_level(self):
        # only the sorted points are allocated; building the 300,000
        # positions before counting them would take about 84 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"^300000 elements exceed cap 4000$"):
                enum_elements(D_ID, 300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20

    @pytest.mark.parametrize("text,points,cap,count", [
        ("Const(w)+Id", 1, 5, 12), ("omega[Const(w)+Id]", 1, 5, 12),
        ("(Const(w)+Id)*w", 1, 11, 12),
        ("Const(7)", 0, 5, 7), ("Id*w", 10, 5, 10), ("omega[Id]", 6, 5, 6),
    ])
    def test_first_level_over_the_cap(self, text, points, cap, count):
        # the constant's min(value, const_cap) indices and the Id's
        # positions are counted as a level of their own
        with pytest.raises(BudgetExceeded, match=rf"^{count} elements exceed cap {cap}$"):
            enum_elements(parse_dil(text), points, EnumBudget(max_count=cap))

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

    @pytest.mark.parametrize("k", [8, 12, 50, 200])
    @pytest.mark.parametrize("base,first_over", [("Id", 6561), ("Id+Id", 4374)])
    def test_repetition_levels(self, base, first_over, k, default_recursion_limit):
        # each *w level triples its base's elements; the first level over the
        # cap is refused before any of its copies is built, not after 3^k are
        expr = functools.reduce(lambda d, _: MulOmega(d), range(k), parse_dil(base))
        # a full collection now, so that none over the session's heap (0.1 s
        # at some 480,000 objects) falls inside the measured call
        gc.collect()
        rss, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.process_time()
        with pytest.raises(BudgetExceeded, match=rf"^{first_over} elements exceed cap 4000$"):
            enum_elements(expr, 1)
        assert time.process_time() - cpu < 0.1
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss < 50 * 1024  # KiB

    @pytest.mark.parametrize("mult", [1, 2])
    def test_formal_sum_walk_depth(self, mult, default_recursion_limit):
        # the formal sums are walked depth first, and a sum of length l comes
        # after the 2^(l-1) or more sums over lesser exponents: the cap is
        # met long before the walk nests as deep as the length allows
        with pytest.raises(BudgetExceeded, match=r"^formal-sum budget overflow$"):
            enum_elements(OmegaComp(D_ID), 3000, EnumBudget(cnf_len=5000, cnf_mult=mult))


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

    @pytest.mark.parametrize("points", [[1, 0], (0, 0), range(2, 0, -1), iter([1, 0])],
                             ids=["list", "tuple", "range", "iterator"])
    def test_points_that_do_not_ascend_are_refused(self, points):
        with pytest.raises(ValueError, match="^ambient_stream: points must strictly ascend$"):
            ambient_stream(D_ID, points)

    def test_ascending_points_are_read_as_given(self):
        for points in ([0, 2, 4], (0, 2, 4), range(0, 6, 2), iter([0, 2, 4])):
            assert list(ambient_stream(D_ID, points)) == [Right(0), Right(2), Right(4)]

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

    @pytest.mark.parametrize("text", [
        "band(omega_head(Id;Id);1;w;w)",
        "band(omega_head(Id;Id);w;w*2;w*2)",
        "band(omega_head(Id;Id);1;3;3)",
        "band(omega_head(Id;Id);2;w;w)",
        "band(omega_head(0;omega_head(Id;Id));1;w;w)",
    ])
    def test_band_refuses_an_endless_skip_before_its_first_pull(self, text):
        # the base's elements below lo come first, and are infinitely many
        with pytest.raises(BudgetExceeded, match="^band stream skips infinitely many elements below lo$"):
            prefix_elements(parse_dil(text), 2, 40, pull_cap=0)

    def test_id_band_refuses_an_infinite_lo(self):
        # a hand-built band of Id skips lo elements: endless iff lo is
        # infinite (a finite lo streams: test_band_streams_past_a_finite_skip)
        band = Band(D_ID, OMEGA, parse_ord("w*2"), parse_ord("w*2"))
        with pytest.raises(BudgetExceeded, match="^band stream skips infinitely many elements below lo$"):
            prefix_elements(band, 1, 3, pull_cap=0)

    @pytest.mark.parametrize("atom, count", [
        ("Id", 0), ("omega[Id]", 0), ("omega_head(0;Id)", 0), ("omega_head(1;Id)", 0),
        ("omega_head(Id;Id)", 84), ("omega_head(Id+1;Id)", 84), ("omega_head(Id*2;Id)", 84),
        ("omega_head(Id;omega_head(0;Id))", 84), ("omega_head(0;omega_head(Id;Id))", 84),
        ("omega_head(Id;omega_head(Id;Id))", 84),
    ])
    def test_every_parsed_band_refuses_an_endless_skip(self, atom, count):
        # lo, hi, amb over a grid: mk_band turns the bands of Id and of
        # max-dominated heads into constants; every other base is a head,
        # whose part below lo > 0 is infinite
        grid = ["0", "1", "2", "3", "5", "w", "w+1", "w*2", "w^2"]
        bands = []
        for lo, hi, amb in itertools.product(grid, repeat=3):
            try:
                d = parse_dil(f"band({atom};{lo};{hi};{amb})")
            except ParseError:
                continue
            if isinstance(d, Band) and not d.lo.is_zero():
                bands.append(d)
        assert len(bands) == count
        for band in bands:
            with pytest.raises(BudgetExceeded, match="^band stream skips infinitely many elements below lo$"):
                prefix_elements(band, 2, 40, pull_cap=0)

    def test_band_streams_past_a_finite_skip(self):
        band = parse_dil("band(omega_head(Id;Id);0;w;w)")
        got = [element_str(band, e) for e in prefix_elements(band, 2, 40)]
        lead = "w^{r:L(0)}"
        assert got == [lead, lead + "+w^{l:L(0)}"] + [f"{lead}+w^{{l:L(0)}}*{k}" for k in range(2, 40)]
        band = Band(D_ID, from_int(2), OMEGA, OMEGA)
        assert [element_str(band, e) for e in prefix_elements(band, 1, 3)] == ["L(2)", "L(3)", "L(4)"]

    @pytest.mark.parametrize("text", ["Id*w", "(Id+Id)*w"])
    def test_repetition_over_an_empty_base_ends(self, text):
        # no copy has an element, and no pull is made, so the cap cannot stop it
        assert prefix_elements(parse_dil(text), 0, 5) == []

    def test_points_are_read_as_given(self, default_recursion_limit):
        gc.collect()
        rss, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.process_time()
        assert prefix_elements(D_ID, 10**7, 3) == [Right(0), Right(1), Right(2)]
        assert time.process_time() - cpu < 0.1
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss < 50 * 1024  # KiB

    def test_other_points_are_copied_once(self):
        # the second summand reads the points again
        got = list(ambient_stream(parse_dil("Id*2"), (p for p in "ab")))
        assert [element_str(parse_dil("Id*2"), e) for e in got] == ["l:xa", "l:xb", "r:xa", "r:xb"]


# the stream grid: the COHERENCE_SUITE expressions, heads with and without a
# low part, nested formal sums, *w chains, separations and bands (lo 0 and
# lo > 0), and the hand-built nodes above, each over 0-3 points at the
# bounds GRID_BOUNDS, rendered as their first 60 elements or their refusal
STREAM_GRID = [parse_dil(s) for s in COHERENCE_SUITE + [
    "omega_head(0;Id)", "omega_head(1;Id)", "omega_head(Id;Id)", "omega_head(Id+1;Id)",
    "omega_head(Id*2;Id)", "omega_head(Const(w);Id)", "omega_head(1;omega_head(0;Id))",
    "omega_head(omega[Id];Id)", "omega_head(0;omega_head(Id;Id))", "omega[omega[Id]]",
    "omega[1+Id]", "omega[omega[Id+1]+Id]", "omega[Id]*w", "Id*w*w", "(Id+1)*w", "(Id+Id)*w",
    "sep(omega_head(Id;Id),2)", "sep@(omega_head(Id+Id;Id);1;2)",
    "band(omega_head(Id;Id);0;w;w)", "band(omega_head(Id*2;Id);0;1;1)",
    "band(omega_head(Id;Id);1;w;w)", "band(omega_head(0;omega_head(Id;Id));1;w;w)",
]] + [Sep(CnfHead(D_ID, D_ID), OMEGA, OMEGA), Band(D_ID, OMEGA, parse_ord("w*2"), parse_ord("w*2")),
      Band(D_ID, from_int(2), OMEGA, OMEGA), CnfHead(D_ID, D_ID), CnfHead(D_ONE, CnfHead(D_ZERO, D_ID))]
GRID_BOUNDS = [parse_ord(s) for s in ("0", "1", "2", "w", "w*2+1")]


def test_stream_grid_is_pinned():
    # element order and refusals apart from pull counts: no stream here
    # comes near the default cap
    lines = []
    for expr, n, bound in itertools.product(STREAM_GRID, range(4), GRID_BOUNDS):
        try:
            body = " ".join(element_str(expr, e) for e in
                            itertools.islice(ambient_stream(expr, range(n), bound), 60))
        except BudgetExceeded as exc:
            body = f"{type(exc).__name__}: {exc}"
        lines.append(f"{to_str(expr)} {n} {ord_str(bound)}: {body}")
    assert len(lines) == 840 and sum("BudgetExceeded" in line for line in lines) == 60
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "b3930572c1d38696b1537d59aed3e21ad06963ac"


class Pulls:
    """A counting ``pull`` for ``semantics._stream``."""

    def __init__(self):
        self.count = 0

    def __call__(self):
        self.count += 1


# the formal-sum streams' pull counts, one pull per element that a constant,
# an Id or a formal-sum level yields: for each of the settings
# CNF_PULL_SETTINGS, the pulls charged for the first 1, 5, 17 and 40
# elements; and, over one point above the bound 1, how many elements come
# before the refusal at pull caps 0-15
H0, HID = CnfHead(D_ZERO, D_ID), CnfHead(D_ID, D_ID)
CNF_PULL_SETTINGS = ((0, ZERO), (1, ONE), (2, OMEGA))
CNF_PULLS = [
    (parse_dil("omega[Id]"), [(1, 1, 1, 1), (1, 6, 18, 41), (1, 6, 18, 41)],
     [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (parse_dil("omega[Id*2]"), [(1, 1, 1, 1), (1, 6, 18, 41), (1, 6, 18, 41)],
     [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (parse_dil("omega[1+Id]"), [(1, 6, 18, 41), (1, 6, 18, 41), (1, 6, 18, 41)],
     [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (parse_dil("omega[omega[Id]]"), [(1, 6, 18, 41), (1, 6, 18, 41), (1, 6, 18, 41)],
     [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (parse_dil("omega[Id]*w"), [(1, 5, 17, 40), (1, 6, 18, 41), (1, 6, 18, 41)],
     [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (H0, [(0, 0, 0, 0), (2, 6, 18, 41), (2, 6, 18, 41)],
     [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (HID, [(0, 0, 0, 0), (3, 7, 19, 42), (3, 7, 19, 42)],
     [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
    (parse_dil("omega_head(Const(w);Id)"), [(0, 0, 0, 0), (3, 7, 19, 42), (3, 7, 19, 42)],
     [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
    (parse_dil("omega_head(1;omega_head(0;Id))"), [(0, 0, 0, 0), (4, 8, 20, 43), (4, 8, 20, 43)],
     [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
    (parse_dil("omega_head(omega[Id];Id)"), [(0, 0, 0, 0), (3, 7, 19, 42), (3, 7, 19, 42)],
     [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
    (Sep(HID, OMEGA, OMEGA), [(3, 7, 19, 42), (3, 7, 19, 42), (3, 7, 19, 42)],
     [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
    (Sep(H0, ONE, OMEGA), [(2, 6, 18, 41), (2, 6, 18, 41), (2, 6, 18, 41)],
     [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
    (Band(HID, ZERO, OMEGA, OMEGA), [(3, 7, 19, 42), (3, 7, 19, 42), (3, 7, 19, 42)],
     [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
]


@pytest.mark.parametrize("expr, pulls, before_refusal", CNF_PULLS,
                         ids=[to_str(case[0]) for case in CNF_PULLS])
def test_formal_sum_streams_charge_the_pinned_pulls(expr, pulls, before_refusal):
    got = []
    for n, bound in CNF_PULL_SETTINGS:
        counts = []
        for k in (1, 5, 17, 40):
            pull = Pulls()
            list(itertools.islice(semantics._stream(expr, range(n), bound, pull), k))
            counts.append(pull.count)
        got.append(tuple(counts))
    assert got == pulls
    # past the lead's first sum, each element costs one pull
    assert all(len(set(p)) == 1 or (p[2] - p[1], p[3] - p[2]) == (12, 23) for p in got)
    counts = []
    for cap in range(16):
        stream = ambient_stream(expr, (0,), ONE, cap)
        with pytest.raises(BudgetExceeded, match="^stream pull budget exhausted$"):
            for i in range(41):
                next(stream)
        counts.append(i)
    assert counts == before_refusal
    # the one-pull rule: from the cap at which the least lead's first sum
    # comes out, every extra pull of cap adds exactly one element
    elems = list(itertools.islice(ambient_stream(expr, (0,), ONE), 41))
    lead = 1 + next(i for i, e in enumerate(elems) if semantics._descend(expr, e)[1] != ())
    first = counts.index(lead)
    assert counts[first:] == list(range(lead, lead + 16 - first))


class TestValidation:
    def test_duplicate_exponents_rejected(self):
        oc = parse_dil("omega[Id]")
        bad = ((Right(0), 1), (Right(0), 1))
        with pytest.raises(MalformedElement):
            validate_element(oc, bad)

    def test_ascending_exponents_rejected(self):
        oc = parse_dil("omega[Id]")
        bad = ((Right(0), 1), (Right(1), 1))
        with pytest.raises(MalformedElement):
            validate_element(oc, bad)

    def test_head_needs_high_lead(self):
        h = CnfHead(D_ZERO, D_ID)
        with pytest.raises(MalformedElement):
            validate_element(h, ())

    def test_sep_membership(self):
        node = Sep(CnfHead(D_ID, D_ID), OMEGA, OMEGA)
        for e in prefix_elements(node, 1, 10):
            validate_element(node, e)

    @pytest.mark.parametrize(
        "text, elem",
        [
            ("Const(3)", Left(ZERO)),
            ("Const(3)", from_int(3)),
            ("Const(3)", from_int(5)),
            ("Id", ZERO),
            ("Id", ((Right(0), 1),)),
            ("omega[Id]", Right(0)),
            ("omega[Id]", Left(ZERO)),
        ],
    )
    def test_a_leaf_of_the_wrong_kind_is_rejected(self, text, elem):
        with pytest.raises(MalformedElement):
            validate_element(parse_dil(text), elem)

    def test_plain_leaves_validate(self):
        validate_element(parse_dil("Const(3)"), from_int(2))
        validate_element(D_ID, Left(OMEGA))
        validate_element(D_ID, Right("a"))
        validate_element(parse_dil("omega[Id]"), ())
        validate_element(parse_dil("omega[Id]"), ((Right(1), 2), (Right(0), 1)))


# ---------------------------------------------------------------------------
# the walkers against the recursive ones they replaced


def reference_compare_elements(expr, e1, e2, pos_cmp=default_pos_cmp):
    """The element order by recursion at every node level."""
    if isinstance(expr, Const):
        return ord_cmp(e1, e2)
    if isinstance(expr, IdNode):
        return pos_cmp(e1, e2)
    if isinstance(expr, Sum):
        if e1.side != e2.side:
            return LESS if e1.side < e2.side else GREATER
        left, right = halves(expr)
        part = left if e1.side == 0 else right
        return reference_compare_elements(part, e1.inner, e2.inner, pos_cmp)
    if isinstance(expr, MulOmega):
        if e1.copy != e2.copy:
            return LESS if e1.copy < e2.copy else GREATER
        return reference_compare_elements(expr.base, e1.inner, e2.inner, pos_cmp)
    if isinstance(expr, (OmegaComp, CnfHead)):
        for (x, m), (y, n) in zip(e1, e2):
            c = reference_compare_elements(expr.exponents, x, y, pos_cmp)
            if c != EQUAL:
                return c
            if m != n:
                return LESS if m < n else GREATER
        if len(e1) == len(e2):
            return EQUAL
        return LESS if len(e1) < len(e2) else GREATER
    if isinstance(expr, (Sep, Band)):
        return reference_compare_elements(expr.base, e1, e2, pos_cmp)
    raise MalformedElement(f"no comparison rule for {expr!r}")


def reference_apply_embedding(expr, elem, mapping):
    """The functorial action by recursion at every node level."""
    if isinstance(expr, Const):
        return elem
    if isinstance(expr, IdNode):
        if isinstance(elem, Right):
            return Right(mapping[elem.point])
        return elem
    if isinstance(expr, Sum):
        left, right = halves(expr)
        part = left if elem.side == 0 else right
        return ESum(elem.side, reference_apply_embedding(part, elem.inner, mapping))
    if isinstance(expr, MulOmega):
        return ECopies(elem.copy, reference_apply_embedding(expr.base, elem.inner, mapping))
    if isinstance(expr, OmegaComp):
        return tuple((reference_apply_embedding(expr.base, x, mapping), m) for x, m in elem)
    if isinstance(expr, CnfHead):
        return tuple(
            (
                ESum(
                    x.side,
                    reference_apply_embedding(
                        expr.low if x.side == 0 else expr.high, x.inner, mapping
                    ),
                ),
                m,
            )
            for x, m in elem
        )
    if isinstance(expr, (Sep, Band)):
        return reference_apply_embedding(expr.base, elem, mapping)
    raise MalformedElement(f"no embedding rule for {expr!r}")


# the expressions and the omega_head atoms of the element-oracles benchmark
ORACLE_EXPRS = [
    "1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id", "Id+Const(w)", "Id*2",
    "Id*w", "omega[Id]", "omega[Id+1]", "omega[Id*2]", "Const(w)+Id", "omega[Id]+Id",
    "omega_head(0;Id)", "omega_head(Id;Id)", "omega_head(1;omega_head(0;Id))",
]
ORACLE_BUDGET = EnumBudget(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3)
# three valid terms of a collapse order, used as points under its position order
PSI_ORDER = PsiOrder(parse_dil("omega[Id]"), ZERO)
PSI_TERMS = PSI_ORDER.enum(1)[:3]
DEFAULT_POS = (default_pos_key, default_pos_cmp)
SETTINGS = {
    # name: (points, lefts, (pos_key, pos_cmp), an embedding of the points)
    "0pts": (0, (), DEFAULT_POS, {}),
    "1pt": (1, (), DEFAULT_POS, {0: 2}),
    "2pts": (2, (), DEFAULT_POS, {0: 1, 1: 3}),
    "lefts": (0, (ZERO, ONE), DEFAULT_POS, {}),
    "lefts+1pt": (1, (ZERO,), DEFAULT_POS, {0: 1}),
    "psi": (PSI_TERMS[:2], (), (psi_pos_key(PSI_ORDER), PSI_ORDER.pos_cmp),
            {PSI_TERMS[0]: PSI_TERMS[1], PSI_TERMS[1]: PSI_TERMS[2]}),
}


def _setting_candidates(expr, setting):
    """The setting's labels, sorted by its position key, and ``_gen``
    over them and its frozen values."""
    points, lefts, (pos_key, _), _ = SETTINGS[setting]
    labels = sorted(_labels(points), key=lambda p: pos_key(Right(p)))
    return labels, semantics._gen(expr, labels, ORACLE_BUDGET, lefts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


class TestWalkersMatchTheRecursiveOnes:
    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("text", ORACLE_EXPRS)
    def test_every_pair_of_sorted_elements(self, text, setting):
        _, _, (_, pos_cmp), mapping = SETTINGS[setting]
        expr = parse_dil(text)
        _, (elems, _) = _setting_candidates(expr, setting)
        for x in elems:
            for y in elems:
                assert compare_elements(expr, x, y, pos_cmp) == reference_compare_elements(
                    expr, x, y, pos_cmp
                ), (x, y)
            assert apply_embedding(expr, x, mapping) == reference_apply_embedding(
                expr, x, mapping
            ), x

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_position_key_orders_as_the_comparator(self, setting):
        points, lefts, (pos_key, pos_cmp), mapping = SETTINGS[setting]
        labels = list(range(points)) if isinstance(points, int) else list(points)
        labels += [v for v in mapping.values() if v not in labels]
        positions = [Left(v) for v in lefts] + [Right(p) for p in labels]
        for p, q in itertools.product(positions, repeat=2):
            kp, kq = pos_key(p), pos_key(q)
            assert (kp > kq) - (kp < kq) == pos_cmp(p, q), (p, q)

    def test_psi_points_are_nontrivial_terms(self):
        assert len(PSI_TERMS) == 3 and PSI_TERMS[2] != ()

    @pytest.mark.parametrize(
        "text,e1,e2",
        [
            ("Id", ZERO, Right(0)),
            ("Id", Right("a"), Right(0)),
            ("Id", 0, Right(0)),
            ("Id+1", Right(0), ESum(0, Right(0))),
            ("Id+1", ESum(2, ZERO), ESum(2, ZERO)),
            ("Id+1", ESum(0, ZERO), ESum(0, Right(0))),
            ("Id*w", ECopies(0, Right(0)), Right(0)),
            ("omega[Id]", ESum(0, Right(0)), ()),
            ("omega[Id]", ((Right(0),),), ((Right(1), 1),)),
            ("omega[Id]", ((ZERO, 1),), ((Right(1), 1),)),
            ("omega_head(0;Id)", ((Right(0), 1),), ((Right(0), 1),)),
            ("Const(3)", from_int(5), Right(0)),
        ],
    )
    def test_malformed_elements(self, text, e1, e2):
        expr = parse_dil(text)
        assert _outcome(compare_elements, expr, e1, e2) == _outcome(
            reference_compare_elements, expr, e1, e2
        )
        for elem in (e1, e2):
            for mapping in ({0: 1}, {}):
                assert _outcome(apply_embedding, expr, elem, mapping) == _outcome(
                    reference_apply_embedding, expr, elem, mapping
                )

    def test_nodes_without_a_rule(self):
        for expr in (Dil(), None):
            e = Right(0)
            assert _outcome(compare_elements, expr, e, e) is MalformedElement
            assert _outcome(apply_embedding, expr, e, {0: 1}) is MalformedElement
            assert _outcome(element_str, expr, e) is MalformedElement
            assert _outcome(reference_compare_elements, expr, e, e) is MalformedElement
            assert _outcome(reference_apply_embedding, expr, e, {0: 1}) is MalformedElement


# ---------------------------------------------------------------------------
# element_key against the comparators


# the oracle expressions, with separations and bands, alone and under a sum
KEY_EXPRS = [parse_dil(s) for s in ORACLE_EXPRS] + [
    Sep(CnfHead(D_ID, D_ID), OMEGA, OMEGA),
    Band(CnfHead(D_ZERO, D_ID), ZERO, from_int(2), from_int(2)),
    mk_sum(D_ID, Band(D_ID, ONE, from_int(3), from_int(3))),
]
KEY_LEFTS = (ZERO, OMEGA)


@functools.lru_cache(maxsize=None)
def _keyed_elements():
    """Each of KEY_EXPRS with its ascending elements over two points and KEY_LEFTS."""
    return [(d, semantics._gen(d, [0, 1], ORACLE_BUDGET, KEY_LEFTS)[0]) for d in KEY_EXPRS]


def _node_kinds(d):
    kinds = {d.__class__}
    for field in ("left", "right", "base", "low", "high"):
        child = getattr(d, field, None)
        if isinstance(child, Dil):
            kinds |= _node_kinds(child)
    return kinds


class TestElementKey:
    def test_keys_ascend_strictly_along_the_order(self):
        kinds, positions = set(), set()
        for d, elems in _keyed_elements():
            kinds |= _node_kinds(d)
            positions |= {p.__class__ for e in elems for p in element_positions(d, e)}
            keys = [element_key(d, e, default_pos_key) for e in elems]
            assert all(a < b for a, b in zip(keys, keys[1:])), to_str(d)
        assert kinds == {Const, IdNode, Sum, MulOmega, OmegaComp, CnfHead, Sep, Band}
        assert positions == {Left, Right}

    def test_nodes_without_a_rule(self):
        for expr in (Dil(), None):
            e = Right(0)
            assert _outcome(element_key, expr, e, default_pos_key) is MalformedElement


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_key_order_is_the_element_order(data):
    # indices, not sampled_from: hashing the elements would dominate the run
    table = _keyed_elements()
    d, elems = table[data.draw(st.integers(0, len(table) - 1))]
    x, y = (elems[data.draw(st.integers(0, len(elems) - 1))] for _ in range(2))
    kx, ky = element_key(d, x, default_pos_key), element_key(d, y, default_pos_key)
    sign = (kx > ky) - (kx < ky)
    assert sign == compare_elements(d, x, y) == reference_compare_elements(d, x, y)
    assert (kx == ky) == (compare_elements(d, x, y) == EQUAL)


# ---------------------------------------------------------------------------
# sum levels in enumeration, streams and rendering against the recursion


def reference_element_str(expr, elem):
    """``element_str`` by recursion at every node level."""
    if isinstance(expr, Const):
        return f"c[{ord_str(elem)}]"
    if isinstance(expr, IdNode):
        return semantics.pos_str(elem)
    if isinstance(expr, Sum):
        left, right = halves(expr)
        part = left if elem.side == 0 else right
        return ("l:" if elem.side == 0 else "r:") + reference_element_str(part, elem.inner)
    if isinstance(expr, MulOmega):
        return f"{elem.copy}#{reference_element_str(expr.base, elem.inner)}"
    if isinstance(expr, (OmegaComp, CnfHead)):
        if not elem:
            return "0"
        return "+".join(
            f"w^{{{reference_element_str(expr.exponents, x)}}}" + (f"*{m}" if m > 1 else "")
            for x, m in elem
        )
    if isinstance(expr, (Sep, Band)):
        return reference_element_str(expr.base, elem)
    return repr(elem)


def _recursive_sum_levels(monkeypatch):
    """Make ``_gen`` and ``_stream`` take every sum apart by recursion, one
    level per summand, as they did; other nodes keep their rules."""
    gen, stream = semantics._gen, semantics._stream

    def reference_gen(expr, points, budget, lefts):
        if isinstance(expr, Sum):
            elems, positions = [], []
            for side, half in enumerate(halves(expr)):
                half_elems, half_positions = reference_gen(half, points, budget, lefts)
                elems += [ESum(side, x) for x in half_elems]
                positions += half_positions
            return elems, positions
        return gen(expr, points, budget, lefts)

    def reference_stream(expr, points, bound, pull):
        if isinstance(expr, Sum):
            for x in reference_stream(halves(expr)[0], points, bound, pull):
                yield ESum(0, x)
            for x in reference_stream(halves(expr)[1], points, bound, pull):
                yield ESum(1, x)
            return
        yield from stream(expr, points, bound, pull)

    monkeypatch.setattr(semantics, "_gen", reference_gen)
    monkeypatch.setattr(semantics, "_stream", reference_stream)


# sums below a repetition, a formal sum, a head and a filtered node
SUMS_BELOW = ["(Id+1)*w", "omega[Id*2]", "omega[Id+1]", "omega[Const(w)+Id*2]",
              "omega[omega[Id+1]+Id]", "omega_head(Id+1;Id*2)", "omega_head(Id*3;Id)",
              "sep@(omega_head(Id+Id;Id);1;2)", "band(omega_head(Id*2;Id);0;1;1)", "Id*2+Const(2)"]


def _sum_level_outcomes(text):
    """Candidates with their position keys, enumeration, stream prefix with
    its pull count, and every element's text."""
    expr, pull = parse_dil(text), Pulls()
    gen = _outcome(semantics._gen, expr, [0, 1], ORACLE_BUDGET, [ZERO])
    elems = _outcome(lambda: semantics._gen(expr, [0, 1], ORACLE_BUDGET, (ZERO, ONE))[0])
    stream = list(itertools.islice(semantics._stream(expr, (0, 1), ONE, pull), 60))
    texts = [reference_element_str(expr, e) for e in stream + (elems if isinstance(elems, list) else [])]
    return gen, elems, stream, pull.count, texts


@pytest.mark.parametrize("text", SUMS_BELOW + ORACLE_EXPRS)
def test_sum_levels_match_the_recursive_ones(text, monkeypatch):
    new = _sum_level_outcomes(text)
    expr = parse_dil(text)
    rendered = [element_str(expr, e) for e in new[2] + (new[1] if isinstance(new[1], list) else [])]
    assert rendered == new[4]
    assert new[0][0] == reference_enum_elements(expr, [0, 1], ORACLE_BUDGET, [ZERO])
    _recursive_sum_levels(monkeypatch)
    assert new == _sum_level_outcomes(text)


# at the default recursion limit the recursive walkers still handled the
# last summand of a sum of 950 summands, and failed on this one
LONG_SUM = 1000


class TestLongSumElements:
    """An element of the i-th summand of a sum nests i ESum layers."""

    def test_walkers_loop_down_the_layers(self, default_recursion_limit):
        d = mk_mul_nat(D_ID, LONG_SUM)
        x, y = (top_inject(d, Right(p)) for p in (0, 1))
        assert compare_elements(d, x, y) == LESS
        validate_element(d, x)
        assert element_positions(d, x) == [Right(0)]
        assert support_of(d, x) == [0]
        assert important_position(d, x) == Right(0)
        image = apply_embedding(d, x, {0: 1})
        for _ in range(LONG_SUM - 1):
            assert image.__class__ is ESum and image.side == 1
            image = image.inner
        assert image == Right(1)

    def test_psi_level_zero(self, default_recursion_limit):
        terms = PsiOrder(mk_mul_nat(D_ID, LONG_SUM), ONE).enum(0)
        assert len(terms) == LONG_SUM

    def test_element_str(self, default_recursion_limit):
        d = mk_mul_nat(D_ID, 1500)
        assert element_str(d, top_inject(d, Right(0))) == "r:" * 1499 + "x0"

    def test_enum_below_a_formal_sum(self, default_recursion_limit):
        expr = OmegaComp(mk_mul_nat(D_ID, LONG_SUM))
        assert enum_elements(expr, 0, EnumBudget(cnf_len=1)) == [()]

    def test_stream(self, default_recursion_limit):
        # one generator per summand would nest 1,000 deep to reach the last
        elems = prefix_elements(mk_mul_nat(D_ID, LONG_SUM), 1, LONG_SUM)
        assert len(elems) == LONG_SUM
        last = elems[-1]
        for _ in range(LONG_SUM - 1):
            assert last.__class__ is ESum and last.side == 1
            last = last.inner
        assert last == Right(0)


# ---------------------------------------------------------------------------
# the generator, built in element order, against the sorted reference


def reference_candidates(expr, points, budget, lefts, pos_key=default_pos_key):
    """``semantics._gen`` as it was before it built in element order:
    the elements alone and unsorted, each formal sum's exponents sorted by
    one ``element_key`` walk each and its sums listed by length, and each
    constant's indices, each Id's positions, each sum's summands and each
    repetition's copies counted against the cap before any element is
    placed."""
    def check(count):
        if count > budget.max_count:
            raise BudgetExceeded(f"{count} elements exceed cap {budget.max_count}")

    def gen(expr, lefts):
        if isinstance(expr, Const):
            out, v = [], ZERO
            while len(out) < budget.const_cap and v < expr.value:
                out.append(v)
                v = ord_add(v, ONE)
            check(len(out))
            return out
        if isinstance(expr, IdNode):
            out = [Left(v) for v in lefts] + [Right(p) for p in points]
            check(len(out))
            return out
        if isinstance(expr, Sum):
            made = [gen(part, lefts) for part in expr.parts]
            check(sum(map(len, made)))
            n = len(made)
            return [semantics._place(x, i, n) for i, elems in enumerate(made) for x in elems]
        if isinstance(expr, MulOmega):
            base = gen(expr.base, lefts)
            check(len(base) * budget.copies)
            return [ECopies(k, x) for k in range(budget.copies) for x in base]
        if isinstance(expr, (OmegaComp, CnfHead)):
            exponents = expr.exponents
            exps = sorted(gen(exponents, lefts), key=lambda x: element_key(exponents, x, pos_key))
            out = []
            for count in range(budget.cnf_len + 1):
                for combo in itertools.combinations(range(len(exps)), count):
                    descending = [exps[i] for i in reversed(combo)]
                    for mults in itertools.product(range(1, budget.cnf_mult + 1), repeat=count):
                        cand = tuple(zip(descending, mults))
                        if isinstance(expr, CnfHead) and (not cand or cand[0][0].side != 1):
                            continue
                        out.append(cand)
                        if len(out) > budget.max_count:
                            raise BudgetExceeded("formal-sum budget overflow")
            return out
        if isinstance(expr, (Sep, Band)):
            inner_lefts = semantics._grid_values(expr.amb, budget.grid)
            return [e for e in gen(expr.base, inner_lefts) if semantics.member(expr, e)]
        raise MalformedElement(f"no enumeration rule for {expr!r}")

    return gen(expr, list(lefts))


def reference_enum_elements(expr, points, budget, lefts, pos_key=default_pos_key):
    """The reference candidates, sorted by one ``element_key`` walk each."""
    return sorted(reference_candidates(expr, points, budget, lefts, pos_key),
                  key=lambda e: element_key(expr, e, pos_key))


# every _gen branch: constants, Id, sums of two and three parts, repetitions,
# formal sums, heads (whose high-lead filter drops the low-led sums), and
# separations (sep and sep@) and bands, whose members are kept
KEYED_EXPRS = [
    "Const(3)", "Const(w)", "Id", "Id+1", "Id+Const(w)+Id", "Id*w", "(Id+1+Id)*w", "omega[Id]",
    "omega[Id+1]", "omega[Id]+Id", "omega_head(0;Id)", "omega_head(Id;Id)",
    "omega_head(Id+1;Id)", "omega_head(1;omega_head(0;Id))", "sep(omega_head(Id;Id),2)",
    "sep@(omega_head(Id+Id;Id);1;2)", "band(omega_head(Id;Id);0;2;2)",
    "Id+band(omega_head(Id;Id);0;2;2)",
]


def _labels(points):
    return list(range(points)) if isinstance(points, int) else list(points)


def _place_key(labels, p) -> tuple:
    """A position keyed by its place: ``(0, v)`` for the frozen value v,
    ``(1, i)`` for the i-th of the labels."""
    return (0, p.value) if p.__class__ is Left else (1, labels.index(p.point))


class TestOrderedGenerator:
    """``_gen`` builds each element in element order, with its
    position keys, and sorts nothing: the elements must be the reference's,
    sorted by one ``element_key`` walk each, each one below the next, the
    position keys their places in what the generator was given, and the
    refusals the reference ones."""

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("text", KEYED_EXPRS)
    def test_candidates_come_out_in_element_order(self, text, setting):
        points, lefts, (pos_key, pos_cmp), _ = SETTINGS[setting]
        expr = parse_dil(text)
        labels, (elems, positions) = _setting_candidates(expr, setting)
        assert elems == reference_enum_elements(expr, labels, ORACLE_BUDGET, lefts, pos_key)
        assert all(compare_elements(expr, a, b, pos_cmp) == LESS for a, b in zip(elems, elems[1:]))
        assert positions == [tuple(_place_key(labels, p) for p in element_positions(expr, e))
                             for e in elems]
        if not lefts and pos_key is default_pos_key:
            assert enum_elements(expr, points, ORACLE_BUDGET) == elems
            # enum_elements sorts the labels it is given
            assert enum_elements(expr, labels[::-1], ORACLE_BUDGET) == elems

    def test_points_are_keyed_by_their_place(self):
        elems, positions = semantics._gen(D_ID, [5, 9, 12], ORACLE_BUDGET, [ZERO])
        assert elems == [Left(ZERO), Right(5), Right(9), Right(12)]
        assert positions == [((0, ZERO),), ((1, 0),), ((1, 1),), ((1, 2),)]

    def test_the_pool_reaches_every_branch(self, monkeypatch):
        gen, kinds, counts = semantics._gen, set(), set()

        def spy(expr, *args):
            kinds.add(expr.__class__)
            if expr.__class__ is Sum:
                counts.add(len(expr.parts))
            return gen(expr, *args)

        monkeypatch.setattr(semantics, "_gen", spy)
        for text in KEYED_EXPRS:
            semantics._gen(parse_dil(text), [0, 1], ORACLE_BUDGET, [ZERO])
        assert kinds == {Const, IdNode, Sum, MulOmega, OmegaComp, CnfHead, Sep, Band}
        assert {2, 3} <= counts

    def test_nodes_without_a_rule(self):
        for expr in (Dil(), MulOmega(Dil()), mk_sum(D_ID, Dil())):
            assert _outcome(enum_elements, expr, 1) is MalformedElement
            assert _outcome(reference_candidates, expr, [0], ORACLE_BUDGET, ()) is MalformedElement

    def test_refusals_are_the_reference_ones(self):
        # caps below, at and above each expression's count: the same elements
        # or the same refusal, from the formal sum or from the top-level cap
        refusals = set()
        for text in KEYED_EXPRS:
            expr, lefts = parse_dil(text), (ZERO, ONE)
            full = len(reference_candidates(expr, [0, 1], ORACLE_BUDGET, lefts))
            for cap in sorted({0, 1, 2, 5, 10, 40, max(full - 1, 0), full}):
                budget = EnumBudget(max_count=cap, const_cap=3, copies=2, cnf_len=2,
                                    cnf_mult=2, grid=3)
                got = _refusal(lambda: semantics._gen(expr, [0, 1], budget, [*lefts])[0])
                assert got == _refusal(lambda: reference_enum_elements(expr, [0, 1], budget, lefts))
                assert _refusal(lambda: enum_elements(expr, 2, budget)) == _refusal(
                    lambda: reference_enum_elements(expr, [0, 1], budget, ())), (text, cap)
                if isinstance(got, tuple):
                    refusals.add(got[1].split()[-1] if "cap" in got[1] else got[1])
        assert refusals >= {"formal-sum budget overflow", "0", "1", "2", "5", "10", "40"}


def _refusal(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except BudgetExceeded as exc:
        return type(exc).__name__, str(exc)
