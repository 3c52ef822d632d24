"""The record semantics of every kernel record class: the repr, equality
within one class and NotImplemented across classes, the hash of the field
tuple (set and dict orders, and so the pinned answers, depend on it),
immutability, and unhashable mutable records."""

import pytest

from dilcalc.analysis import Decomposition
from dilcalc.expr import (
    D_ID, D_ONE, D_ZERO, Band, CnfHead, Const, IdNode, MulOmega, OmegaComp, Sep, Sum,
)
from dilcalc.jfunctor import GuardAudit, JStep, j_eval, jplus_eval
from dilcalc.ordinal import (
    OMEGA, ONE, ZERO, ConstantIncrement, LimitPattern, Ord, TermEscalation,
    Unsupported, parse_ord,
)
from dilcalc.psi import IllFoundedFixture, PsiOrder, PsiSearchHandle, SearchResult
from dilcalc.semantics import ECopies, ESum, EnumBudget, Left, Right
from dilcalc.suites import CheckReport

# (constructor, repr); the repr also pins the fields and their order
RECORDS = [
    (lambda: Ord(),
     "Ord('0')"),
    (lambda: parse_ord("w^(w+1)*2+w^w+3"),
     "Ord('w^(w+1)*2+w^w+3')"),
    (lambda: ConstantIncrement(ONE),
     "ConstantIncrement(increment=Ord('1'))"),
    (lambda: TermEscalation(ONE, OMEGA),
     "TermEscalation(prefix=Ord('1'), exponent_limit=Ord('w'))"),
    (lambda: Unsupported(),
     "Unsupported(reason='')"),
    (lambda: LimitPattern(Unsupported("why"), ZERO),
     "LimitPattern(kind=Unsupported(reason='why'), start=Ord('0'))"),
    (lambda: Const(ONE),
     "Const(value=Ord('1'))"),
    (lambda: IdNode(),
     'IdNode()'),
    (lambda: Sum((IdNode(), Const(ONE))),
     "Sum(parts=(IdNode(), Const(value=Ord('1'))))"),
    (lambda: MulOmega(D_ID),
     'MulOmega(base=IdNode())'),
    (lambda: OmegaComp(D_ID),
     'OmegaComp(base=IdNode())'),
    (lambda: CnfHead(D_ZERO, D_ID),
     "CnfHead(low=Const(value=Ord('0')), high=IdNode())"),
    (lambda: Sep(D_ID, ONE, OMEGA),
     "Sep(base=IdNode(), cut=Ord('1'), amb=Ord('w'))"),
    (lambda: Band(D_ID, ZERO, ONE, OMEGA),
     "Band(base=IdNode(), lo=Ord('0'), hi=Ord('1'), amb=Ord('w'))"),
    (lambda: Left(ZERO),
     "Left(value=Ord('0'))"),
    (lambda: Right(0),
     'Right(point=0)'),
    (lambda: ESum(1, Right(0)),
     'ESum(side=1, inner=Right(point=0))'),
    (lambda: ECopies(2, ZERO),
     "ECopies(copy=2, inner=Ord('0'))"),
    (lambda: EnumBudget(max_count=10, grid=3),
     'EnumBudget(max_count=10, const_cap=12, copies=3, cnf_len=2, cnf_mult=2, grid=3)'),
    (lambda: Decomposition("succ", D_ZERO, D_ONE),
     "Decomposition(kind='succ', prefix=Const(value=Ord('0')), top=Const(value=Ord('1')), fund=None)"),
    (lambda: JStep(D_ID, OMEGA, "limit", None, OMEGA),
     "JStep(parent=IdNode(), gamma=Ord('w'), clause='limit', child=None, value=Ord('w'))"),
    (lambda: j_eval(D_ONE, ONE),
     "JResult(expr=Const(value=Ord('1')), gamma=Ord('1'), variant='j', value=Ord('2'), eta=Ord('3'), xi=Ord('2'), steps=(JStep(parent=Const(value=Ord('1')), gamma=Ord('1'), clause='constant', child=None, value=Ord('2')),))"),
    (lambda: jplus_eval(D_ONE, ONE),
     "JResult(expr=Const(value=Ord('1')), gamma=Ord('1'), variant='jplus', value=Ord('w^2'), eta=Ord('w^2+1'), xi=Ord('w^2+1'), steps=(JStep(parent=Const(value=Ord('w^2')), gamma=Ord('1'), clause='constant', child=None, value=Ord('w^2')),))"),
    (lambda: GuardAudit(True, OMEGA, 1, (), 0),
     "GuardAudit(value_identical=True, enlarged_eta=Ord('w'), steps_checked=1, rank_violations=(), unranked_steps=0)"),
    (lambda: PsiOrder(D_ID, ONE),
     "PsiOrder(dilator=IdNode(), gamma=Ord('1'))"),
    (lambda: SearchResult(False),
     'SearchResult(found=False, chain=(), trials=0)'),
    (lambda: SearchResult(True, (1, 2), 3),
     'SearchResult(found=True, chain=(1, 2), trials=3)'),
    (lambda: PsiSearchHandle(PsiOrder(D_ID, ONE)),
     "PsiSearchHandle(order=PsiOrder(dilator=IdNode(), gamma=Ord('1')))"),
    (lambda: IllFoundedFixture(),
     'IllFoundedFixture(state=0)'),
    (lambda: CheckReport("x"),
     "CheckReport(name='x', ok=True, details=[], skips=[], violations=[], duration=0.0)"),
    (lambda: CheckReport("y", False, ["a"], [], ["v"], 1.5),
     "CheckReport(name='y', ok=False, details=['a'], skips=[], violations=['v'], duration=1.5)"),
]
MUTABLE = (PsiSearchHandle, IllFoundedFixture, CheckReport)


def _id(case):
    return type(case[0]()).__name__


@pytest.mark.parametrize("make, text", RECORDS, ids=[_id(case) for case in RECORDS])
def test_record_semantics(make, text):
    x, y = make(), make()
    # the fields in the order they were set; caches are private names
    fields = {k: v for k, v in vars(x).items() if not k.startswith("_")}
    assert repr(x) == text
    if not isinstance(x, Ord):  # an Ord prints its notation
        assert text == f"{type(x).__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert x is not y and x == y and not x != y
    assert x.__eq__(object()) is NotImplemented
    if isinstance(x, MUTABLE):
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == hash(y) == hash(tuple(fields.values()))
    for name in [*fields][:1] + ["other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert x == y


def test_equal_fields_of_another_class_are_not_equal():
    assert Left(ZERO) != Right(ZERO) and Left(ZERO).__eq__(Right(ZERO)) is NotImplemented
    assert ESum(0, ZERO) != ECopies(0, ZERO) and ECopies(0, ZERO) != ESum(0, ZERO)
    assert len({Left(ZERO), Right(ZERO), ESum(0, ZERO), ECopies(0, ZERO), Const(ZERO)}) == 5


def test_mutable_records_stay_mutable():
    handle = PsiSearchHandle(PsiOrder(D_ID, ONE))
    handle.order = PsiOrder(D_ID, ZERO)
    assert handle == PsiSearchHandle(PsiOrder(D_ID, ZERO))
    assert CheckReport("x").details is not CheckReport("x").details
