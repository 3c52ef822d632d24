"""Guarded-recursive evaluation of the ordinal functors J, J' and J+.

The clauses follow the decomposition: a constant adds its value, a limit
takes the exact supremum along the fundamental sequence of partial sums,
and a successor with a connected top splits as alpha + beta through
separation of variables (J separates at 0, the primed variant at omega);
no normalized expression decomposes otherwise (``analysis._normalized``).
A sum composes, J(a+e, gamma) = J(e, J(a, gamma)), one summand at a time
left to right in one step, so a sum of n summands costs one composition
step and the steps of its summands, and no sum is rebuilt.  By the same
clause the member B*k of a limit B*w has the value J(B, -) iterated k times
from gamma, so that limit samples gamma and its iterates, one step each,
and builds no member.  The clauses run as frames on one explicit stack, so
how deep they nest is bounded by ``DEPTH_CAP``, not by Python's recursion
limit.  Each evaluated (sub-expression, gamma) pair is recorded once, as a
``JStep`` with its clause, its last child and its value; ``JResult.steps``
lists every one of them in post-order, root last, with no cap of its own.
What does not depend on gamma is derived once per session and expression
other than a B*w, in a table that ends with the session: its decomposition,
the members of its fundamental sequence and its separation at the first
cut.  Guards are certificates computed after the fact: eta bounds the
value, xi bounds the order type at omega^(1+eta), and the audit re-checks
that every recorded step descends in rank.
"""

from __future__ import annotations

from typing import Optional

from . import analysis
from .analysis import _limit_sup, _normalized, decompose, otp_symbolic, separate
from .errors import DepthExceeded, FRAGMENT_ERRORS
from .expr import Const, D_ONE, Dil, MulOmega, Sum, mk_omega_comp, mk_sum, to_str
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Frozen,
    Ord,
    _set,
    ord_add,
    ord_omega_pow,
)

# the one resource limit of the guarded recursion: steps that take the limit
# or separation clause
DEPTH_CAP = 10000


class JStep(Frozen):
    def __init__(self, parent: Dil, gamma: Ord, clause: str, child: Optional[Dil], value: Ord):
        _set(self, "parent", parent)
        _set(self, "gamma", gamma)
        _set(self, "clause", clause)
        _set(self, "child", child)
        _set(self, "value", value)


class JResult(Frozen):
    def __init__(self, expr: Dil, gamma: Ord, variant: str, value: Ord, eta: Ord,
                 xi: Optional[Ord], steps: tuple):
        if value >= eta:
            raise ValueError("guard eta must exceed the value")
        _set(self, "expr", expr)
        _set(self, "gamma", gamma)
        _set(self, "variant", variant)
        _set(self, "value", value)
        _set(self, "eta", eta)
        _set(self, "xi", xi)
        _set(self, "steps", steps)


class _Session:
    """One guarded recursion of J or J', run as one loop over a stack.

    A frame is a clause in progress at one ``(expr, gamma)``: a generator
    that yields each ``(child, gamma)`` it needs, is sent back its value, and
    yields its ``JStep`` last.  Memo hits and constants take no frame.  Each
    summand of a sum runs at the value of the summands before it, so the
    memo is keyed by ``(expr, gamma)``.  It is also the step log: each
    ``JStep`` is stored when its frame finishes, so the log is in
    post-order, root last.  ``DEPTH_CAP`` bounds the guarded steps, the ones
    that take the limit or separation clause.  Constant steps are leaves and
    a sum has one composition step per gamma over all its summands, so the
    guarded steps bound the work; counting the others too would refuse
    inputs that were answered while sums were decomposed whole.  A limit
    ``B*w`` yields ``(B, v)`` for each sample after gamma, v the sample
    before it; those are the guarded steps its members ``B*k`` took, without
    their compositions.

    ``facts`` maps each expression other than a ``B*w`` that took a guarded
    step to what every gamma shares: its ``Decomposition``, the
    fundamental-sequence members built so far (in order, from k = 0) and,
    for a successor, its separation at the first cut.
    """

    def __init__(self, first_cut: Ord):
        self.first_cut = first_cut
        self.memo, self.facts, self.calls = {}, {}, 0

    def eval(self, d: Dil, gamma: Ord) -> Ord:
        memo, frames = self.memo, []
        while True:
            step = memo.get((d, gamma))
            if step is None and isinstance(d, Const):
                # closed form: unfolding the successor and limit clauses along a
                # constant gives gamma + value; keeps nested limits tractable
                step = memo[d, gamma] = JStep(d, gamma, "constant", None, ord_add(gamma, d.value))
            value = None if step is None else step.value
            if step is None:
                frames.append(self._frame(d, gamma))
            while frames:  # pass the value down until a frame asks for a child
                out = frames[-1].send(value)
                if out.__class__ is not JStep:
                    d, gamma = out
                    break
                memo[out.parent, out.gamma] = out
                frames.pop()
                value = out.value
            else:
                return value

    def _frame(self, d: Dil, gamma: Ord):
        if d.__class__ is not Sum:  # a guarded step
            self.calls += 1
            if self.calls > DEPTH_CAP:
                raise DepthExceeded(f"evaluation exceeded {DEPTH_CAP} steps")
        if d.__class__ is Sum:
            # J(a+e, gamma) = J(e, J(a, gamma)), folded left to right; the
            # last summand is the child
            clause, child, value = "composition", d.parts[-1], gamma
            for part in d.parts:
                value = yield part, value
        elif d.__class__ is MulOmega:
            # J(B*k, gamma) = J(B, J(B*(k-1), gamma)): sample k iterates J(B, .)
            # k times from gamma, one step each, so no member B*k is built
            values = [gamma]
            while len(values) < analysis.LIMIT_SAMPLES:
                values.append((yield d.base, values[-1]))
            clause, child, value = "limit", d.base, _limit_sup(d, values.__getitem__)
        else:
            facts = self.facts.get(d)
            if facts is None:
                dec = _normalized(d, decompose(d))
                first = separate(dec, self.first_cut) if dec.kind == "succ" else None
                facts = self.facts[d] = (dec, [], first)
            dec, members, first = facts
            if dec.kind == "limit":
                # _limit_sup's sample count, in order: member k is built on first demand
                values = []
                for k in range(analysis.LIMIT_SAMPLES):
                    if k == len(members):
                        members.append(dec.fund(k))
                    values.append((yield members[k], gamma))
                clause, child, value = "limit", members[-1], _limit_sup(d, values.__getitem__)
            else:
                alpha = yield first, gamma
                clause, child = "separation", separate(dec, alpha)
                value = ord_add(alpha, (yield child, gamma))
        yield JStep(d, gamma, clause, child, value)


def _run(d: Dil, gamma: Ord, variant: str) -> JResult:
    # J separates at 0, the primed variant at omega
    session = _Session(ZERO if variant == "j" else OMEGA)
    value = session.eval(d, gamma)
    eta = ord_add(value, ONE)
    xi = None
    try:
        xi = ord_add(otp_symbolic(d, ord_omega_pow(ord_add(ONE, eta))), ONE)
    except FRAGMENT_ERRORS:
        pass
    steps = tuple(session.memo.values())
    return JResult(d, gamma, variant, value, eta, xi, steps)


def j_eval(d: Dil, gamma: Ord) -> JResult:
    return _run(d, gamma, "j")


def jprime_eval(d: Dil, gamma: Ord) -> JResult:
    return _run(d, gamma, "jprime")


def jplus_eval(d: Dil, gamma: Ord) -> JResult:
    target = mk_omega_comp(mk_sum(d, D_ONE))
    res = _run(target, gamma, "jprime")
    return JResult(d, res.gamma, "jplus", res.value, res.eta, res.xi, res.steps)


EVALUATORS = {"j": j_eval, "jprime": jprime_eval, "jplus": jplus_eval}


class GuardAudit(Frozen):
    def __init__(self, value_identical: bool, enlarged_eta: Ord, steps_checked: int,
                 rank_violations: tuple, unranked_steps: int):
        _set(self, "value_identical", value_identical)
        _set(self, "enlarged_eta", enlarged_eta)
        _set(self, "steps_checked", steps_checked)
        _set(self, "rank_violations", rank_violations)
        _set(self, "unranked_steps", unranked_steps)


def j_guard_report(result: JResult) -> GuardAudit:
    """Re-evaluate under ``DEPTH_CAP``, then re-check the ranks of every
    recorded edge under two guards, ranking each expression once per guard.

    An edge must lower the rank ``otp_symbolic(-, omega^(1+eta))`` strictly,
    except a composition edge: it descends to the last summand of its
    parent, a proper subterm, whose rank may equal the parent's
    (``otp(1+Id, w^(1+eta)) = otp(Id, w^(1+eta))``), so it is checked as
    that descent with a rank that does not rise.
    """
    revalue = EVALUATORS[result.variant](result.expr, result.gamma).value
    enlarged = ord_add(result.eta, OMEGA)
    violations, unranked, checked = [], 0, 0
    for eta in (result.eta, enlarged):
        probe = ord_omega_pow(ord_add(ONE, eta))
        ranks = {}

        def rank(d):
            if d not in ranks:
                try:
                    ranks[d] = otp_symbolic(d, probe)
                except FRAGMENT_ERRORS:
                    ranks[d] = None
            return ranks[d]

        for step in result.steps:
            if step.child is None:
                continue
            checked += 1
            parent_rank = rank(step.parent)
            child_rank = rank(step.child) if parent_rank is not None else None
            if child_rank is None:
                unranked += 1
                continue
            if step.clause == "composition":
                ok = (
                    isinstance(step.parent, Sum)
                    and step.child == step.parent.parts[-1]
                    and child_rank <= parent_rank
                )
            else:
                ok = child_rank < parent_rank
            if not ok:
                violations.append(
                    (to_str(step.parent), to_str(step.child), str(eta))
                )
    return GuardAudit(
        value_identical=revalue == result.value,
        enlarged_eta=enlarged,
        steps_checked=checked,
        rank_violations=tuple(violations),
        unranked_steps=unranked,
    )
