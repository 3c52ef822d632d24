"""Guarded-recursive evaluation of the ordinal functors J, J' and J+.

The evaluator recurses along the classification: type 0 returns the
argument, type 1 adds one, limit types take the exact supremum along the
fundamental sequence of partial sums, and top-type expressions split as
alpha + beta through separation of variables (J separates at 0, the primed
variant at omega).  Each evaluated sub-expression is recorded once, as a
``JStep`` with its clause, the child it recursed into last and its value;
``JResult.steps`` lists every one of them in post-order, root last, with no
cap beyond the session's ``depth_cap``.  Guards are certificates computed
after the fact: eta bounds the value, xi bounds the order type at
omega^(1+eta), and the audit re-checks that every recorded step strictly
decreases in rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import classify, otp_symbolic
from .errors import DepthExceeded, FRAGMENT_ERRORS, GuardViolation
from .expr import Const, D_ONE, Dil, _split_trailing, mk_omega_comp, mk_sum, to_str
from .ordinal import (
    LIMIT_SAMPLES,
    OMEGA,
    ONE,
    ZERO,
    Ord,
    ord_add,
    ord_omega_pow,
    ord_sup_of_sequence,
)


@dataclass(frozen=True)
class JStep:
    parent: Dil
    clause: str
    child: Optional[Dil]
    value: Ord


@dataclass(frozen=True)
class JResult:
    expr: Dil
    gamma: Ord
    variant: str
    value: Ord
    eta: Ord
    xi: Optional[Ord]
    steps: tuple

    def __post_init__(self):
        if self.value >= self.eta:
            raise ValueError("guard eta must exceed the value")


class _Session:
    """One guarded recursion of J or J' at one argument gamma.

    Every recursive call passes the session's gamma unchanged, so gamma is
    fixed here and the memo is keyed by the expression alone.  The memo is
    also the step log: it maps each evaluated expression to its ``JStep``,
    stored once its children are done, so insertion order is post-order and
    the root comes last.  ``depth_cap`` bounds the number of entries.
    """

    def __init__(self, gamma: Ord, first_cut: Ord, depth_cap: int = 10000):
        self.gamma = gamma
        self.first_cut = first_cut
        self.memo = {}
        self.calls = 0
        self.depth_cap = depth_cap

    def eval(self, d: Dil) -> Ord:
        step = self.memo.get(d)
        if step is not None:
            return step.value
        self.calls += 1
        if self.calls > self.depth_cap:
            raise DepthExceeded(f"evaluation exceeded {self.depth_cap} steps")
        child = None
        if isinstance(d, Const):
            # closed form: unfolding the successor and limit clauses along a
            # constant gives gamma + value; keeps nested limits tractable
            clause, value = "constant", ord_add(self.gamma, d.value)
        else:
            rest, last = _split_trailing(d)
            tc = None if rest is not None and isinstance(last, Const) else classify(d)
            if tc is None:
                # composition along the last summand; same closed form
                clause, child = "constant-tail", rest
                value = ord_add(self.eval(rest), last.value)
            elif tc.kind == "0":
                clause, value = "empty", self.gamma
            elif tc.kind == "1":
                clause, child = "successor", tc.pred
                value = ord_add(self.eval(child), ONE)
            elif tc.kind == "omega":
                clause, values = "limit", []
                for k in range(LIMIT_SAMPLES):
                    child = tc.fund_seq(k)
                    values.append(self.eval(child))
                for a, b in zip(values, values[1:]):
                    if a > b:
                        raise GuardViolation(
                            f"partial-sum values decreased under {to_str(d)}"
                        )
                value = ord_sup_of_sequence(values)
            else:
                alpha = self.eval(tc.sep_fn(self.first_cut))
                clause, child = "separation", tc.sep_fn(alpha)
                value = ord_add(alpha, self.eval(child))
        self.memo[d] = JStep(d, clause, child, value)
        return value


def _run(d: Dil, gamma: Ord, variant: str, depth_cap: int = 10000) -> JResult:
    # J separates at 0, the primed variant at omega
    session = _Session(gamma, ZERO if variant == "j" else OMEGA, depth_cap)
    value = session.eval(d)
    eta = ord_add(value, ONE)
    xi = None
    try:
        xi = ord_add(otp_symbolic(d, ord_omega_pow(ord_add(ONE, eta))), ONE)
    except FRAGMENT_ERRORS:
        pass
    return JResult(d, gamma, variant, value, eta, xi, tuple(session.memo.values()))


def j_eval(d: Dil, gamma: Ord, depth_cap: int = 10000) -> JResult:
    return _run(d, gamma, "j", depth_cap)


def jprime_eval(d: Dil, gamma: Ord, depth_cap: int = 10000) -> JResult:
    return _run(d, gamma, "jprime", depth_cap)


def jplus_eval(d: Dil, gamma: Ord, depth_cap: int = 10000) -> JResult:
    target = mk_omega_comp(mk_sum(d, D_ONE))
    result = _run(target, gamma, "jprime", depth_cap)
    return JResult(d, gamma, "jplus", result.value, result.eta, result.xi, result.steps)


EVALUATORS = {"j": j_eval, "jprime": jprime_eval, "jplus": jplus_eval}


@dataclass(frozen=True)
class GuardAudit:
    value_identical: bool
    enlarged_eta: Ord
    steps_checked: int
    rank_violations: tuple
    unranked_steps: int

    @property
    def ok(self) -> bool:
        return self.value_identical and not self.rank_violations


def j_guard_report(result: JResult) -> GuardAudit:
    """Re-evaluate under enlarged guards and re-check rank decrease."""
    revalue = EVALUATORS[result.variant](result.expr, result.gamma).value
    enlarged = ord_add(result.eta, OMEGA)
    violations, unranked, checked = [], 0, 0
    for eta in (result.eta, enlarged):
        probe = ord_omega_pow(ord_add(ONE, eta))
        for step in result.steps:
            if step.child is None:
                continue
            checked += 1
            try:
                parent_rank = otp_symbolic(step.parent, probe)
                child_rank = otp_symbolic(step.child, probe)
            except FRAGMENT_ERRORS:
                unranked += 1
                continue
            if not child_rank < parent_rank:
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
