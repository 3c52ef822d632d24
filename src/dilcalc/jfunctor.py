"""Guarded-recursive evaluation of the ordinal functors J, J' and J+.

The evaluator recurses along the classification: type 0 returns the
argument, type 1 adds one, limit types take the exact supremum along the
fundamental sequence of partial sums, and top-type expressions split as
alpha + beta through separation of variables (J separates at 0, the primed
variant at omega).  Guards are certificates computed after the fact: eta
bounds the value, xi bounds the order type at omega^(1+eta), and the audit
re-checks that recorded recursion steps strictly decrease in rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import classify, otp_symbolic
from .errors import DepthExceeded, FRAGMENT_ERRORS, GuardViolation, UnsupportedLimit
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

STEP_CAP = 4000


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
    def __init__(self, variant: str, depth_cap: int = 10000):
        self.variant = variant
        self.memo = {}
        self.steps = []
        self.calls = 0
        self.depth_cap = depth_cap

    def record(self, parent, clause, child, value):
        if len(self.steps) < STEP_CAP:
            self.steps.append(JStep(parent, clause, child, value))

    def eval(self, d: Dil, gamma: Ord) -> Ord:
        key = (d, gamma)
        if key in self.memo:
            return self.memo[key]
        self.calls += 1
        if self.calls > self.depth_cap:
            raise DepthExceeded(f"evaluation exceeded {self.depth_cap} steps")
        if isinstance(d, Const):
            # closed form: unfolding the successor and limit clauses along a
            # constant gives gamma + value; keeps nested limits tractable
            value = ord_add(gamma, d.value)
            self.record(d, "constant", None, value)
            self.memo[key] = value
            return value
        rest, last = _split_trailing(d)
        if rest is not None and isinstance(last, Const):
            # composition along the last summand; same closed form
            value = ord_add(self.eval(rest, gamma), last.value)
            self.record(d, "constant-tail", rest, value)
            self.memo[key] = value
            return value
        tc = classify(d)
        if tc.kind == "0":
            value = gamma
            self.record(d, "empty", None, value)
        elif tc.kind == "1":
            sub = self.eval(tc.pred, gamma)
            value = ord_add(sub, ONE)
            self.record(d, "successor", tc.pred, value)
        elif tc.kind == "omega":
            values, last_child = [], None
            for k in range(LIMIT_SAMPLES):
                child = tc.fund_seq(k)
                last_child = child
                values.append(self.eval(child, gamma))
            for a, b in zip(values, values[1:]):
                if a > b:
                    raise GuardViolation(
                        f"partial-sum values decreased under {to_str(d)}"
                    )
            value = _sup_with_transients(values)
            self.record(d, "limit", last_child, value)
        else:
            first_cut = ZERO if self.variant == "j" else OMEGA
            d_first = tc.sep_fn(first_cut)
            alpha = self.eval(d_first, gamma)
            d_second = tc.sep_fn(alpha)
            beta = self.eval(d_second, gamma)
            value = ord_add(alpha, beta)
            self.record(d, "separation", d_second, value)
        self.memo[key] = value
        return value


def _sup_with_transients(values):
    """Supremum of sampled values, tolerating a short initial transient."""
    if len(values) >= 3 and all(v == values[-1] for v in values[-3:]):
        return values[-1]
    last_error = None
    for drop in range(0, min(3, len(values) - 3) + 1):
        try:
            return ord_sup_of_sequence(values[drop:])
        except UnsupportedLimit as exc:
            last_error = exc
    raise last_error


def _run(d: Dil, gamma: Ord, variant: str, depth_cap: int = 10000) -> JResult:
    session = _Session(variant, depth_cap)
    value = session.eval(d, gamma)
    eta = ord_add(value, ONE)
    xi = None
    try:
        xi = ord_add(otp_symbolic(d, ord_omega_pow(ord_add(ONE, eta))), ONE)
    except FRAGMENT_ERRORS:
        pass
    return JResult(d, gamma, variant, value, eta, xi, tuple(session.steps))


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
    revalue: Ord
    eta: Ord
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
        revalue=revalue,
        eta=result.eta,
        enlarged_eta=enlarged,
        steps_checked=checked,
        rank_violations=tuple(violations),
        unranked_steps=unranked,
    )
