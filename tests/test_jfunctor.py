import hashlib
import random

import pytest

from dilcalc.errors import DilcalcError, OutOfNotation
from dilcalc.expr import Band, D_ID, mk_mul_nat, mk_shift, mk_sum, parse_dil, to_str
from dilcalc.jfunctor import EVALUATORS, j_eval, j_guard_report, jplus_eval, jprime_eval
from dilcalc.ordinal import OMEGA, ZERO, from_int, ord_str, parse_ord
from dilcalc.suites import J_SUITE

w = OMEGA


def J(text, gamma):
    return ord_str(j_eval(parse_dil(text), parse_ord(gamma)).value)


def JP(text, gamma):
    return ord_str(jprime_eval(parse_dil(text), parse_ord(gamma)).value)


def JPL(text, gamma):
    return ord_str(jplus_eval(parse_dil(text), parse_ord(gamma)).value)


class TestBaseValues:
    def test_empty(self):
        assert J("0", "w") == "w"

    def test_unit(self):
        assert J("1", "w") == "w+1"

    def test_identity(self):
        # alpha = w through the zero cut, beta = w*2 on the frozen constant
        assert J("Id", "w") == "w*3"

    def test_constant_limit(self):
        assert J("Const(w)", "w") == "w*2"

    def test_repetition_of_units(self):
        assert J("1*w", "w") == "w*2"

    def test_primed_identity(self):
        assert JP("Id", "w") == "w*5"

    def test_primed_base_clauses_unchanged(self):
        assert JP("0", "w") == "w"
        assert JP("1", "w") == "w+1"

    def test_closure_empty(self):
        assert JPL("0", "w") == "w*2"

    def test_closure_unit(self):
        assert JPL("1", "w") == "w^2"

    def test_composed_head(self):
        assert J("omega[Id]", "w") == "w^(w+1)"

    def test_more_derived_values(self):
        assert J("Id+1", "w") == "w*3+1"
        assert J("Id*2", "w") == "w*9"
        assert J("Id*w", "w") == "w^2"
        assert JP("omega[Id]", "w") == "w^w^w"

    def test_closure_leaves_fragment_on_live_positions(self):
        for text in ["Id", "Id+1", "Id*2", "Id*w", "omega[Id]"]:
            with pytest.raises(OutOfNotation):
                jplus_eval(parse_dil(text), w)


class TestLaws:
    SUITE = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "Id*2", "omega[Id]"]

    def test_determinism(self):
        for text in self.SUITE:
            d = parse_dil(text)
            assert j_eval(d, w).value == j_eval(d, w).value

    def test_clause_reverification(self):
        from dilcalc.analysis import classify, sep
        from dilcalc.ordinal import ord_add

        for text in self.SUITE:
            d = parse_dil(text)
            value = j_eval(d, w).value
            tc = classify(d)
            if tc.kind == "0":
                assert value == w
            elif tc.kind == "1":
                assert value == ord_add(j_eval(tc.pred, w).value, parse_ord("1"))
            elif tc.kind == "Omega":
                alpha = j_eval(sep(d, parse_ord("0")), w).value
                beta = j_eval(sep(d, alpha), w).value
                assert value == ord_add(alpha, beta)
            else:
                samples = [j_eval(tc.fund_seq(k), w).value for k in range(6)]
                assert all(W <= value for W in samples)
                assert all(v < value or v == value for v in samples)

    def test_composition(self):
        pairs = [
            ("Id", "Id"), ("Id", "Const(w)"), ("Const(w)", "Id"),
            ("omega[Id]", "Id"), ("1", "omega[Id]"), ("Id*2", "Id+1"),
        ]
        for ds, es in pairs:
            d, e = parse_dil(ds), parse_dil(es)
            lhs = j_eval(mk_sum(d, e), w).value
            rhs = j_eval(e, j_eval(d, w).value).value
            assert lhs == rhs, (ds, es)

    def test_guard_audit(self):
        res = j_eval(parse_dil("Id"), w)
        audit = j_guard_report(res)
        assert audit.value_identical
        assert not audit.rank_violations
        assert audit.steps_checked > 0

    def test_guard_audit_trivial(self):
        res = j_eval(parse_dil("0"), w)
        assert all(s.child is None for s in res.steps)
        assert j_guard_report(res).ok

    def test_guard_audit_ranks_partial_sums(self):
        res = j_eval(parse_dil("Id*w"), w)
        limit_edges = [s for s in res.steps if s.clause == "limit" and s.child is not None]
        assert limit_edges
        audit = j_guard_report(res)
        assert audit.ok and audit.steps_checked > 0

    def test_depth_cap_configurable(self):
        from dilcalc.errors import DepthExceeded

        with pytest.raises(DepthExceeded):
            j_eval(parse_dil("Id*w"), w, depth_cap=3)

    def test_guards_bound_value_and_rank(self):
        from dilcalc.analysis import otp_symbolic
        from dilcalc.ordinal import ONE, ord_add, ord_omega_pow

        for text in ["Id", "omega[Id]", "Const(w)"]:
            res = j_eval(parse_dil(text), w)
            assert res.value < res.eta
            if res.xi is not None:
                probe = ord_omega_pow(ord_add(ONE, res.eta))
                assert otp_symbolic(res.expr, probe) < res.xi

    def test_primed_below_eightfold(self):
        for text in ["Id", "Const(w)", "omega[Id]", "Id+1", "Id*2"]:
            d = parse_dil(text)
            for gs in ["w", "w^2"]:
                g = parse_ord(gs)
                assert jprime_eval(d, g).value <= j_eval(mk_mul_nat(d, 8), g).value

    def test_shift_robustness(self):
        for text in ["Id", "Const(w)", "omega[Id]", "1+Id"]:
            d = parse_dil(text)
            base = jprime_eval(d, w).value
            for n in (1, 2, 3, 4):
                assert jprime_eval(mk_shift(d, from_int(n)), w).value == base

    def test_monotonicity(self):
        small = j_eval(parse_dil("Id"), w).value
        assert small <= j_eval(parse_dil("Id+1"), w).value
        assert small <= j_eval(parse_dil("Id"), parse_ord("w*2")).value
        assert (
            j_eval(parse_dil("Id*2"), w).value <= j_eval(parse_dil("Id*3"), w).value
        )


def _render(name, d, gs, evaluator, depth_cap=10000):
    """Value, guards, full step log and guard audit of one evaluation, or
    its refusal as ``type: message``."""
    head = f"{name} {to_str(d)} @ {gs}"
    try:
        res = evaluator(d, parse_ord(gs), depth_cap=depth_cap)
    except DilcalcError as exc:
        return [f"{head} ! {type(exc).__name__}: {exc}"]
    xi = ord_str(res.xi) if res.xi is not None else None
    lines = [f"{head} = {ord_str(res.value)} eta={ord_str(res.eta)} xi={xi}"]
    for s in res.steps:
        child = to_str(s.child) if s.child is not None else "-"
        lines.append(f"  [{s.clause}] {to_str(s.parent)} <- {child} = {ord_str(s.value)}")
    audit = j_guard_report(res)
    lines.append(
        f"  audit {audit.value_identical} {ord_str(audit.enlarged_eta)} "
        f"{audit.steps_checked} {audit.rank_violations} {audit.unranked_steps}"
    )
    return lines


class TestStepLog:
    ATOMS = ["0", "1", "Const(3)", "Const(w)", "Id", "Id+1", "Id*2", "Id*w",
             "omega[Id]", "Const(w)+Id", "omega[Id*2]", "1*w", "(Id*w)*w"]
    GAMMAS = ["0", "1", "w", "w^2"]

    @classmethod
    def grid(cls):
        """(name, expr, gamma, evaluator, depth_cap) over seeded sums of
        atoms, plus two raw bands of Id: parsed expressions do not reach
        the empty and successor clauses, these bands do."""
        rng = random.Random(2024)
        texts = list(cls.ATOMS) + [
            "+".join(rng.choice(cls.ATOMS) for _ in range(rng.randint(2, 3)))
            for _ in range(16)
        ]
        cases = []
        for i, text in enumerate(texts):
            d, gs = parse_dil(text), cls.GAMMAS[i % len(cls.GAMMAS)]
            cases += [(name, d, gs, fn, 10000) for name, fn in EVALUATORS.items()]
        two = parse_ord("2")
        for band in (Band(D_ID, OMEGA, OMEGA, OMEGA), Band(D_ID, ZERO, two, two)):
            cases += [(name, band, "w", EVALUATORS[name], 10000) for name in ("j", "jprime")]
        cases.append(("j", parse_dil("Id*w"), "w", j_eval, 3))
        return cases

    def test_fingerprint(self):
        # count and sha1 of the rendered grid, taken while the step log was
        # still a list beside the memo
        lines = []
        for case in self.grid():
            lines += _render(*case)
        text = "\n".join(lines)
        clauses = {line[3:line.index("]")] for line in lines if line.startswith("  [")}
        assert clauses == {"constant", "constant-tail", "empty", "successor", "limit",
                           "separation"}
        assert any("! OutOfNotation" in line for line in lines)
        assert any("! DepthExceeded" in line for line in lines)
        assert len(lines) == 1320
        assert hashlib.sha1(text.encode()).hexdigest() == "1f7adb9ec94c42112e31185fe735f2f663917fe2"

    @pytest.mark.parametrize("gs", ["0", "w", "w^2"])
    def test_shape(self, gs):
        for text in J_SUITE:
            for evaluator in (j_eval, jprime_eval):
                res = evaluator(parse_dil(text), parse_ord(gs))
                parents = [s.parent for s in res.steps]
                assert len(set(parents)) == len(parents), text
                assert parents[-1] == res.expr, text
                seen = set()
                for s in res.steps:
                    assert s.child is None or s.child in seen, (text, to_str(s.child))
                    seen.add(s.parent)

    def test_long_log_is_complete(self):
        # the log has no cap of its own below depth_cap
        res = j_eval(parse_dil("Id*w*w*w*w"), OMEGA)
        assert ord_str(res.value) == "w^w^3"
        assert len(res.steps) == 5203
        assert res.steps[-1].parent == res.expr
