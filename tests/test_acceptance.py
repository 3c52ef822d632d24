"""Acceptance gate: one suite per criterion, a pass/fail line for each."""

import time

from dilcalc.suites import CheckReport, run_check


# what ``dilcalc check all`` prints per suite besides the timed detail lines:
# the passed count and the skip lines, in order
_GAMMAS = ("w", "w^2")
PRINTED = {
    "j-exact": (8, []),
    "psi-values": (17, []),
    "bound-theorem": (6, [
        f"closure side of ({d},{g}): OutOfNotation"
        for d in ("Id", "Id+1", "Id*2", "Id*w") for g in _GAMMAS
    ]),
    "j-laws": (6, [
        f"closure ({d},{g}): OutOfNotation"
        for d in ("Id", "1+Id", "Const(w)+Id", "omega[Id]", "omega[Id*2]", "Id*2")
        for g in _GAMMAS
    ]),
    "coherence": (145, []),
    "order-sanity": (63, []),
    "wellfounded-fuzz": (3, []),
}


def _run(name, budget_seconds, **opts):
    start = time.time()
    reports = run_check(name, **opts)
    duration = time.time() - start
    ok = all(r.ok for r in reports)
    checks = sum(len(r.details) for r in reports)
    skips = sum(len(r.skips) for r in reports)
    violations = [v for r in reports for v in r.violations]
    print(
        f"{'PASS' if ok else 'FAIL'} {name}: {checks} checks, {skips} skips, "
        f"{len(violations)} violations in {duration:.1f}s"
    )
    for v in violations:
        print(f"    violation: {v}")
    assert ok, violations
    assert duration < budget_seconds, f"{name} exceeded {budget_seconds}s"
    passed, skip_lines = PRINTED[name]
    assert (checks, skips) == (passed, len(skip_lines))
    assert [line for r in reports for line in r.skips] == skip_lines
    return reports


def test_criterion_1_exact_values():
    _run("j-exact", 10)


def test_criterion_2_collapse_values():
    _run("psi-values", 10)


def test_criterion_3_bound_theorem():
    reports = _run("bound-theorem", 30)
    # the curated pairs must all be attempted; out-of-fragment sides are
    # recorded as skips, never silently dropped
    attempted = sum(len(r.details) + len(r.skips) for r in reports)
    assert attempted == 14


def test_criterion_4_functor_laws():
    _run("j-laws", 120)


def test_criterion_5_coherence():
    _run("coherence", 120, prefix=200)


def test_criterion_6_order_sanity():
    _run("order-sanity", 120)


def test_criterion_7_wellfoundedness():
    _run("wellfounded-fuzz", 60, trials=10000, depth=30, seed=2024)


def test_run_check_times_each_suite(monkeypatch):
    def slow(**_opts):
        time.sleep(0.01)
        return CheckReport("slow")

    monkeypatch.setattr("dilcalc.suites.CHECKS", {"slow": slow, "also-slow": slow})
    for name in ("slow", "all"):
        reports = run_check(name)
        assert reports and all(r.duration >= 0.01 for r in reports)


def test_separated_pool_is_of_type_omega():
    # the closure and rank-decrease checks separate its members untested
    from dilcalc.analysis import classify
    from dilcalc.expr import parse_dil
    from dilcalc.suites import OMEGA_TYPE_SUITE

    assert {classify(parse_dil(s)) for s in OMEGA_TYPE_SUITE} == {"Omega"}


def test_functor_law_refusals_are_recorded_as_skips(monkeypatch):
    import dilcalc.suites as suites
    from dilcalc.errors import OutOfNotation
    from dilcalc.expr import parse_dil
    from dilcalc.ordinal import parse_ord

    def refusing(name, ds, gs):
        refused, real = (parse_dil(ds), parse_ord(gs)), getattr(suites, name)

        def fn(d, g):
            if (d, g) == refused:
                raise OutOfNotation("refused on one input")
            return real(d, g)

        monkeypatch.setattr(suites, name, fn)

    refusing("j_eval", "Id*2", "w")
    refusing("jprime_eval", "omega[Id]", "w^2")
    refusing("jplus_eval", "Const(w)", "w")
    refusing("psi_clause_otp", "Id*w", "w^2")
    refusing("sep", "1+Id", "1")
    rep = suites.check_j_laws()
    assert rep.ok, rep.violations
    for line in ["composition (0,Id*2,w): OutOfNotation",
                 "audit (Id*2,w): OutOfNotation",
                 "monotonicity (Id*2,Const(w),w,w): OutOfNotation",
                 "monotonicity (Id*1): OutOfNotation",
                 "properties (Id*2,w): OutOfNotation",
                 "(c) (1+Id,0): OutOfNotation",
                 "(e) (Id*2,Id): OutOfNotation",
                 "eightfold (omega[Id],w^2): OutOfNotation",
                 "shift robustness (omega[Id],1,w^2): OutOfNotation",
                 "closure (omega[Id],w): OutOfNotation"]:
        assert line in rep.skips
    assert rep.skips[-12:] == PRINTED["j-laws"][1]
    rep = suites.check_bound_theorem()
    assert rep.ok, rep.violations
    assert "closure side of (Const(w),w): OutOfNotation" in rep.skips
    assert "psi side of (Id*w,w^2): OutOfNotation" in rep.skips
    rep = suites.check_order_sanity()
    assert rep.ok, rep.violations
    assert rep.skips == ["rank decrease (1+Id,1): OutOfNotation"]
