"""Acceptance gate: one suite per criterion, a pass/fail line for each."""

import time

from dilcalc.suites import CheckReport, run_check


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
