"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every criterion is checked at its stated tolerance; a failing criterion
prints FAIL before raising so the summary line always appears in output.
"""

import math

from mpmath import mp, mpf

from polydgamma import (
    Grid,
    PolyDoubleArg,
    audit_identities,
    check_F_cm,
    check_G_convexity,
    check_cauchy_schwarz,
    check_hankel_cm,
    check_lemma_I1,
    check_ratio_bounds,
    check_subadditivity,
    check_turan,
    lemma_I1_value,
    polygamma,
    psi2_asymptotic,
    psi2_cached,
    psi2_didouble,
    psi2_from_polygamma,
    psi2_integral,
    psi2_series,
)

GRID_N = range(2, 7)
GRID_X = [mpf(s) for s in ("0.3", "0.5", "1", "2", "5", "10")]


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_cross_method_agreement():
    ok = True
    for n in GRID_N:
        for x in GRID_X:
            arg = PolyDoubleArg(n, x)
            s = psi2_series(arg).value
            ok &= abs(s - psi2_from_polygamma(arg).value) <= 1e-10
            ok &= abs(s - psi2_integral(arg).value) <= 1e-8
    _verdict(1, "cross-method agreement", ok)


def test_criterion_02_anchor_values():
    ok = abs(psi2_series(PolyDoubleArg(2, 1)).value + mp.pi ** 2 / 3) <= 1e-10
    ok &= abs(psi2_series(PolyDoubleArg(3, 1)).value - 6 * mp.zeta(3)) <= 1e-10
    expect = mpf(1) / 2 - mp.log(2 * mp.pi) / 2 + 1 + mp.euler
    ok &= abs(psi2_didouble(1).value - expect) <= 1e-10
    _verdict(2, "anchor values", ok)


def test_criterion_03_recurrence_residual():
    ok = True
    for n in GRID_N:
        for x in GRID_X:
            res = (
                psi2_series(PolyDoubleArg(n, x + 1)).value
                + polygamma(n, x).value
                - psi2_series(PolyDoubleArg(n, x)).value
            )
            ok &= abs(res) <= 1e-10
    _verdict(3, "recurrence residual", ok)


def test_criterion_04_limit_theorem():
    def scaled(n, x):
        return float(mpf(x) ** (n - 1) * psi2_cached(n, mpf(x)).value)

    ok = abs(scaled(2, 1e4) + 1) <= 2e-4
    ok &= abs(scaled(2, 4e4) + 1) <= 5e-5
    for n in (3, 4):
        limit = (-1) ** (n - 1) * math.factorial(n - 2)
        # Tolerance = 2x the next-order term (n-1)!/x of the scaled value,
        # matching the factor used by the n = 2 case above.
        ok &= abs(scaled(n, 1e4) - limit) <= 2e-4 * math.factorial(n - 1)
    _verdict(4, "limit theorem", ok)


def test_criterion_05_F_sharpness():
    grid = Grid(0.05, 50.0, 25, "log")
    ok = True
    for n in (3, 4, 5):
        lo, hi = (n - 2) / (n - 1), n / (n + 1)
        ok &= check_F_cm(n, lo, 6, grid).passed
        ok &= check_F_cm(n, hi, 6, grid).passed
        mid = check_F_cm(n, (lo + hi) / 2, 6, grid)
        ok &= (not mid.passed) and bool(mid.counterexamples)
    _verdict(5, "F-pattern sharpness", ok)


def test_criterion_06_ratio_bounds():
    ok = True
    for n in range(3, 7):
        r = check_ratio_bounds(n, Grid(0.05, 1e4, 40, "log"))
        ok &= r.passed

        def ratio(x):
            x = mpf(x)
            return float(
                psi2_cached(n, x).value ** 2
                / (psi2_cached(n - 1, x).value * psi2_cached(n + 1, x).value)
            )

        ok &= abs(ratio(1e4) - (n - 2) / (n - 1)) <= 1e-3
        ok &= abs(ratio(0.05) - n / (n + 1)) <= 5e-2
    _verdict(6, "ratio bounds with sharpness trend", ok)


def test_criterion_07_lemma_I1_negative():
    ok = True
    for n in (3, 4):
        r = check_lemma_I1(n, Grid(1.01, 1.99, 100, "linear"), tol=1e-9)
        ok &= r.passed and not r.counterexamples
        for a in ("0.1", "5", "20"):
            q = lemma_I1_value(n, mpf(a), tol=1e-9)
            ok &= float(q.value) < -10 * q.error
    _verdict(7, "I1 negativity", ok)


def test_criterion_08_inequality_suite():
    ok = check_turan(2, Grid(0.05, 4.0, 60, "linear")).passed
    for n, r_off in ((2, 1), (2, 0), (3, 0), (3, 1)):
        rep = check_subadditivity(n, r_off, 2.0, 150, 0)
        ok &= rep.passed and not rep.counterexamples
    for r_exp in (1.0, 2.0, -0.2, -0.6):
        rep = check_G_convexity(3, r_exp, Grid(0.1, 20.0, 50, "log"))
        ok &= rep.passed and not rep.counterexamples
    ok &= check_cauchy_schwarz(3, Grid(0.05, 50.0, 50, "log")).passed
    for n in (2, 3):
        for j in (1, 2):
            for m in (1, 2, 3):
                rep = check_hankel_cm(n, j, m, 1, Grid(0.05, 50.0, 30, "log"))
                ok &= rep.passed and not rep.counterexamples
    _verdict(8, "inequality suite", ok)


def test_criterion_09_asymptotic_identity():
    ok = True
    for n in range(2, 6):
        for x in (1, 2, 5, 10, 20):
            for N in (2, 4, 6):
                ref = psi2_series(PolyDoubleArg(n, mpf(x) + 1)).value
                asym = psi2_asymptotic(PolyDoubleArg(n, mpf(x)), N).value
                ok &= abs(ref - asym) <= 1e-9
    _verdict(9, "asymptotic identity with remainder", ok)


def test_criterion_10_audit_partition():
    entries = audit_identities()
    confirmed = {e.identity_id for e in entries if e.status == "confirmed"}
    discrepant = {e.identity_id for e in entries if e.status == "discrepancy"}
    ok = len(confirmed) >= 5
    ok &= {"tau-printed-form", "sigma-printed-form", "vigneras-constant",
           "remark-zeta-half-argument"} <= discrepant
    ok &= confirmed == {
        "integral-representation",
        "polygamma-relation",
        "zeta-closed-form",
        "recurrence",
        "lagrange-expansion",
        "asymptotic-derived-identity",
    }
    ok &= discrepant == {
        "sigma-printed-form",
        "tau-printed-form",
        "remark-zeta-half-argument",
        "remark-polygamma-half-argument",
        "vigneras-constant",
        "didouble-integral-normalization",
        "hankel-remark-reading",
    }
    ok &= all(
        e.max_deviation > 1e-6 for e in entries if e.status == "discrepancy"
    )
    _verdict(10, "identity audit partition", ok)
