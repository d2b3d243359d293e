"""Theorem-check machinery and the identity audit."""

import json
import math
from dataclasses import asdict

import pytest
from mpmath import mpf

from polydgamma import (
    CheckReport,
    DomainError,
    FParams,
    GParams,
    Grid,
    HankelParams,
    SubAddParams,
    audit_identities,
    check_F_cm,
    check_G_convexity,
    check_cauchy_schwarz,
    check_cm,
    check_hankel_cm,
    check_lemma_I1,
    check_ratio_bounds,
    check_subadditivity,
    check_turan,
    lemma_I1_value,
)
from polydgamma.verify import (
    _det_with_condition,
    _hankel_matrix,
    _lagrange_brute_force,
    _ReportBuilder,
)

SMALL = Grid(0.1, 10.0, 20, "log")

# Independent 50-digit oracle for I_1(1.5; 3) (frozen).
I1_ORACLE = "-1.0731032382980190504"
# Hankel determinant anchor at n=2, j=1, m=1, y=1 computed from the frozen
# psi2 oracles: psi2^(2) psi2^(4) - (psi2^(3))^2.
HANKEL_ORACLE = "33.4389484630828953151"


class TestGrid:
    def test_invariants(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0)
        with pytest.raises(DomainError):
            Grid(2.0, 1.0)
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, count=1)
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, spacing="cubic")

    def test_endpoints_included(self):
        for spacing in ("linear", "log"):
            pts = Grid(0.5, 8.0, 5, spacing).points()
            assert abs(pts[0] - 0.5) < 1e-25 and abs(pts[-1] - 8.0) < 1e-20
            assert len(pts) == 5


class TestMonotonicityChecks:
    def test_cm_passes_with_strict_margins(self):
        # n = 3 up to depth 5 on (0, 2]: full sign alternation.
        r = check_cm(3, 5, Grid(0.05, 2.0, 30, "linear"))
        assert r.passed and not r.counterexamples
        assert all(w["status"] == "strict" for w in r.witnesses)

    def test_cm_domain(self):
        with pytest.raises(DomainError):
            check_cm(1, 3, SMALL)

    def test_turan(self):
        r = check_turan(2, Grid(0.05, 4.0, 40, "linear"))
        assert r.passed and not r.counterexamples

    def test_ratio_bounds_with_trend(self):
        r = check_ratio_bounds(3, Grid(0.05, 1e4, 40, "log"))
        assert r.passed
        # Drifts toward (n-2)/(n-1) at infinity, n/(n+1) at the origin.
        assert r.summary["ratio_inf"] > r.summary["lower_bound"]
        assert r.summary["ratio_sup"] < r.summary["upper_bound"]
        assert r.summary["ratio_inf"] - r.summary["lower_bound"] < 1e-3
        assert r.summary["upper_bound"] - r.summary["ratio_sup"] < 5e-2

    def test_ratio_bounds_strict_out_to_large_x(self):
        # The series' stop rule is relative to the sum, so its error stays
        # far below the tiny margins at x ~ 1e4.
        r = check_ratio_bounds(4, Grid(0.05, 1e4, 40, "log"))
        assert r.witnesses
        assert all(w["status"] != "inconclusive" for w in r.witnesses)


class TestFCheck:
    def test_boundary_omegas_pass(self):
        grid = Grid(0.05, 50.0, 15, "log")
        low = check_F_cm(FParams(3, 1 / 2, 4), grid)
        high = check_F_cm(FParams(3, 3 / 4, 4), grid)
        assert low.passed and high.passed

    def test_gap_fails_both_patterns(self):
        r = check_F_cm(FParams(3, 0.6, 3), Grid(0.05, 50.0, 15, "log"))
        assert not r.passed
        assert r.counterexamples
        assert set(r.summary["first_failure"]) == {"F", "-F"}

    def test_params_domain(self):
        with pytest.raises(DomainError):
            FParams(2, 0.5)
        with pytest.raises(DomainError):
            FParams(3, 0.5, derivative_depth=-1)


class TestLemmaI1:
    def test_oracle_value(self):
        q = lemma_I1_value(3, mpf("1.5"), tol=1e-10)
        assert abs(q.value - mpf(I1_ORACLE)) < 1e-10

    def test_negativity(self):
        for n in (3, 4):
            r = check_lemma_I1(n, Grid(1.01, 1.99, 10, "linear"))
            assert r.passed and not r.counterexamples

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma_I1_value(2, 1.0)


class TestSubadditivity:
    def test_odd_order_subadditive_with_sharp_bound(self):
        r = check_subadditivity(SubAddParams(2, 1, 2.0, 100, 0))
        assert r.passed
        labels = {w["label"] for w in r.witnesses}
        assert {"plain", "sharp", "midpoint"} <= labels

    def test_even_order_superadditive(self):
        r = check_subadditivity(SubAddParams(2, 0, 2.0, 100, 0))
        assert r.passed
        assert r.params["mode"] == "superadditive"

    def test_midpoint_attainment_exact(self):
        r = check_subadditivity(SubAddParams(3, 0, 1.5, 50, 0))
        mid = [w for w in r.witnesses if w["label"] == "midpoint"]
        assert len(mid) == 1 and mid[0]["status"] == "equality"
        assert abs(mid[0]["margin"]) < 1e-12

    def test_deterministic(self):
        a = check_subadditivity(SubAddParams(2, 1, 2.0, 60, 7))
        b = check_subadditivity(SubAddParams(2, 1, 2.0, 60, 7))
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_samples(self):
        a = check_subadditivity(SubAddParams(2, 1, 2.0, 60, 0))
        b = check_subadditivity(SubAddParams(2, 1, 2.0, 60, 1))
        assert a.to_dict() != b.to_dict()


class TestGConvexity:
    def test_positive_exponent_convex(self):
        r = check_G_convexity(GParams(3, 1.0), SMALL)
        assert r.passed and r.summary["expected"] == "convex"

    def test_small_negative_concave_superadditive(self):
        r = check_G_convexity(GParams(3, -0.2), SMALL)
        assert r.passed and r.summary["expected"] == "concave"
        assert r.summary["additive_mode"] == "superadditive"

    def test_large_negative_convex_subadditive(self):
        r = check_G_convexity(GParams(3, -0.6), SMALL)
        assert r.passed and r.summary["expected"] == "convex"
        assert r.summary["additive_mode"] == "subadditive"

    def test_gap_unasserted_shows_both_signs(self):
        r = check_G_convexity(GParams(3, -0.3), Grid(0.1, 10.0, 40, "log"))
        assert r.passed and r.summary["expected"] == "unasserted"
        assert set(r.summary["observed_signs"]) == {-1.0, 1.0}

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            GParams(3, 0.0)


class TestHankel:
    def test_anchor_determinant(self):
        det, _ = _det_with_condition(_hankel_matrix(HankelParams(2, 1, 1), mpf(1)))
        assert abs(det - mpf(HANKEL_ORACLE)) < 1e-15

    def test_sign_and_decrease(self):
        for params in (HankelParams(2, 1, 1), HankelParams(2, 1, 2),
                       HankelParams(3, 2, 1)):
            r = check_hankel_cm(params, 1, SMALL)
            assert r.passed and not r.counterexamples

    def test_order_cap(self):
        with pytest.raises(DomainError):
            HankelParams(2, 1, 5)

    def test_condition_reported(self):
        r = check_hankel_cm(HankelParams(2, 1, 2), 0, SMALL)
        assert r.summary["condition_estimate"] > 1.0


class TestCauchySchwarz:
    def test_pair(self):
        r = check_cauchy_schwarz(3, Grid(0.1, 20.0, 25, "log"))
        assert r.passed and not r.counterexamples
        labels = {w["label"] for w in r.witnesses}
        assert labels == {"direct", "reversed"}


class TestReportBuilder:
    def test_verdict_reads_the_mpf_margin(self):
        # The margin overflows a double but has the claimed sign.
        b = _ReportBuilder("cm", {})
        b.record([1e-300, 0], mpf("1e400"), 0.0, 1.0)
        b.record([1e-300, 1], 0.0, mpf("-1e400"), 1.0)
        report = b.done()
        assert report.passed and not report.counterexamples
        assert [w["status"] for w in report.witnesses] == ["strict", "strict"]

    def test_overflowing_wrong_sign_fails(self):
        b = _ReportBuilder("cm", {})
        b.record([1e-300, 0], mpf("-1e400"), 0.0, 1.0)
        assert not b.done().passed


class TestReportSerialization:
    def test_json_round_trip(self):
        r = check_turan(2, Grid(0.5, 3.0, 8, "linear"))
        d = json.loads(json.dumps(r.to_dict()))
        assert "tolerance" in d and "check_id" in d and "params" in d
        back = CheckReport.from_dict(d)
        assert asdict(back) == asdict(r)


EXPECTED_CONFIRMED = {
    "integral-representation",
    "polygamma-relation",
    "zeta-closed-form",
    "recurrence",
    "lagrange-expansion",
    "asymptotic-derived-identity",
}
EXPECTED_DISCREPANT = {
    "sigma-printed-form",
    "tau-printed-form",
    "remark-zeta-half-argument",
    "remark-polygamma-half-argument",
    "vigneras-constant",
    "didouble-integral-normalization",
    "hankel-remark-reading",
}


class TestLagrangeOracle:
    def test_matches_plain_double_loop(self):
        n, x, terms = 3, 1.0, 300
        u = [(1.0 + k) * (x + k) ** (-(n + 2.0)) for k in range(terms)]
        plain = math.fsum(
            (k - j) ** 2 * u[k] * u[j] for j in range(terms) for k in range(j)
        ) * float(math.factorial(n)) ** 2
        brute, _ = _lagrange_brute_force(n, x, terms)
        assert abs(brute - plain) <= 1e-12 * abs(plain)


class TestAudit:
    def test_exact_partition(self):
        entries = audit_identities()
        confirmed = {e.identity_id for e in entries if e.status == "confirmed"}
        discrepant = {e.identity_id for e in entries if e.status == "discrepancy"}
        assert confirmed == EXPECTED_CONFIRMED
        assert discrepant == EXPECTED_DISCREPANT

    def test_discrepancies_far_beyond_noise(self):
        for e in audit_identities():
            if e.status == "discrepancy":
                assert e.max_deviation > 1e-6, e.identity_id
            else:
                assert e.max_deviation < 1e-7, e.identity_id

    def test_deterministic(self):
        assert audit_identities() == audit_identities()
