"""Theorem-check machinery and the identity audit."""

import functools
import json
import math
from dataclasses import asdict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import (
    CheckReport,
    DomainError,
    Grid,
    PolyDoubleArg,
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
    psi2_series,
)
from polydgamma import verify
from polydgamma.specfun import Approx
from polydgamma.verify import (
    _FloatLookup,
    _hankel_claims,
    _lagrange_brute_force,
    _plain,
    _ReportBuilder,
    _ThirtyDigitLookup,
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
            Grid(0.0, 1.0, 2, "log")
        with pytest.raises(DomainError):
            Grid(2.0, 1.0, 2, "log")
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, 1, "log")
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, 2, "cubic")

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
        low = check_F_cm(3, 1 / 2, 4, grid)
        high = check_F_cm(3, 3 / 4, 4, grid)
        assert low.passed and high.passed

    def test_gap_fails_both_patterns(self):
        r = check_F_cm(3, 0.6, 3, Grid(0.05, 50.0, 15, "log"))
        assert not r.passed
        assert r.counterexamples
        assert set(r.summary["first_failure"]) == {"F", "-F"}

    def test_params_domain(self):
        with pytest.raises(DomainError):
            check_F_cm(2, 0.5, 6, SMALL)
        with pytest.raises(DomainError):
            check_F_cm(3, 0.5, -1, SMALL)


class TestLemmaI1:
    def test_oracle_value(self):
        q = lemma_I1_value(3, mpf("1.5"), tol=1e-10)
        assert abs(q.value - mpf(I1_ORACLE)) < 1e-10

    @pytest.mark.parametrize(
        "n,a",
        [(3, "1.5"), (4, "1.99"), (8, "1.01"), (3, "50.5"), (3, "120"), (10, "0.005"),
         (10, "300")],
    )
    def test_value_within_claim_of_sixty_digit_quad(self, n, a):
        # mp.quad at 60 digits, broken where the factor changes sign and
        # where a(1-u) = 40.  The claim is relative to the integral of the
        # magnitude, which at (10, 0.005) is 2e6 times |I_1|.  Without its
        # cut at a(1-u) = 40, lemma_I1_value is 9e-25 relative off at
        # (10, 300) and claims 1e-27.
        q = lemma_I1_value(n, mpf(a), tol=math.inf)
        with mp.workdps(60):
            a = mpf(a)

            def f(t):
                return t ** (n - 1) / -mp.expm1(-t) ** 2

            def integrand(u):
                return ((2 * n - 3) * u * u - 1) * f(a * (1 + u)) * f(a * (1 - u))

            cuts = {mpf(0), 1 / mp.sqrt(2 * n - 3), max(mpf(0), 1 - 40 / a), mpf(1)}
            ref = mp.quad(integrand, sorted(cuts))
            size = mp.quad(lambda u: abs(integrand(u)), sorted(cuts))
            assert abs(q.value - ref) <= q.error <= 1e-25 * size

    def test_negativity(self):
        for n in (3, 4):
            r = check_lemma_I1(n, Grid(1.01, 1.99, 10, "linear"), 1e-9)
            assert r.passed and not r.counterexamples

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma_I1_value(2, 1.0, 1e-9)
        with pytest.raises(DomainError):
            verify.lemma_I1_grid(2, np.array([1.0]))
        for tol in (0.0, -1.0):
            with pytest.raises(DomainError, match="tolerance must be positive"):
                check_lemma_I1(3, Grid(1.01, 1.99, 3, "linear"), tol=tol)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_grid_error_covers_thirty_digits(self, n):
        a = np.logspace(np.log10(0.05), 1.0, 9)
        value, error = verify.lemma_I1_grid(n, a)
        for ai, v, e in zip(a, value, error):
            q = lemma_I1_value(n, ai, tol=1e-12)
            assert abs(v - q.value) <= e + q.error, ai
        # On the figure's range the float64 pass claims 1e-12 relative.
        value, error = verify.lemma_I1_grid(n, np.linspace(1.01, 1.99, 25))
        assert np.all(error <= 1e-12 * abs(value))

    def test_escalates_where_float_error_exceeds_tol(self):
        grid = Grid(5, 30, 3, "linear")
        _, error = verify.lemma_I1_grid(3, np.array(grid.points(), dtype=float))
        r = check_lemma_I1(3, grid, 1e-9)
        assert 0 < r.summary["escalated"] == np.count_nonzero(error > 1e-9)
        assert [w["status"] for w in r.witnesses] == ["strict"] * 3
        assert r.passed and not r.counterexamples

    def test_default_suite_rows_decide_in_float64(self):
        for n in (3, 4):
            r = check_lemma_I1(n, Grid(1.01, 1.99, 12, "linear"), 1e-9)
            assert r.summary["escalated"] == 0


class TestSubadditivity:
    def test_odd_order_subadditive_with_sharp_bound(self):
        r = check_subadditivity(2, 1, 2.0, 100, 0)
        assert r.passed
        labels = {w["label"] for w in r.witnesses}
        assert {"plain", "sharp", "midpoint"} <= labels

    def test_even_order_superadditive(self):
        r = check_subadditivity(2, 0, 2.0, 100, 0)
        assert r.passed
        assert r.params["mode"] == "superadditive"

    def test_midpoint_attainment_exact(self):
        r = check_subadditivity(3, 0, 1.5, 50, 0)
        mid = [w for w in r.witnesses if w["label"] == "midpoint"]
        assert len(mid) == 1 and mid[0]["status"] == "equality"
        assert abs(mid[0]["margin"]) < 1e-12

    def test_no_sample_pair_leaves_the_midpoint(self):
        # The single sample of seed 1 lies on the triangle's edge and is dropped.
        r = check_subadditivity(2, 0, 1.0, 1, 1)
        assert r.passed and [w["label"] for w in r.witnesses] == ["midpoint"]

    def test_deterministic(self):
        a = check_subadditivity(2, 1, 2.0, 60, 7)
        b = check_subadditivity(2, 1, 2.0, 60, 7)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_samples(self):
        a = check_subadditivity(2, 1, 2.0, 60, 0)
        b = check_subadditivity(2, 1, 2.0, 60, 1)
        assert a.to_dict() != b.to_dict()


class TestGConvexity:
    def test_positive_exponent_convex(self):
        r = check_G_convexity(3, 1.0, SMALL)
        assert r.passed and r.summary["expected"] == "convex"

    def test_small_negative_concave_superadditive(self):
        r = check_G_convexity(3, -0.2, SMALL)
        assert r.passed and r.summary["expected"] == "concave"
        assert r.summary["additive_mode"] == "superadditive"

    def test_large_negative_convex_subadditive(self):
        r = check_G_convexity(3, -0.6, SMALL)
        assert r.passed and r.summary["expected"] == "convex"
        assert r.summary["additive_mode"] == "subadditive"

    def test_gap_unasserted_shows_both_signs(self):
        r = check_G_convexity(3, -0.3, Grid(0.1, 10.0, 40, "log"))
        assert r.passed and r.summary["expected"] == "unasserted"
        assert set(r.summary["observed_signs"]) == {-1.0, 1.0}

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            check_G_convexity(3, 0.0, SMALL)


HANKEL_GRID = Grid(0.05, 50.0, 30, "log")
HANKEL_CASES = [(n, j, m) for n in (2, 3) for j in (1, 2) for m in range(1, 5)]


@functools.cache
def _hankel_entries(order):
    """psi2^(order) at each HANKEL_GRID point, from the 60-digit series."""
    with mp.workdps(60):
        return [psi2_series(PolyDoubleArg(order, x)).value
                for x in HANKEL_GRID.points()]


def _hankel_oracle(n, j, m, p):
    """s D and s D' at the p-th HANKEL_GRID point by 60-digit mp.det."""

    def det(d):
        return mp.det(mp.matrix(
            [[_hankel_entries(n + (i + l) * j + (i == d))[p] for l in range(m + 1)]
             for i in range(m + 1)]
        ))

    sign = (-1) ** ((n + 1) * (m + 1))
    with mp.workdps(60):
        return sign * det(None), sign * mp.fsum(det(d) for d in range(m + 1))


class TestHankel:
    def test_anchor_determinant(self):
        [(_, _, det, _)] = _hankel_claims(2, 1, 1, 0, _ThirtyDigitLookup((mpf(1),)))
        assert abs(det.value - mpf(HANKEL_ORACLE)) < 1e-15

    @pytest.mark.parametrize("tier", ["float64", "30-digit"])
    def test_claims_cover_60_digit_determinants(self, tier):
        args = [(x,) for x in HANKEL_GRID.points()]
        for n, j, m in HANKEL_CASES:
            if tier == "float64":
                at = _FloatLookup(args)
                claims = _plain(_hankel_claims(n, j, m, 1, at))
                assert not at.unfit.any()
                found = [[tuple(verify._item(a, p) for a in c[2:]) for c in claims]
                         for p in range(len(args))]
            else:
                found = [[c[2:] for c in _plain(_hankel_claims(n, j, m, 1, at))]
                         for at in map(_ThirtyDigitLookup, args)]
            for p, ((det, _, det_err), (_, ddet, ddet_err)) in enumerate(found):
                exact_det, exact_ddet = _hankel_oracle(n, j, m, p)
                assert abs(det - exact_det) <= det_err, (n, j, m, p)
                assert abs(ddet - exact_ddet) <= ddet_err, (n, j, m, p)

    def test_ill_conditioned_determinant_is_strict(self):
        # At x = 50 the matrix of (2, 3, 4) is ill-conditioned (elimination
        # pivots span 3e17), yet its determinant, 6.756e-61, is good to 15
        # digits in float64 and clears its error bound.
        r = check_hankel_cm(2, 3, 4, 1, Grid(25.0, 50.0, 2, "log"))
        assert r.summary["escalated"] == 0
        assert [w["status"] for w in r.witnesses] == ["strict"] * 4
        assert abs(r.witnesses[2]["lhs"] / 6.756009271072784e-61 - 1) < 1e-14

    def test_sign_and_decrease(self):
        for n, j, m in ((2, 1, 1), (2, 1, 2), (3, 2, 1)):
            r = check_hankel_cm(n, j, m, 1, SMALL)
            assert r.passed and not r.counterexamples

    def test_order_cap(self):
        with pytest.raises(DomainError):
            check_hankel_cm(2, 1, 5, 1, SMALL)


class TestWorkBounds:
    def test_grid_count(self):
        assert Grid(1.0, 2.0, verify.MAX_POINTS, "log").count == verify.MAX_POINTS
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, verify.MAX_POINTS + 1, "log")

    def test_samples(self):
        assert check_subadditivity(2, 1, 2.0, verify.MAX_POINTS, 0).passed
        with pytest.raises(DomainError):
            check_subadditivity(2, 1, 2.0, verify.MAX_POINTS + 1, 0)

    @pytest.mark.parametrize(
        "check", [partial(check_cm, 3), partial(check_F_cm, 3, 0.25)], ids=["cm", "F-cm"]
    )
    def test_depth(self, check):
        grid = Grid(0.5, 2.0, 2, "log")
        assert check(verify.MAX_DEPTH, grid).passed
        with pytest.raises(DomainError):
            check(verify.MAX_DEPTH + 1, grid)


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


def _statuses(report):
    return [(e["point"], e.get("label"), e["status"])
            for e in report.witnesses + report.counterexamples]


class _NothingFits(verify._FloatLookup):
    """Float tier that decides no point: every point goes to 30 digits."""

    def __init__(self, args):
        super().__init__(args)
        self.unfit[:] = True


def _thirty_digit_only(check, *args):
    with mock.patch.object(verify, "_FloatLookup", _NothingFits):
        return check(*args)


_EXPONENTS = st.floats(min_value=-3.0, max_value=1.5)
_SPANS = st.floats(min_value=0.05, max_value=4.0)


def _grid(lo_exp, span, count, spacing):
    lo = 10.0**lo_exp
    return Grid(lo, lo * 10.0**span, count, spacing)


_TIER_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFloatTier:
    """The float64 tier decides a point only where its status is the one the
    30-digit tier reaches; its error covers its own arithmetic's rounding."""

    @_TIER_SETTINGS
    @given(st.integers(2, 60), st.integers(0, 4), _EXPONENTS, _SPANS,
           st.integers(2, 8), st.sampled_from(["log", "linear"]))
    def test_cm_tiers_agree(self, n, depth, lo_exp, span, count, spacing):
        grid = _grid(lo_exp, span, count, spacing)
        mixed = check_cm(n, depth, grid)
        exact = _thirty_digit_only(check_cm, n, depth, grid)
        assert _statuses(mixed) == _statuses(exact)
        assert exact.summary["escalated"] == count

    @_TIER_SETTINGS
    @given(st.integers(2, 60), _EXPONENTS, _SPANS, st.integers(2, 8),
           st.sampled_from(["log", "linear"]))
    def test_turan_tiers_agree(self, n, lo_exp, span, count, spacing):
        grid = _grid(lo_exp, span, count, spacing)
        assert _statuses(check_turan(n, grid)) == _statuses(
            _thirty_digit_only(check_turan, n, grid)
        )

    @_TIER_SETTINGS
    @given(st.integers(3, 80), _EXPONENTS, st.floats(0.05, 6.0), st.integers(2, 8),
           st.sampled_from(["log", "linear"]))
    def test_ratio_bounds_tiers_agree(self, n, lo_exp, span, count, spacing):
        grid = _grid(lo_exp, span, count, spacing)
        mixed = check_ratio_bounds(n, grid)
        exact = _thirty_digit_only(check_ratio_bounds, n, grid)
        assert _statuses(mixed) == _statuses(exact)
        assert mixed.passed

    @_TIER_SETTINGS
    @given(st.integers(2, 20), st.integers(0, 3), st.floats(-1.0, 1.5),
           st.integers(1, 12), st.integers(0, 20))
    def test_subadditivity_tiers_agree(self, n, r, m_exp, samples, seed):
        params = (n, r, 10.0**m_exp, samples, seed)
        mixed = check_subadditivity(*params)
        exact = _thirty_digit_only(check_subadditivity, *params)
        assert _statuses(mixed) == _statuses(exact)
        assert mixed.summary["sharp_bound"] == exact.summary["sharp_bound"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(3, 8), st.floats(0.0, 1.0), st.integers(0, 4), _EXPONENTS,
           _SPANS, st.integers(2, 6))
    def test_F_cm_tiers_agree(self, n, omega, depth, lo_exp, span, count):
        grid = _grid(lo_exp, span, count, "log")
        mixed = check_F_cm(n, omega, depth, grid)
        exact = _thirty_digit_only(check_F_cm, n, omega, depth, grid)
        assert _statuses(mixed) == _statuses(exact)
        assert mixed.summary["first_failure"] == exact.summary["first_failure"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(3, 12), st.floats(-2.0, 2.0).filter(lambda r: r != 0),
           _EXPONENTS, _SPANS, st.integers(2, 6))
    def test_G_convexity_tiers_agree(self, n, r, lo_exp, span, count):
        grid = _grid(lo_exp, span, count, "log")
        mixed = check_G_convexity(n, r, grid)
        exact = _thirty_digit_only(check_G_convexity, n, r, grid)
        assert _statuses(mixed) == _statuses(exact)
        assert mixed.summary["observed_signs"] == exact.summary["observed_signs"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 1),
           _EXPONENTS, _SPANS, st.integers(2, 6))
    def test_hankel_tiers_agree(self, n, j, m, depth, lo_exp, span, count):
        grid = _grid(lo_exp, span, count, "log")
        assert _statuses(check_hankel_cm(n, j, m, depth, grid)) == _statuses(
            _thirty_digit_only(check_hankel_cm, n, j, m, depth, grid)
        )

    def test_default_grids_decide_in_float64(self):
        # Only the midpoint equality, whose margin is zero, is recomputed.
        assert check_cm(3, 5, Grid(0.05, 50.0, 40, "log")).summary["escalated"] == 0
        assert check_ratio_bounds(4, Grid(0.05, 1e4, 40, "log")).summary["escalated"] == 0
        r = check_subadditivity(2, 1, 2.0, 80, 0)
        assert r.summary["escalated"] == 1

    def test_values_beyond_a_double_escalate(self):
        r = check_cm(3, 2, Grid(1e-300, 50.0, 3, "log"))
        assert r.summary["escalated"] == 2  # 1e-300 and 7e-150; 50 decides
        assert check_turan(171, Grid(0.05, 4.0, 3, "linear")).summary["escalated"] == 3

    def test_ratio_bounds_exact_rational_bounds(self):
        # The doubles nearest n/(n+1) sat below it: at x -> 0 the ratio
        # reached them and read as counterexamples at -2e-17.
        for n in (16, 40, 70):
            r = check_ratio_bounds(n, Grid(0.05, 1e4, 60, "log"))
            assert r.passed and len(r.witnesses) == 120

    def test_series_claim_within_float_tier_allowance(self):
        # The float tier adds SERIES_CLAIM_REL * |value| + SERIES_CLAIM_ABS for
        # the 30-digit tier's claim; that covers psi2_series wherever the
        # value fits a double.  The worst claim sits near (144, 39.8).
        xs = np.geomspace(0.01, 1e4, 30)
        points = [(n, x) for n in range(2, 171, 2) for x in xs] + [(144, 39.8)]
        checked = 0
        for n, x in points:
            r = psi2_series(PolyDoubleArg(n, mpf(float(x))))
            if not math.isfinite(float(r.value)):
                continue
            checked += 1
            allowed = verify.SERIES_CLAIM_REL * abs(r.value) + verify.SERIES_CLAIM_ABS
            assert r.error <= allowed, (n, x)
        assert checked > len(points) // 2


class _ExactDoubles:
    """Lookup over given doubles with no value error, in float64 arrays
    (``point=None``) or as mpf at one point."""

    def __init__(self, values, point=None):
        self.values, self.point = values, point
        self.const = (_FloatLookup if point is None else _ThirtyDigitLookup).const

    def __call__(self, m, i=0):
        v = self.values[m, i]
        if self.point is None:
            return Approx(v, np.zeros_like(v))
        return Approx(mpf(v[self.point]), 0)


_CLAIMS = {
    "turan": partial(verify._turan_claims, 3),
    "ratio-bounds": partial(verify._ratio_claims, 5, mpf(3) / 4, mpf(5) / 6),
    "F-cm": partial(verify._f_claims, 3, mpf(3) / 4, 4, [(1, "F"), (-1, "-F")]),
    "subadditivity": partial(verify._subadditivity_claims, 3, True),
    "G-convexity": lambda at: [([], "G", verify._g_second(4, mpf("-0.3"), at), 0.0)],
    "G-additive": partial(verify._g_pair_claims, 3, mpf("-0.6"), True),
    "cauchy-schwarz": partial(verify._cauchy_schwarz_claims, 4, mpf(10) / 12),
    "hankel": partial(verify._hankel_claims, 2, 1, 3, 1),
}


@pytest.mark.parametrize(
    "name, tier",
    [pytest.param(name, tier, id=name if tier == "float64" else f"{name}-{tier}")
     for tier in ("float64", "30-digit") for name in sorted(_CLAIMS)],
)
def test_float_error_covers_own_rounding(name, tier):
    """With exact inputs, the margins stay within their errors of the same
    arithmetic done at more digits: float64 against 50 digits, 30 digits
    against 60."""
    claims = _CLAIMS[name]
    rng = np.random.default_rng(7)
    size = 200
    values = {
        (m, i): (-1.0) ** (m + 1) * np.exp(rng.uniform(-2.0, 2.0, size))
        for m in range(2, 12) for i in range(5)
    }
    if tier == "float64":
        floats = _plain(claims(_ExactDoubles(values)))
        found = [[tuple(float(verify._item(a, p)) for a in c[2:]) for c in floats]
                 for p in range(size)]
        exact_dps = 50
    else:
        with mp.workdps(30):
            found = [[c[2:] for c in _plain(claims(_ExactDoubles(values, p)))]
                     for p in range(size)]
        exact_dps = 60
    worst = worst_ratio = 0.0
    for p in range(size):
        with mp.workdps(exact_dps):
            exact = _plain(claims(_ExactDoubles(values, p)))
            for (lhs, rhs, err), (_, _, xl, xr, _) in zip(found[p], exact):
                miss = abs(mpf(lhs) - mpf(rhs) - (xl - xr))
                assert miss <= err, (name, p)
                worst = max(worst, float(miss))
                worst_ratio = max(worst_ratio, float(miss / err))
    if tier == "float64":
        assert worst > 0  # the float arithmetic did round
    elif name in ("G-additive", "cauchy-schwarz"):
        # The claims are tight, not padded by a fixed relative term.
        assert worst_ratio > 1e-3, worst_ratio
