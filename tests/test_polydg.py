"""Poly-double gamma evaluation routes, the di-double gamma, and log Barnes G.

Frozen reference values were generated independently at 50 decimal digits
through the Hurwitz-zeta reduction (for psi2^(n)), direct series summation
(for psi2), and an independent Barnes-G implementation (for log G)."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import (
    DomainError,
    PolyDoubleArg,
    hurwitz_zeta,
    log_barnes_g,
    log_gamma,
    polygamma,
    psi2_asymptotic,
    psi2_cached,
    psi2_didouble,
    psi2_eval,
    psi2_from_polygamma,
    psi2_integral,
    psi2_series,
)
from polydgamma import cli, polydg
from polydgamma.polydg import (
    GRID_HEAD_TERMS,
    _TAYLOR,
    _density,
    asymptotic_bernoulli_sum,
    asymptotic_closed_form,
    asymptotic_remainder,
    psi2_grid,
)
from polydgamma.cli import CHECKS
from polydgamma.specfun import EvalResult, rounding_unit
from polydgamma.verify import Grid

def _kernel_density(n, t):
    """The Laplace density t^n / (1 - exp(-t))^2 of (-1)^(n+1) psi2^(n) at
    the working precision, through the raw-tuple :func:`_density`."""
    return mp.make_mpf(_density(n, mpf(t)._mpf_, mp.prec))


def _zeta(s, a):
    """zeta(s, a) = (-1)^s psi^(s-1)(a) / (s-1)!.  60-digit mp.zeta itself is
    no oracle: it is 2.3e-10 relative off at (36, 694.94)."""
    return (-1) ** s * mp.psi(s - 1, a) / mp.factorial(s - 1)


# Independent 50-digit oracles (frozen).
PSI2_ORACLE = {
    (2, "1"): "-3.28986813369645287294483033329",
    (3, "1"): "7.21234141895756571239842896907",
    (4, "1"): "-25.975757609067316596384088717",
    (2, "2"): "-0.885754327377264302145354010269",
    (2, "3"): "-0.481640521058075731345877687246",
    (2, "0.3"): "-77.1815047043236823976857384267",
    (6, "0.3"): "-3292417.76963119663906549091523",
    (3, "7.5"): "0.0233949193421724831011194257386",
    (5, "2"): "2.35016317907049439402170679993",
}
DIDOUBLE_ORACLE = {
    "2": "1.73549279659839297943269444376",
    "0.5": "-0.323477881313851620894305812823",
    "7.25": "-4.53205741132649005856440865396",
}
LOG_G_ORACLE = {
    "4": "0.693147180559945309417232121458",
    "5.7": "4.54976767868559732369362933805",
    "0.5": "-0.505433054489695382797684989808",
}


class TestDomain:
    def test_argument_invariants(self):
        with pytest.raises(DomainError):
            PolyDoubleArg(1, 1.0)
        with pytest.raises(DomainError):
            PolyDoubleArg(2, 0.0)
        with pytest.raises(DomainError):
            PolyDoubleArg(2, -3.0)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            psi2_eval(PolyDoubleArg(2, 1.0), method="magic")

    @pytest.mark.parametrize(
        "route", [psi2_asymptotic, asymptotic_remainder], ids=lambda f: f.__name__
    )
    def test_asymptotic_terms_capacity(self, route):
        arg = PolyDoubleArg(2, mpf(15))
        # N blocks read B_2N+2, so N = 32 would pass the table's end (B_64).
        for terms in (0, 32, 1000):
            with pytest.raises(DomainError, match="Bernoulli table capacity"):
                route(arg, terms)
        route(arg, 31)


class TestRoutesAgainstOracles:
    @pytest.mark.parametrize("key,ref", sorted(PSI2_ORACLE.items()))
    def test_series(self, key, ref):
        n, x = key
        r = psi2_series(PolyDoubleArg(n, mpf(x)))
        scale = max(1.0, abs(float(mpf(ref))))
        assert abs(r.value - mpf(ref)) < 1e-20 * scale

    @pytest.mark.parametrize("key,ref", sorted(PSI2_ORACLE.items()))
    def test_polygamma_route(self, key, ref):
        n, x = key
        r = psi2_from_polygamma(PolyDoubleArg(n, mpf(x)))
        scale = max(1.0, abs(float(mpf(ref))))
        assert abs(r.value - mpf(ref)) < 1e-18 * scale

    @pytest.mark.parametrize("key,ref", sorted(PSI2_ORACLE.items()))
    def test_integral_route(self, key, ref):
        n, x = key
        r = psi2_integral(PolyDoubleArg(n, mpf(x)))
        assert abs(r.value - mpf(ref)) < 1e-8 * max(1.0, abs(float(mpf(ref))))

    @pytest.mark.parametrize("key,ref", sorted(PSI2_ORACLE.items()))
    def test_asymptotic_route(self, key, ref):
        n, x = key
        r = psi2_eval(PolyDoubleArg(n, mpf(x)), method="asymptotic")
        assert r.method == "asymptotic"
        assert abs(r.value - mpf(ref)) <= r.error

    @pytest.mark.parametrize(
        "n,x", [(2, "1"), (6, "0.3"), (8, "50"), (4, "3000"), (2, "1e4"), (2, "1e6")]
    )
    def test_integral_route_error_covers_series(self, n, x):
        # Far out the integrand's mass lies below about 1/x: the first pass
        # of the quadrature must resolve it, not read it as zero.
        arg = PolyDoubleArg(n, mpf(x))
        r = psi2_eval(arg, method="integral")
        ref = psi2_series(arg)
        assert abs(r.value - ref.value) <= r.error + ref.error

    @pytest.mark.parametrize("n", [2, 3, 6, 10, 40])
    @pytest.mark.parametrize("x", ["1e-3", "0.1", "1", "10", "100", "1e4"])
    def test_integral_claim_covers_error_quickly(self, n, x):
        # The pair's extrapolated estimate reads far below the rounding; the
        # rounding allowance must cover it.
        start = time.perf_counter()
        r = psi2_integral(PolyDoubleArg(n, mpf(x)))
        assert time.perf_counter() - start < 1.0
        with mp.workdps(80):
            ref = psi2_series(PolyDoubleArg(n, mpf(x))).value
            assert abs(r.value - ref) <= r.error
            assert r.error <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("n", [100, 170])
    @pytest.mark.parametrize("x", ["0.5", "1", "10"])
    def test_integral_claim_at_large_order(self, n, x):
        # On [0, inf) mp.quad claimed 3.1e-2 relative at (170, 1); on the
        # bracket the pair's claim holds at about 4e-18.
        r = psi2_integral(PolyDoubleArg(n, mpf(x)))
        with mp.workdps(80):
            ref = psi2_series(PolyDoubleArg(n, mpf(x))).value
            assert abs(r.value - ref) <= r.error
            if abs(ref) < mpf("1e320"):
                assert r.error <= 1e-15 * abs(ref)
            else:
                # psi2^(170)(0.5) ~ 2e358: its claim overflows a double.
                assert r.error == math.inf

    @pytest.mark.parametrize(
        "n,x,before",
        [(2, "1", 230), (3, "2", 230), (4, "0.5", 230), (40, "1e-3", 458), (170, "1", 458)],
    )
    def test_integral_evaluation_count(self, n, x, before, monkeypatch):
        # Density evaluations, one per node: 96 per panel of the Gauss pair,
        # against ``before`` for mp.quad's tanh-sinh on the same bracket.
        # (2, 1) and (4, 0.5) are cut at s = 40x; (40, 1e-3) and (170, 1)
        # bisect once.
        calls = []
        density = polydg._density

        def counted(*args):
            calls.append(args)
            return density(*args)

        monkeypatch.setattr(polydg, "_density", counted)
        psi2_integral(PolyDoubleArg(n, mpf(x)))
        expected = {(2, "1"): 192, (3, "2"): 96, (4, "0.5"): 192, (40, "1e-3"): 288,
                    (170, "1"): 288}
        assert len(calls) == expected[n, x] < before

    def test_integral_claims_over_seeded_draws(self):
        # Against -n psi^(n-1)(x) + (1-x) psi^(n)(x) at 80 digits, with a
        # third of the draws within a factor of 2 of s_hi/40, where the cut at
        # s = 40x enters the bracket.
        rng = random.Random(29)
        for i in range(40):
            n = rng.randint(2, 170)
            if i % 3 == 0:
                hi = polydg._laplace_bracket(n, mpf(1))[1]
                x = mpf(hi / 40 * 2 ** rng.uniform(-1, 1))
            else:
                x = mpf(10 ** rng.uniform(-3, 4))
            r = psi2_integral(PolyDoubleArg(n, x))
            with mp.workdps(80):
                ref = -n * mp.psi(n - 1, x) + (1 - x) * mp.psi(n, x)
                assert abs(r.value - ref) <= min(r.error, 1e-21 * abs(ref)), (n, x)
                if abs(ref) < mpf("1e300") and abs(ref) > mpf("1e-290"):
                    assert r.error <= 1e-17 * abs(ref), (n, x)

    def test_integral_cut_is_needed(self, monkeypatch):
        # Without the cut at s = 40x the pair agrees to 1e-11 at (2, 1e-3)
        # and both rules miss the density's change on the scale x near
        # s = 0: the value is 2.8e-9 off.  With it, 1e-21.
        arg = PolyDoubleArg(2, mpf("1e-3"))
        with mp.workdps(80):
            ref = -2 * mp.psi(1, arg.x) + (1 - arg.x) * mp.psi(2, arg.x)
        assert abs(psi2_integral(arg).value - ref) <= 1e-21 * abs(ref)
        monkeypatch.setattr(polydg, "DENSITY_CUT", math.inf)
        uncut = psi2_integral(arg)
        assert abs(uncut.value - ref) > 1e-9 * abs(ref)

    @pytest.mark.parametrize("n,x", [(1000, "5"), (10000, "5"), (2, "1e-300")])
    def test_integral_extreme_arguments(self, n, x):
        # The bracket's tail bounds are summed in logs, so no n or x
        # overflows them; on [0, inf) the value at (10000, 5) was off by a
        # factor of 1e370 and at (1000, 5) by 1.5e-3.
        arg = PolyDoubleArg(n, mpf(x))
        start = time.perf_counter()
        r = psi2_integral(arg)
        assert time.perf_counter() - start < 1.0
        with mp.workdps(60):
            ref = psi2_series(arg).value
            assert abs(r.value - ref) <= 1e-18 * abs(ref)
        # Every value lies past the double range, and so does its claim.
        assert r.error == math.inf

    def test_auto_route_matches_series_far_out(self):
        for n, x in [(2, 50), (3, 200), (6, 25), (7, 12.5)]:
            a = psi2_eval(PolyDoubleArg(n, mpf(x)), method="auto")
            b = psi2_series(PolyDoubleArg(n, mpf(x)))
            assert a.method == "series"
            assert abs(a.value - b.value) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        log10_x=st.floats(min_value=-3.0, max_value=4.0),
    )
    def test_series_error_covers_zeta_closed_form(self, n, log10_x):
        x = mpf(10) ** log10_x
        r = psi2_series(PolyDoubleArg(n, x))
        with mp.workdps(60):
            ref = (-1) ** (n + 1) * mp.factorial(n) * (
                _zeta(n, x) + (1 - x) * _zeta(n + 1, x)
            )
            assert abs(r.value - ref) <= r.error

    @pytest.mark.parametrize("dps", [30, 50])
    def test_series_claims_cover_polygamma_truth(self, dps):
        # -n psi^(n-1)(x) + (1-x) psi^(n)(x) at 60 digits, over the orders
        # whose n! fits a double and arguments far past the head's reach.
        rng = random.Random(19)
        with mp.workdps(dps):
            for _ in range(400):
                n, x = rng.randint(2, 170), mpf(10 ** rng.uniform(-3, 12))
                r = psi2_series(PolyDoubleArg(n, x))
                with mp.workdps(60):
                    truth = -n * mp.psi(n - 1, x) + (1 - x) * mp.psi(n, x)
                    assert abs(r.value - truth) <= r.error, (n, x)

    @pytest.mark.parametrize(
        "n,x",
        [(100000, "2.5"), (40, "1e100000"), (3, "1e-100000"), (170, "1e-300"),
         (3, "1e100000000")],
    )
    def test_series_extreme_arguments_return_promptly(self, n, x):
        # Powers are truncated to the kernel's width after every product, and
        # the offset 1 - x enters it floored to that width, so neither the
        # order nor the exponent of x makes its integers grow.
        start = time.perf_counter()
        r = psi2_series(PolyDoubleArg(n, mpf(x)))
        assert time.perf_counter() - start < 0.1
        assert mp.isfinite(r.value) and (r.value > 0) == (n % 2 == 1)


def test_combining_routes_cover_own_rounding(monkeypatch):
    """polygamma returns its values rounded to doubles, claiming no error,
    so the same call at 60 digits differs from the one at 30 only by the
    rounding of the route's own combination, which its claim must cover."""

    def exact(f):
        def rounded(*args):
            with mp.workdps(30):
                r = f(*args)
            return EvalResult(mpf(float(r.value)), 0.0, r.method)

        return rounded

    monkeypatch.setattr(polydg, "polygamma", exact(polygamma))
    routes = {
        "polygamma": psi2_from_polygamma,
        "asymptotic": lambda arg: psi2_eval(arg, "asymptotic"),
        "didouble": lambda arg: psi2_didouble(arg.x),
    }
    for n in (2, 5, 17, 40):
        for x in (0.001, 0.37, 3.3, 77.7, 5000.5):
            arg = PolyDoubleArg(n, x)
            for name, route in routes.items():
                r = route(arg)
                with mp.workdps(60):
                    ref = route(arg).value
                assert abs(r.value - ref) <= r.error, (name, n, x)


class TestStructure:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        x=st.floats(min_value=0.1, max_value=15.0),
    )
    def test_recurrence(self, n, x):
        x = mpf(x)
        lhs = psi2_series(PolyDoubleArg(n, x + 1)).value + polygamma(n, x).value
        rhs = psi2_series(PolyDoubleArg(n, x)).value
        assert abs(lhs - rhs) < 1e-15 * max(1.0, abs(float(rhs)))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        x=st.floats(min_value=0.5, max_value=8.0),
    )
    def test_derivative_closure(self, n, x):
        # Central difference of psi2^(n) approximates psi2^(n+1) to O(h^2).
        x, h = mpf(x), mpf("1e-6")
        hi = psi2_series(PolyDoubleArg(n, x + h))
        lo = psi2_series(PolyDoubleArg(n, x - h))
        fd = (hi.value - lo.value) / (2 * h)
        exact = psi2_series(PolyDoubleArg(n + 1, x)).value
        third = abs(psi2_series(PolyDoubleArg(n + 3, x)).value)
        taylor = third * h ** 2 / 6 * 1.5
        noise = (hi.error + lo.error) / (2 * float(h))
        assert abs(fd - exact) <= taylor + noise + 1e-18

    def test_sign_alternation(self):
        for n in range(2, 8):
            v = psi2_series(PolyDoubleArg(n, mpf("1.3"))).value
            assert mp.sign(v) == (-1) ** (n + 1)

    def test_kernel_density_positive_and_growing_in_n(self):
        for t in (mpf("0.1"), mpf(1), mpf(5)):
            k3, k4 = _kernel_density(3, t), _kernel_density(4, t)
            assert k3 > 0
            # t^4 kernel exceeds t^3 kernel iff t > 1
            assert (k4 > k3) == (t > 1)

    @pytest.mark.parametrize("t", ["1e-30", "0.001", "1", "7.5", "200", "1e300"])
    def test_kernel_density_matches_mpf(self, t):
        # The raw-tuple density, against the formula at 60 digits.
        t = mpf(t)
        with mp.workdps(60):
            ref = t**3 / mp.expm1(-t) ** 2
        assert abs(_kernel_density(3, t) - ref) <= 8 * mp.eps * ref

    def test_asymptotic_identity(self):
        for n, x, N in [(2, 2, 3), (3, 10, 4), (5, 1, 6), (4, 0.7, 5)]:
            ref = psi2_series(PolyDoubleArg(n, mpf(x) + 1))
            asym = psi2_asymptotic(PolyDoubleArg(n, mpf(x)), N)
            assert abs(ref.value - asym.value) <= asym.error + ref.error + 1e-12

    def test_asymptotic_without_remainder_error_honest(self):
        arg = PolyDoubleArg(2, mpf(15))
        ref = psi2_series(PolyDoubleArg(2, mpf(16)))
        # The closed form plus the Bernoulli part (sign (-1)^n = 1), without
        # tau: the first omitted term is the error.
        bernoulli, omitted = asymptotic_bernoulli_sum(0, arg.x, 4)
        value = asymptotic_closed_form(arg) + bernoulli
        error = value.error + float(omitted) + 1e-30
        assert abs(ref.value - value.value) <= 10 * error + 1e-20

    @pytest.mark.parametrize(
        "n, x, N",
        [(2, "2", 3), (3, "10", 4), (5, "1", 6), (4, "0.7", 5), (40, "12.5", 6),
         (100000, "13", 6)],
    )
    def test_bernoulli_part_against_direct_sum(self, n, x, N):
        # sum_{j<=2N} B_j (n-2+j)!/(j! x^(n-1+j)) at 80 digits, within the
        # claim; the first omitted term is j = 2N+2.  The binomial
        # coefficients keep n = 100000 cheap.
        x = mpf(x)
        start = time.perf_counter()
        total, omitted = asymptotic_bernoulli_sum(n - 2, x, N)
        elapsed = time.perf_counter() - start
        with mp.workdps(80):
            def term(j):
                return mp.bernoulli(j) * mp.factorial(n - 2 + j) / (
                    mp.factorial(j) * x ** (n - 1 + j))

            ref = mp.fsum(term(j) for j in range(2 * N + 1))
            assert abs(total.value - ref) <= total.error
            assert abs(omitted - abs(term(2 * N + 2))) <= 1e-25 * omitted
        assert elapsed < 0.05


class TestDiDouble:
    def test_closed_value_at_one(self):
        # psi2(1) = 3/2 + gamma - log(2 pi)/2
        expect = mpf(3) / 2 + mp.euler - mp.log(2 * mp.pi) / 2
        r = psi2_didouble(1)
        assert abs(r.value - expect) < 1e-25

    @pytest.mark.parametrize("x,ref", sorted(DIDOUBLE_ORACLE.items()))
    def test_oracles(self, x, ref):
        r = psi2_didouble(mpf(x))
        assert abs(r.value - mpf(ref)) < 1e-18

    @pytest.mark.parametrize("i", range(19))
    def test_error_covers_barnes_g_reference(self, i):
        # 19 log-spaced x in [1e-3, 1e12]; the reference is
        # psi2(x) = 1 + gamma - (log G)'(x) at 60 digits.
        x = mpf(10) ** (-3 + mpf(15) * i / 18)
        r = psi2_didouble(x)
        with mp.workdps(60):
            ref = 1 + mp.euler - mp.diff(lambda t: mp.log(mp.barnesg(t)), x)
            assert abs(r.value - ref) <= r.error
        assert r.error <= 1e-26 * max(1.0, abs(float(r.value)))

    def test_second_difference_consistency(self):
        # Central second difference of psi2 approximates psi2^(2).
        x, h = mpf(2), mpf("1e-4")
        fd = (
            psi2_didouble(x + h).value
            - 2 * psi2_didouble(x).value
            + psi2_didouble(x - h).value
        ) / h ** 2
        assert abs(fd - psi2_cached(2, x).value) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            psi2_didouble(0)


class TestLogBarnesG:
    def test_small_integers(self):
        # G(1) = G(2) = G(3) = 1
        for x in (1, 2, 3):
            assert abs(log_barnes_g(x).value) < 1e-18

    @pytest.mark.parametrize("x,ref", sorted(LOG_G_ORACLE.items()))
    def test_oracles(self, x, ref):
        r = log_barnes_g(mpf(x))
        assert abs(r.value - mpf(ref)) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(min_value=0.2, max_value=10.0))
    def test_functional_equation(self, x):
        # log G(x+1) = log Gamma(x) + log G(x)
        x = mpf(x)
        lhs = log_barnes_g(x + 1).value
        rhs = log_gamma(x) + log_barnes_g(x).value
        assert abs(lhs - rhs) < 1e-15 * max(1.0, abs(float(rhs)))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_barnes_g(-1)

    def test_error_covers_mpmath_barnesg(self):
        # Log grid over [1e-3, 1e6], against 60-digit log(mp.barnesg(x)).
        misses = []
        for i in range(73):
            x = mpf(10) ** (-3 + mpf(i) / 8)
            r = log_barnes_g(x)
            with mp.workdps(60):
                deviation = abs(r.value - mp.log(mp.barnesg(x)))
            if not deviation <= r.error:
                misses.append((x, deviation, r.error))
        assert misses == []

    @pytest.mark.parametrize("x", [1e8, 1e12])
    def test_error_covers_mpmath_barnesg_far_out(self, x):
        r = log_barnes_g(x)
        assert mp.isfinite(r.value) and math.isfinite(r.error)
        with mp.workdps(60):
            assert abs(r.value - mp.log(mp.barnesg(x))) <= r.error

    @pytest.mark.parametrize("x", ["0.5", "3.7", "20"])
    def test_error_covers_at_fifty_digits(self, x):
        # Glaisher's constant and the Bernoulli table hold 30 digits, so the
        # claimed rounding must not shrink with mp.dps: log G(3.7) at 50
        # digits is off by 2.6e-32.
        with mp.workdps(50):
            x = mpf(x)
            r = log_barnes_g(x)
            with mp.workdps(80):
                assert abs(r.value - mp.log(mp.barnesg(x))) <= r.error

    @pytest.mark.parametrize("x", ["0.25", "2", "7.5", "12.5", "1000"])
    def test_sign_convention(self, x):
        # log_barnes_g is +log G, and psi2^(2) is minus its third derivative.
        x = mpf(x)
        d3 = mp.diff(lambda t: log_barnes_g(t).value, x, 3, h=mpf("1e-5"))
        expected = -psi2_cached(2, x).value
        assert abs(d3 - expected) < 1e-7 * abs(expected)


class TestCache:
    def test_keyed_on_precision(self):
        # A value cached at 10 digits must not be served at 30.
        x = mpf("0.4375")
        with mp.workdps(10):
            psi2_cached(3, x)
        assert psi2_cached(3, x) == psi2_series(PolyDoubleArg(3, x))


class TestKernelAccuracy:
    """psi2_series, polygamma and hurwitz_zeta against 80-digit mp.psi.  Their
    one kernel sums the Euler-Maclaurin tail from bernoulli_binomials, the
    table that asymptotic_bernoulli_sum reads too."""

    def test_series_and_polygamma_against_mpmath(self):
        # Every nonzero claim holds; a claim past the double range reads inf.
        # (101, 27.6) needs more than 14 corrections to reach 2e-21.
        rng = random.Random(30)
        draws = [(rng.randint(2, 170), 10 ** rng.uniform(-3, 12)) for _ in range(100)]
        worst = {}
        for n, x in [(101, 27.611506093085747)] + draws:
            x = mpf(x)
            results = (psi2_series(PolyDoubleArg(n, x)), polygamma(n, x),
                       hurwitz_zeta(n + 1, x))
            with mp.workdps(80):
                psi_n = mp.psi(n, x)
                truths = (-n * mp.psi(n - 1, x) + (1 - x) * psi_n, psi_n,
                          (-1) ** (n + 1) * psi_n / mp.factorial(n))
                for name, r, truth in zip(("series", "polygamma", "zeta"), results, truths):
                    miss = abs(r.value - truth)
                    assert not r.error or miss <= r.error, (n, x, name)
                    worst[name] = max(worst.get(name, 0), miss / abs(truth))
        # hurwitz_zeta stops at an absolute 1e-22, so only its claims count.
        assert max(worst["series"], worst["polygamma"]) <= 2e-21, worst

    @pytest.mark.parametrize("n, x, bound", [(300, 30, 2.5e-28), (1000, 100, 2.4e-32)])
    def test_large_orders_no_worse(self, n, x, bound):
        # Where pi b - n/2 is small the tail reads only the corrections that
        # still fall, so no growing term enters.
        r = psi2_series(PolyDoubleArg(n, mpf(x)))
        with mp.workdps(80):
            truth = -n * mp.psi(n - 1, x) + (1 - x) * mp.psi(n, x)
            assert abs(r.value - truth) <= bound * abs(truth)

    @pytest.mark.parametrize("p, x, N", [(0, "12", 6), (1, "30.5", 4), (4, "13", 6), (2, "100", 2)])
    def test_bernoulli_sum_is_the_zeta_tail(self, p, x, N):
        # sum_{k<=2N} B_k (p+k)!/(k! x^(p+k+1)) / (p+1)! is Euler-Maclaurin
        # for zeta(p+2, x+1) through correction N, whose remainder lies below
        # the omitted term: both read the same table.
        x = mpf(x)
        total, omitted = asymptotic_bernoulli_sum(p, x, N)
        fact = mp.factorial(p + 1)
        zeta = hurwitz_zeta(p + 2, x + 1)
        rounding = 4 * rounding_unit() * zeta.value
        assert abs(total.value / fact - zeta.value) <= (
            (omitted + total.error) / fact + zeta.error + rounding)


def _grid_term_by_term(n, x):
    """psi2_grid's value and error by the term-by-term loop it replaced: the
    head summed one term at a time, then one correction per iteration, each
    point stopping once two consecutive ones fall below 1e-18 S."""
    H = GRID_HEAD_TERMS
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s = sum((1 + k) * (1 / (x + k)) ** (n + 1) for k in range(H))
        b = x + H
        b_n = (1 / b) ** n
        s = s + b_n * (x + n * (H + 1) - 1) / (n * (n - 1)) + (1 + H) * b_n / b / 2
        inv_b2 = 1 / (b * b)
        d1 = n * b_n / b
        d2 = (1 - x) * (n + 1) * b_n * inv_b2
        total = s
        prev = trunc = np.full(x.shape, np.inf)
        active = np.ones(x.shape, dtype=bool)
        for q, weight in zip(range(1, 2 * polydg.GRID_CORRECTIONS, 2), _TAYLOR[2::2]):
            term = weight * (d1 + d2)
            total = np.where(active, total + term, total)
            trunc = np.where(active, np.maximum(abs(term), prev), trunc)
            prev = abs(term)
            active &= trunc >= 1e-18 * s
            if not active.any():
                break
            d1 = d1 * ((n + q) * (n + q + 1)) * inv_b2
            d2 = d2 * ((n + q + 1) * (n + q + 2)) * inv_b2
        fact = float(math.factorial(n))
        value = (-1) ** (n + 1) * fact * total
        error = fact * (trunc + (H + 3 * (n + 2) + 30) * (2.0**-53 * s + 2.0**-1074))
    return value, error


def _figure_and_check_grids():
    linear = np.array(cli._linear_points(0.05, 4.0, 400, open_left=True))
    grids = {
        "figure-linear": linear,
        "figure-linear+1": linear + 1,
        "figure-linear+2": linear + 2,
        "figure-log": np.array(Grid(1.0, 40000.0, 200, "log").points(), dtype=float),
    }
    for cid, (_, defaults) in CHECKS.items():
        if "grid" in defaults:
            grids[cid] = np.array(defaults["grid"].points(), dtype=float)
    return grids


class TestGrid:
    @pytest.mark.parametrize("name, x", _figure_and_check_grids().items())
    def test_bit_equal_to_term_by_term_loop(self, name, x):
        for n in range(2, 41):
            expected = _grid_term_by_term(n, x)
            if not all(np.isfinite(a).all() for a in expected):
                with pytest.raises(DomainError):
                    psi2_grid(n, x)
                continue
            value, error = psi2_grid(n, x)
            assert value.tobytes() == expected[0].tobytes(), (name, n)
            assert error.tobytes() == expected[1].tobytes(), (name, n)

    def test_single_point_bit_equal_to_term_by_term_loop(self):
        # One point is one column, which np.sum would add pairwise.
        for n in (2, 3, 9, 40):
            for x in (1e-3, 0.05, 0.7, 21.0 * n + 1, 1e4):
                x = np.array([x])
                assert [a.tobytes() for a in psi2_grid(n, x)] == [
                    a.tobytes() for a in _grid_term_by_term(n, x)
                ]

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        log10_x=st.floats(min_value=-3.0, max_value=5.0),
    )
    def test_error_covers_series(self, n, log10_x):
        x = 10.0 ** log10_x
        value, error = psi2_grid(n, np.array([x]))
        value, error = mpf(float(value[0])), float(error[0])
        ref = psi2_series(PolyDoubleArg(n, mpf(x)))
        assert abs(value - ref.value) <= error + ref.error
        # The series claims at least 1e-30, more than the whole value at
        # large n and x; apart from that floor its bound is below 1e-28 of
        # its value, so the grid bound alone is held against that.  (mp.zeta
        # is no oracle here: at 90 digits the zeta form is off by 6e-13
        # relative at n = 22, x = 1e4.)
        assert abs(value - ref.value) <= error + 1e-25 * abs(ref.value)

    def test_error_covers_series_where_first_correction_vanishes(self):
        # At x = 21n + 1 the two parts of the first Euler-Maclaurin
        # correction cancel; stopping on that one correction would drop the
        # next, which is about 1e-9 of the value.
        for n in range(2, 12):
            x = 21.0 * n + 1
            value, error = psi2_grid(n, np.array([x]))
            ref = psi2_series(PolyDoubleArg(n, mpf(x)))
            assert abs(mpf(float(value[0])) - ref.value) <= float(error[0]) + ref.error

    def test_array_shape_and_relative_accuracy(self):
        x = np.linspace(0.05, 4.0, 50).reshape(5, 10)
        value, error = psi2_grid(3, x)
        assert value.shape == error.shape == x.shape
        assert np.all(error < 1e-14 * np.abs(value))

    def test_domain(self):
        with pytest.raises(DomainError):
            psi2_grid(1, np.array([1.0]))
        with pytest.raises(DomainError):
            psi2_grid(2, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            psi2_grid(2, np.array([-1.0]))
        with pytest.raises(DomainError):
            psi2_grid(200, np.array([1e-3]))  # overflows a double
        with pytest.raises(DomainError):
            psi2_grid(3, np.array([1.0, 1e-300]))  # x^-4 overflows
