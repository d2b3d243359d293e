"""Special-function layer: Bernoulli numbers, Hurwitz zeta, polygamma,
log-gamma.  Frozen reference values were generated independently at 50
decimal digits and are trusted well beyond every tolerance used here."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import DomainError, hurwitz_zeta, log_barnes_g, log_gamma, polygamma
from polydgamma.specfun import (
    BARNES_COEFFS,
    DIGAMMA_COEFFS,
    STIRLING_COEFFS,
    WORKING_DPS,
    _BERNOULLI_FRACTIONS,
    _bernoulli_fractions,
    asymptotic_sum,
    power_sum,
    recurrence_shift,
    rounding_unit,
    stop_scale,
)


def _zeta(s, a):
    """zeta(s, a) = (-1)^s psi^(s-1)(a) / (s-1)!.  60-digit mp.zeta itself is
    no oracle: it is 2.3e-10 relative off at (36, 694.94)."""
    return (-1) ** s * mp.psi(s - 1, a) / mp.factorial(s - 1)


# Independent 50-digit oracles (frozen).
ORACLE = {
    ("zeta", 3, "1.5"): "0.41439832211715999779816713058",
    ("zeta", 5, "0.25"): "1024.34897452658057223159279802",
    ("psi", 0, "0.7"): "-1.22002355369793461474860724456",
    ("psi", 3, "2.5"): "0.22390584881725205125514750352",
    ("psi", 6, "0.4"): "-439523.164998806644320660161388",
    ("lgamma", "0.3"): "1.09579799481807552167716814237",
    ("lgamma", "15.25"): "25.8619499018485193582760523029",
}


class TestBernoulli:
    def test_known_exact_values(self):
        known = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        exact = _bernoulli_fractions(12)
        for k, v in known.items():
            assert exact[k] == v
            assert _BERNOULLI_FRACTIONS[k] == v

    def test_odd_vanish(self):
        for k in range(3, len(_BERNOULLI_FRACTIONS), 2):
            assert _BERNOULLI_FRACTIONS[k] == 0

    @staticmethod
    def _defining_recurrence(capacity):
        # sum_{i=0}^{q} C(q+1, i) B_i = 0 for q >= 1.
        values = [Fraction(1)]
        for q in range(1, capacity + 1):
            acc = sum(math.comb(q + 1, i) * values[i] for i in range(q))
            values.append(-acc / (q + 1))
        return tuple(values)

    @pytest.mark.parametrize("capacity", [0, 1, 2, 3, 12, 13, 64])
    def test_tangent_numbers_match_defining_recurrence(self, capacity):
        assert _bernoulli_fractions(capacity) == self._defining_recurrence(capacity)

    def test_fractions_match_mpmath(self):
        # B_0..B_64 exactly; mpmath's B_1 is -1/2, as here.
        assert len(_BERNOULLI_FRACTIONS) == 65
        assert _BERNOULLI_FRACTIONS == _bernoulli_fractions(64)
        for k, frac in enumerate(_BERNOULLI_FRACTIONS):
            assert (frac.numerator, frac.denominator) == mp.bernfrac(k)


class TestHurwitzZeta:
    def test_oracles(self):
        for (_, s, a), ref in [(k, v) for k, v in ORACLE.items() if k[0] == "zeta"]:
            r = hurwitz_zeta(s, mpf(a))
            scale = max(1.0, abs(float(mpf(ref))))
            assert abs(r.value - mpf(ref)) < 1e-19 * scale
            # The reported error estimate must cover the true error.
            assert abs(r.value - mpf(ref)) <= max(2 * r.error, 1e-26)

    def test_riemann_special_case(self):
        # zeta(2, 1) = pi^2/6; s = 2 converges slowest, claimed error ~1e-18.
        r = hurwitz_zeta(2, 1)
        assert abs(r.value - mp.pi ** 2 / 6) < 1e-19
        assert abs(r.value - mp.pi ** 2 / 6) <= 2 * r.error

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(3, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.integers(min_value=2, max_value=8),
        a=st.floats(min_value=0.1, max_value=30.0),
    )
    def test_recurrence_property(self, s, a):
        # zeta(s, a) - zeta(s, a+1) = a^-s  (shift in mpf to avoid float64
        # rounding of a+1 perturbing the argument)
        a = mpf(a)
        lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1).value
        rhs = a ** (-s)
        assert abs(lhs - rhs) < 1e-18 * max(1.0, abs(float(rhs)))

    @settings(max_examples=80, deadline=None)
    @given(
        s=st.integers(min_value=2, max_value=41),
        log10_a=st.floats(min_value=-3.0, max_value=4.0),
    )
    def test_error_covers_mpmath_zeta(self, s, log10_a):
        # The claimed error includes the rounding of the head, not only the
        # truncation of the tail: zeta(30, 0.01) ~ 1e60 is off by ~1e29.
        a = mpf(10.0 ** log10_a)
        r = hurwitz_zeta(s, a)
        with mp.workdps(60):
            assert abs(r.value - _zeta(s, a)) <= r.error


class TestEulerMaclaurin:
    def test_claims_cover_polygamma_form(self):
        rng = random.Random(41)
        for s in range(2, 42):
            for _ in range(8):
                a = mpf(10 ** rng.uniform(-3, 4))
                r = hurwitz_zeta(s, a)
                with mp.workdps(60):
                    assert abs(r.value - _zeta(s, a)) <= r.error, (s, a)

    @pytest.mark.parametrize("a,p,c", [("2.375", 5, "-2"), ("0.01", 3, "7.5"), ("40", 17, "-39.5")])
    def test_power_sum_with_coefficient(self, a, p, c):
        # sum_k (a+k+c)/(a+k)^(p+1) = zeta(p, a) + c zeta(p+1, a), the
        # numerator offset a + c handed over exactly.
        a, c = mpf(a), mpf(c)
        value, error, _ = power_sum(a, p, mp.fadd(a, c, exact=True))
        # The callers count the one rounding of S to mp.prec.
        rounded = abs(value) * 2 ** (1 - mp.prec)
        with mp.workdps(60):
            truth = _zeta(p, a) + c * _zeta(p + 1, a)
            assert abs(value - truth) <= error + rounded
            assert error <= 1e-25 * abs(truth)

    def test_against_mpmath_zeta(self):
        # hurwitz_zeta is a short direct head plus the engine's tail.
        for s in range(2, 42):
            for a in ("1e-3", "0.07", "1", "3.5", "12", "130", "1e4"):
                a = mpf(a)
                r = hurwitz_zeta(s, a)
                with mp.workdps(60):
                    ref = _zeta(s, a)
                    assert abs(r.value - ref) <= r.error + 1e-28 * ref


class TestPolygamma:
    def test_oracles(self):
        for (_, n, x), ref in [(k, v) for k, v in ORACLE.items() if k[0] == "psi"]:
            r = polygamma(n, mpf(x))
            scale = max(1.0, abs(float(mpf(ref))))
            assert abs(r.value - mpf(ref)) < 1e-18 * scale

    def test_digamma_at_one(self):
        assert abs(polygamma(0, 1).value + mp.euler) < 1e-24

    def test_trigamma_at_one(self):
        assert abs(polygamma(1, 1).value - mp.pi ** 2 / 6) < 1e-24

    def test_domain(self):
        with pytest.raises(DomainError):
            polygamma(-1, 1.0)
        with pytest.raises(DomainError):
            polygamma(2, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=5),
        x=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_reflection_free_recurrence(self, n, x):
        # psi^(n)(x+1) - psi^(n)(x) = (-1)^n n! / x^(n+1)
        x = mpf(x)
        lhs = polygamma(n, x + 1).value - polygamma(n, x).value
        rhs = mpf(-1) ** n * mp.factorial(n) / x ** (n + 1)
        scale = max(1.0, abs(float(rhs)))
        assert abs(lhs - rhs) < 1e-18 * scale

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        log10_x=st.floats(min_value=-3.0, max_value=4.0),
    )
    # psi2(x) reads digamma out to x = 1e12.
    @example(n=0, log10_x=6.0)
    @example(n=0, log10_x=12.0)
    def test_error_covers_mpmath_psi(self, n, log10_x):
        # The claimed error includes rounding, not only truncation.
        x = mpf(10.0 ** log10_x)
        r = polygamma(n, x)
        with mp.workdps(60):
            assert abs(r.value - mp.psi(n, x)) <= r.error

    @pytest.mark.parametrize("n", range(1, 41))
    def test_error_covers_mpmath_psi_log_grid(self, n):
        # 19 half-decade points in [1e-3, 1e6], every order 1..40: the claim
        # holds, and the value keeps the working precision's digits.
        for k in range(19):
            x = mpf(10) ** (mpf(k) / 2 - 3)
            r = polygamma(n, x)
            with mp.workdps(60):
                truth = mp.psi(n, x)
                assert abs(r.value - truth) <= r.error, x
                assert abs(r.value - truth) <= 1e-19 * abs(truth), x

    def test_cost_bounded_in_order(self):
        # The kernel's integers do not grow with n, so a huge order costs
        # what a small one does.
        x = mpf("2.5")
        times = []
        for _ in range(3):
            start = time.perf_counter()
            polygamma(100000, x)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.005, times


class TestLogGamma:
    def test_oracles(self):
        for (_, x), ref in [(k, v) for k, v in ORACLE.items() if k[0] == "lgamma"]:
            assert abs(log_gamma(mpf(x)) - mpf(ref)) < 1e-20

    def test_integers(self):
        assert abs(log_gamma(1)) < 1e-25
        assert abs(log_gamma(5) - mp.log(24)) < 1e-24

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(min_value=0.2, max_value=50.0))
    def test_functional_equation(self, x):
        x = mpf(x)
        assert abs(log_gamma(x + 1) - log_gamma(x) - mp.log(x)) < 1e-20


class TestAsymptoticSum:
    """log Gamma, log G and digamma sum their Bernoulli asymptotic series on
    the fixed-point kernel asymptotic_sum, from fixed coefficient tables;
    psi^(n), n >= 1, is summed by power_sum and checked here beside them."""

    ORDERS = (0, 1, 2, 5, 10, 20, 40, 60, 100)

    @pytest.mark.parametrize("dps", [30, 50])
    def test_claims_cover_mpmath(self, dps):
        # Worst miss/claim over 40 seeded x in [1e-3, 1e4]: about 0.11 for
        # polygamma, 0.017 for log G and 0.041 for log_gamma's stated bound.
        rng = random.Random(20)
        worst = {"polygamma": 0, "log_barnes_g": 0, "log_gamma": 0}
        with mp.workdps(dps):
            for _ in range(40):
                x = mpf(10 ** rng.uniform(-3, 4))
                for n in self.ORDERS:
                    r = polygamma(n, x)
                    with mp.workdps(80):
                        miss = abs(r.value - mp.psi(n, x)) / r.error
                    worst["polygamma"] = max(worst["polygamma"], miss)
                r = log_barnes_g(x)
                with mp.workdps(60):
                    miss = abs(r.value - mp.log(mp.barnesg(x))) / r.error
                worst["log_barnes_g"] = max(worst["log_barnes_g"], miss)
                value = log_gamma(x)
                with mp.workdps(60):
                    truth = mp.loggamma(x)
                    shift = recurrence_shift(x)
                    magnitude = abs(truth) + sum(abs(mp.log(x + i)) for i in range(shift))
                    claim = (shift + 6) * rounding_unit() * magnitude
                    worst["log_gamma"] = max(worst["log_gamma"], abs(value - truth) / claim)
        assert max(worst.values()) <= 1, worst

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: EvalResult.error is a float, so a claim below "
        "the double range underflows to 0",
    )
    def test_claim_below_double_range(self):
        x = mpf("6518.68")
        r = polygamma(170, x)
        with mp.workdps(80):
            assert abs(r.value - mp.psi(170, x)) <= r.error

    # Digamma (n = 0) is the one polygamma order left on this kernel.
    @pytest.mark.parametrize("n", [0])
    @pytest.mark.parametrize("y", ["12", "12.7", "30", "1e4"])
    def test_stop_rules_match_mpf_terms(self, n, y):
        # The terms stop where the mpf terms B_2k/(2k) y^-2k of digamma's
        # series first fall below 10^-(dps+2) of the lead, or at the
        # table's last entry, which is never added.
        y = mpf(y)
        lead = 1 / (2 * y) - mp.log(y)
        small = stop_scale() * abs(lead)
        _, counted, omitted, count = asymptotic_sum(lead, DIGAMMA_COEFFS, y, n + 2, small)
        with mp.workdps(60):
            expected = len(DIGAMMA_COEFFS) - 1
            for k in range(1, len(DIGAMMA_COEFFS)):
                term = abs(mp.bernoulli(2 * k) / (2 * k * y ** (2 * k + n)))
                if term < small:
                    expected = k - 1
                    break
            k = expected + 1
            term = abs(mp.bernoulli(2 * k) / (2 * k * y ** (2 * k + n)))
            assert abs(omitted - term) <= counted
        assert count == expected

    @pytest.mark.parametrize(
        "table, e",
        [(STIRLING_COEFFS, 1), (DIGAMMA_COEFFS, 2), (BARNES_COEFFS, 2)],
        ids=["stirling", "digamma", "barnes"],
    )
    def test_fixed_tables_fall_at_the_shift_threshold(self, table, e):
        # Every caller sums at y >= 12, where each table's terms c_k
        # y^-(e+2k-2) fall strictly to its end, so a stop on growing terms
        # would never fire.  The terms turn at k = 37 (Barnes) and 38; a
        # table lengthened past that fails here.
        y = Fraction(12)
        terms = [abs(c) / y ** (e + 2 * k) for k, c in enumerate(table)]
        assert all(a > b for a, b in zip(terms, terms[1:]))

    @pytest.mark.parametrize(
        "x", [1e-300, 1e300, mpf("1e100000")], ids=["1e-300", "1e300", "mpf-1e100000"]
    )
    def test_extreme_arguments_return_promptly(self, x):
        # The kernel's integers stay near twice the working precision, and
        # no recurrence shift grows with x.
        calls = [lambda: log_gamma(x), lambda: log_barnes_g(x).value]
        calls += [lambda n=n: polygamma(n, x).value for n in (0, 40, 170)]
        for call in calls:
            start = time.perf_counter()
            value = call()
            assert time.perf_counter() - start < 0.05
            assert mp.isfinite(value)


class TestAboveWorkingPrecision:
    """The tables are built once at WORKING_DPS, so a higher mp.dps must not
    make the claimed errors any smaller than those digits support."""

    def test_rounding_unit_cache_matches_fresh_unit(self):
        # Keyed on mp.prec: 103 and 104 bits both read as 30 digits, but
        # round 10^-30 differently.
        def fresh():
            return mpf(10) ** -min(mp.dps, WORKING_DPS)

        for dps in (15, 30, 50):
            with mp.workdps(dps):
                assert rounding_unit() == fresh()
        with mp.workprec(104):
            assert mp.dps == WORKING_DPS
            assert rounding_unit() == fresh()
        assert rounding_unit() == fresh()

    def test_rounding_unit(self):
        assert rounding_unit() == mpf(10) ** -WORKING_DPS
        with mp.workdps(50):
            assert rounding_unit() == mpf(10) ** -WORKING_DPS
        with mp.workdps(15):
            assert rounding_unit() == mpf(10) ** -15

    @pytest.mark.parametrize("n,x", [(2, "3.7"), (3, "20"), (5, "0.3")])
    def test_errors_cover_at_fifty_digits(self, n, x):
        with mp.workdps(50):
            x = mpf(x)
            pg = polygamma(n, x)
            hz = hurwitz_zeta(n, x)
            with mp.workdps(80):
                assert abs(pg.value - mp.psi(n, x)) <= pg.error
                assert abs(hz.value - _zeta(n, x)) <= hz.error
