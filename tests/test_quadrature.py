"""Quadrature: the mpf Gauss-Legendre pair and the float64 panel rule against
closed-form integrals, both rules' tables against mpmath's Gauss-Legendre
nodes, and the float64 integral of the asymptotic expansion's Bernoulli
remainder against 30-digit mp.quad."""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import (
    ConvergenceError,
    DomainError,
    PolyDoubleArg,
    polydg,
    psi2_asymptotic,
    verify,
)
from polydgamma.polydg import _remainder_integral
from polydgamma.verify import lemma_I1_grid
from polydgamma.quadrature import (
    COMPANION_ORDER,
    GAUSS_ORDER,
    HIGH_ORDER,
    LOW_ORDER,
    MAX_GAUSS_PANELS,
    PANEL_BLOCK,
    _float_rule,
    _gauss_pair,
    _mp_rule,
    integrate_gauss,
    integrate_panels,
)


def on_raw(g):
    """g, an mpf function, as the raw-tuple integrand integrate_gauss takes;
    it also counts its calls in .calls."""

    def f(t):
        f.calls += 1
        return mpf(g(mp.make_mpf(t)))._mpf_

    f.calls = 0
    return f


class TestFinite:
    def test_polynomial_exactness(self):
        # At 30 digits the pair gets low-degree polynomials to the working
        # precision; 3t^2 - 1 is split at its root so each piece keeps a sign.
        with mp.workdps(30):
            value, error = integrate_gauss(
                on_raw(lambda t: 3 * t * t - 1), [0, 1 / mp.sqrt(3), 1]
            )
            assert abs(value) < 1e-25 and error < 1e-25

            value, error = integrate_gauss(on_raw(lambda t: 7 * t**6), [0, 2])
            assert abs(value - 2**7) < 1e-22 and error < 1e-22

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.floats(min_value=0.5, max_value=8.0),
        tol_exp=st.integers(min_value=6, max_value=12),
    )
    def test_tolerance_honored(self, b, tol_exp):
        # int_0^b t e^(-t) dt = 1 - (1+b) e^(-b).  Three digits above the
        # tolerance the claim is within it and covers the actual error.
        tol = 10.0 ** (-tol_exp)
        points = [0, 1, b] if b > 1 else [0, b]
        with mp.workdps(tol_exp + 3):
            value, error = integrate_gauss(on_raw(lambda t: t * mp.exp(-t)), points)
        with mp.workdps(40):
            exact = 1 - (1 + mpf(b)) * mp.exp(-mpf(b))
            assert abs(value - exact) <= error <= tol


class TestGauss:
    @pytest.mark.parametrize("order", [COMPANION_ORDER, GAUSS_ORDER])
    def test_table_is_the_mp_rule(self, order):
        # The table's 45 decimals against mpmath's nodes at 50 digits.
        with mp.workdps(50):
            exact = sorted((x, w) for x, w in zip(*mp.gauss_quadrature(order, "legendre")) if x > 0)
            table = [tuple(map(mp.make_mpf, pair)) for pair in _mp_rule(order)]
            assert len(table) == len(exact) == order // 2
            for (x, w), (tx, tw) in zip(exact, table):
                assert abs(tx - x) <= mpf("6e-46") and abs(tw - w) <= mpf("6e-46")

    def test_exact_degrees(self):
        # G64 is exact to degree 127 and G32 to degree 63.  At degree 64 G32
        # misses 1/65 by (32!)^4/(65 (64!)^2) = 4.5e-39, far above the
        # table's 45 decimals.
        with mp.workdps(50):
            one, zero = mpf(1)._mpf_, mpf(0)._mpf_
            for k in range(2 * GAUSS_ORDER):
                g64, g32 = _gauss_pair(on_raw(lambda t: t**k), zero, one, mp.prec)
                assert abs(g64 - mpf(1) / (k + 1)) < mpf("1e-43"), k
                if k < 2 * COMPANION_ORDER:
                    assert abs(g32 - mpf(1) / (k + 1)) < mpf("1e-43"), k
            _, g32 = _gauss_pair(on_raw(lambda t: t**64), zero, one, mp.prec)
            miss = mpf(1) / 65 - g32
            assert mpf("4.4e-39") < miss < mpf("4.6e-39")

    def test_near_pole_bisects_and_claim_covers(self):
        # 1/(s^2 + 1e-6) has poles at +-0.001 i: one panel of [-1, 1] cannot
        # resolve them, so the pair bisects toward s = 0.
        with mp.workdps(30):
            f = on_raw(lambda s: 1 / (s * s + mpf("1e-6")))
            value, error = integrate_gauss(f, [-1, 1])
            exact = 2000 * mp.atan(1000)
            assert f.calls > 2 * (GAUSS_ORDER + COMPANION_ORDER)
            assert abs(value - exact) <= error <= mpf("1e-24") * exact

    def test_panel_cap_raises(self):
        # Poles at +-1e-15 i need about 50 halvings on each side of 0.
        with mp.workdps(30):
            f = on_raw(lambda s: 1 / (s * s + mpf("1e-30")))
            with pytest.raises(ConvergenceError, match=f"more than {MAX_GAUSS_PANELS} panels"):
                integrate_gauss(f, [-1, 1])
            assert f.calls <= 2 * MAX_GAUSS_PANELS * 2 * (GAUSS_ORDER + COMPANION_ORDER)


class TestPanels:
    @pytest.mark.parametrize("order", [LOW_ORDER, HIGH_ORDER])
    def test_float_rule_is_the_mp_rule_rounded(self, order):
        x, w = _float_rule(order)
        with mp.workdps(60):
            exact = sorted(zip(*mp.gauss_quadrature(order, "legendre")))
            # The middle node comes out as about 1e-61, not 0.
            nodes = [0.0 if abs(node) < 1e-50 else float(node) for node, _ in exact]
            weights = [float(weight) for _, weight in exact]
        assert list(x) == nodes
        assert list(w) == weights

    def test_polynomial_exactness(self):
        # t^k for k = 0..29 at once: the 15-point rule is exact, so only the
        # 7-point rule's miss above degree 13 shows in the error.
        k = np.arange(30)
        value, error = integrate_panels(lambda t: t**k, 0.0, 1.0, 2)
        assert np.all(abs(value - 1 / (k + 1)) <= 4e-16 / (k + 1))
        assert np.all(error[:14] < 1e-13) and np.all(error[14:] > 1e-13)

    def test_error_covers_truth(self):
        # int_0^2 e^(c t) dt = (e^(2c) - 1)/c for a family of rates c.
        c = np.array([-40.0, -3.0, 0.5, 1.0, 7.0, 25.0])
        for panels in (1, 2, 5):
            value, error = integrate_panels(lambda t: np.exp(c * t), 0.0, 2.0, panels)
            exact = [(mp.exp(2 * mpf(ci)) - 1) / ci for ci in c]
            assert all(abs(v - e) <= err for v, e, err in zip(value, exact, error))

    @staticmethod
    def _panel_by_panel(f, lo, hi, panels, ulps=0.0):
        """integrate_panels as the loop it replaced: one call of f per panel,
        the panels' sums added one at a time."""
        x7, w7 = _float_rule(LOW_ORDER)
        x15, w15 = _float_rule(HIGH_ORDER)
        nodes = np.concatenate([x7, x15])[:, None]
        half = (hi - lo) / (2 * panels)
        value = error = size = 0.0
        for p in range(panels):
            y = f(lo + half * (2 * p + 1) + half * nodes)
            g7, g15 = half * (w7 @ y[:LOW_ORDER]), half * (w15 @ y[LOW_ORDER:])
            value = value + g15
            error = error + abs(g15 - g7)
            size = size + half * (w15 @ abs(y[LOW_ORDER:]))
        c = HIGH_ORDER + panels + 16
        return value, error + (ulps + c) * 2.0**-53 * size

    @pytest.mark.parametrize("panels", [1, 4, 51, PANEL_BLOCK, 2 * PANEL_BLOCK + 5])
    @pytest.mark.parametrize("family", [1, 2, 30])
    def test_bit_equal_to_panel_by_panel_loop(self, panels, family):
        c = np.linspace(-7.0, 3.0, family)
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.sin(c * t) * np.exp(-t) + t**3 / 7

        value, error = integrate_panels(f, 0.3, 11.0, panels, ulps=5)
        assert calls == [(22 * min(panels - k, PANEL_BLOCK), 1)
                         for k in range(0, panels, PANEL_BLOCK)]
        expected = self._panel_by_panel(f, 0.3, 11.0, panels, 5)
        assert value.tobytes() == expected[0].tobytes()
        assert error.tobytes() == expected[1].tobytes()

    def test_callers_bit_equal_to_panel_by_panel_loop(self, monkeypatch):
        # The remainder integrals of the asymptotic route and the audit, and
        # figure 4's I_1 columns.
        cases = [(0, 2.0, 3, 0), (1, 0.05, 6, 0), (3, 12.0, 6, 4), (38, 1e-3, 6, 1),
                 (8, 100.0, 12, 0)]
        a = np.linspace(1.01, 1.99, 100)

        def run():
            grids = [lemma_I1_grid(n, a) for n in (3, 4)]
            return ([_remainder_integral(*case) for case in cases],
                    [[part.tobytes() for part in grid] for grid in grids])

        fast = run()
        monkeypatch.setattr(polydg, "integrate_panels", self._panel_by_panel)
        monkeypatch.setattr(verify, "integrate_panels", self._panel_by_panel)
        assert fast == run()

    def test_nan_propagates(self):
        value, error = integrate_panels(
            lambda t: np.where(t < 0.5, np.nan, t) * np.ones(2), 0.0, 1.0, 2
        )
        assert np.isnan(value).all() and np.isnan(error).all()


class TestSemiInfinite:
    def test_error_estimate_covers_truth(self):
        # int_0^inf e^(-t) cos^2 t dt = 1/2 + 1/10, on [0, 1] through
        # t = u/(1-u); the integrand keeps its sign, as integrate_gauss's
        # rounding allowance needs.
        def g(u):
            t = u / (1 - u)
            return mp.exp(-t) * mp.cos(t) ** 2 / (1 - u) ** 2

        for dps in (15, 20, 30):
            with mp.workdps(dps):
                value, error = integrate_gauss(on_raw(g), [0, mpf(1) / 2, 1])
            with mp.workdps(40):
                assert abs(value - mpf(3) / 5) <= error <= 10.0 ** (3 - dps)


@lru_cache(maxsize=None)
def _remainder_reference(p, x, n_blocks, first):
    """The remainder integral by 30-digit mp.quad, broken at the peak and at 3."""
    with mp.workdps(30):
        x = mpf(x)

        def integrand(t):
            rem, tk = t / mp.expm1(t), mpf(1)
            for k in range(2 * n_blocks + 1):
                if k > 0:
                    tk *= t / k
                if k >= first:
                    rem -= mp.bernoulli(k) * tk
            return t**p * mp.exp(-x * t) * rem

        peak = mpf(p + 2 * n_blocks + 2) / x
        return mp.quad(integrand, sorted({mpf(0), peak, mpf(3)}) + [mp.inf])


def _remainder_closed_form(p, x, n_blocks, first):
    """The remainder integral in closed form at 60 digits,

    (p+1)! zeta(p+2, x+1) - sum_{k=first}^{2N} B_k (p+k)! / (k! x^(p+k+1)),

    from t/(e^t - 1) = sum_{j>=1} t e^(-jt) term by term."""
    with mp.workdps(60):
        x = mpf(x)
        # (p+1)! zeta(p+2, a) = (-1)^p psi^(p+1)(a); mp.zeta is no oracle
        # at 60 digits (2.3e-10 relative off at (36, 694.94)).
        value = (-1) ** p * mp.psi(p + 1, x + 1)
        for k in range(first, 2 * n_blocks + 1):
            value -= mp.bernoulli(k) * mp.factorial(p + k) / (
                mp.factorial(k) * x ** (p + k + 1)
            )
        return value


# (p, x, N, first): the audit's four derived remainders tau_n (p = n - 2),
# its printed one (p = n - 3, the Bernoulli sum from k = 1), and (4, 0.5, 6).
REMAINDER_CASES = [
    (0, 2.0, 3, 0),
    (1, 10.0, 4, 0),
    (3, 1.0, 6, 0),
    (1, 2.0, 4, 0),
    (0, 2.0, 4, 1),
    (2, 0.5, 6, 0),
]


class TestRemainderIntegral:
    def test_matches_thirty_digit_quad(self):
        for p, x, n_blocks, first in REMAINDER_CASES:
            value, _ = _remainder_integral(p, x, n_blocks, first)
            ref = _remainder_reference(p, x, n_blocks, first)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(float(ref))), (p, x)

    def test_claim_covers_error(self):
        for p, x, n_blocks, first in REMAINDER_CASES:
            value, error = _remainder_integral(p, x, n_blocks, first)
            ref = _remainder_reference(p, x, n_blocks, first)
            assert abs(value - ref) <= error, (p, x)
            assert error <= 1e-12 * max(1.0, abs(float(ref))), (p, x)

    def test_far_out_stops_below_the_taylor_split(self):
        # At x = 200 the mass lies near t = 0.04: the segments stop well below
        # t = 3, and the bound past them (moments of t^m e^(-xt) in closed
        # form) covers everything beyond.
        value, error = _remainder_integral(0, 200.0, 3)
        ref = _remainder_reference(0, 200.0, 3, 0)
        assert abs(value - ref) <= error <= 1e-12 * abs(float(ref))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _remainder_integral(0, 1e-200, 3),
            lambda: _remainder_integral(0, 0.0, 3),
            lambda: psi2_asymptotic(PolyDoubleArg(2, "1e-300"), 6),
            lambda: psi2_asymptotic(PolyDoubleArg(62, "1e-3"), 6),
        ],
        ids=["tau-x-1e-200", "tau-x-0", "psi2-x-1e-300", "psi2-n-62-x-1e-3"],
    )
    def test_beyond_a_double_is_a_domain_error(self, call):
        # These once raised a bare OverflowError after numpy RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="does not fit a finite double"):
                call()

    @pytest.mark.parametrize("first", [0, 1])
    def test_returns_wherever_tau_fits_a_double(self, first):
        # At p = 0, N = 3, tau is about -1/(42 x^7): -2.4e299 at x = 1e-43,
        # -8.5e307 at 6e-45 and past the largest double below 5.4e-45.  The
        # bound beyond the panels once summed the moments 6!/x^7 unscaled by
        # |B_6|/6! and overflowed from x = 1.78e-44 down.
        xs = [10.0 ** (-k / 4) for k in range(172, 177)] + [1.78e-44, 6e-45]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in xs:
                value, error = _remainder_integral(0, x, 3, first)
                ref = _remainder_closed_form(0, x, 3, first)
                assert abs(value - ref) <= error <= 1e-13 * abs(ref), x
            with pytest.raises(DomainError, match="does not fit a finite double"):
                _remainder_integral(0, 5e-45, 3, first)

    @pytest.mark.parametrize("p, decades", [(1, (38, 40)), (3, (30, 32))])
    def test_sweep_toward_overflow_warns_nothing(self, p, decades):
        # Where the panels overflow part-way (x = 10^-38.75 at p = 1), the
        # final sum once added inf to -inf and warned before DomainError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(4 * decades[0], 4 * decades[1] + 1):
                try:
                    _remainder_integral(p, 10.0 ** (-k / 4), 3)
                except DomainError:
                    pass
