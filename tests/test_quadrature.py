"""Adaptive quadrature engine: exactness, error-estimate honesty, and the
semi-infinite tail split, against closed-form integrals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import DomainError
from polydgamma.quadrature import (
    HIGH_ORDER,
    LOW_ORDER,
    IntegrandSpec,
    _float_rule,
    _gauss_rule,
    integrate_finite,
    integrate_panels,
    integrate_semi_infinite,
)


class TestFinite:
    def test_polynomial_exactness(self):
        # Gauss-Legendre 15 integrates polynomials up to degree 29 exactly.
        r = integrate_finite(
            IntegrandSpec(evaluate=lambda t: 3 * t * t - 1), 0, 1, 1e-12
        )
        assert abs(r.value) < 1e-25

        r = integrate_finite(
            IntegrandSpec(evaluate=lambda t: 7 * t ** 6), 0, 2, 1e-12
        )
        assert abs(r.value - 2 ** 7) < 1e-22

    def test_transcendental(self):
        r = integrate_finite(IntegrandSpec(evaluate=mp.sin), 0, 2, 1e-12)
        assert abs(r.value - (1 - mp.cos(2))) < 1e-12
        assert abs(r.value - (1 - mp.cos(2))) <= max(r.error_estimate, 1e-20)

    def test_domain_errors(self):
        spec = IntegrandSpec(evaluate=lambda t: t)
        with pytest.raises(DomainError):
            integrate_finite(spec, 1, 1, 1e-10)
        with pytest.raises(DomainError):
            integrate_finite(spec, 0, 1, 0.0)
        for order in (-1, -0.5):
            with pytest.raises(DomainError):
                IntegrandSpec(evaluate=lambda t: t, origin_order=order)

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.floats(min_value=0.5, max_value=8.0),
        tol_exp=st.integers(min_value=6, max_value=12),
    )
    def test_tolerance_honored(self, b, tol_exp):
        # int_0^b t e^(-t) dt = 1 - (1+b) e^(-b); actual error <= estimate+tol.
        tol = 10.0 ** (-tol_exp)
        r = integrate_finite(
            IntegrandSpec(evaluate=lambda t: t * mp.exp(-t)), 0, b, tol
        )
        exact = 1 - (1 + mpf(b)) * mp.exp(-mpf(b))
        assert abs(r.value - exact) <= r.error_estimate + tol

    def test_halving_tolerance_does_not_worsen(self):
        spec = IntegrandSpec(evaluate=lambda t: mp.exp(-t * t) * mp.cos(5 * t))
        loose = integrate_finite(spec, 0, 3, 1e-6)
        tight = integrate_finite(spec, 0, 3, 5e-7)
        assert tight.error_estimate <= max(loose.error_estimate, 5e-7)
        assert tight.evaluations >= loose.evaluations


class TestPanels:
    @pytest.mark.parametrize("order", [LOW_ORDER, HIGH_ORDER])
    def test_float_rule_is_the_mp_rule_rounded(self, order):
        x, w = _float_rule(order)
        with mp.workdps(60):
            exact = sorted(_gauss_rule(order, 200))
        assert list(x) == [float(node) for node, _ in exact]
        assert list(w) == [float(weight) for _, weight in exact]

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

    def test_nan_propagates(self):
        value, error = integrate_panels(
            lambda t: np.where(t < 0.5, np.nan, t) * np.ones(2), 0.0, 1.0, 2
        )
        assert np.isnan(value).all() and np.isnan(error).all()


class TestSemiInfinite:
    def test_gamma_moments(self):
        # int_0^inf t^2 e^(-t) dt = 2
        r = integrate_semi_infinite(
            IntegrandSpec(
                evaluate=lambda t: t * t * mp.exp(-t), decay_rate=1.0, origin_order=2
            ),
            1e-10,
        )
        assert abs(r.value - 2) < 1e-10

        # int_0^inf t^3 e^(-2t) dt = 6/16
        r = integrate_semi_infinite(
            IntegrandSpec(
                evaluate=lambda t: t ** 3 * mp.exp(-2 * t),
                decay_rate=2.0,
                origin_order=3,
            ),
            1e-10,
        )
        assert abs(r.value - mpf(6) / 16) < 1e-10

    def test_requires_decay_rate(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(
                IntegrandSpec(evaluate=lambda t: mp.exp(-t)), 1e-8
            )

    def test_error_estimate_covers_truth(self):
        r = integrate_semi_infinite(
            IntegrandSpec(
                evaluate=lambda t: mp.exp(-t) * mp.cos(t),
                decay_rate=1.0,
                origin_order=0,
            ),
            1e-10,
        )
        assert abs(r.value - mpf(1) / 2) <= r.error_estimate + 1e-10
