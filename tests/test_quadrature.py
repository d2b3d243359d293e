"""Adaptive quadrature engine: exactness, error-estimate honesty, and the
semi-infinite tail split, against closed-form integrals."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from polydgamma import DomainError
from polydgamma.quadrature import (
    IntegrandSpec,
    integrate_finite,
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
