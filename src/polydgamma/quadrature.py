"""Adaptive numerical integration on finite intervals and on [0, inf).

The engine is a globally adaptive paired Gauss rule: each interval is
estimated with 7-point and 15-point Gauss-Legendre rules, which share only
the midpoint, so an interval costs 22 evaluations; their difference serves
as the local error, and the worst interval is bisected until the summed
error meets the tolerance.  Semi-infinite integrals are split into an
adaptive finite part plus an analytic exponential tail bound.
:func:`integrate_panels` applies the same pair of rules in float64, on
fixed panels, to a whole array of integrands at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError

MAX_SUBDIVISIONS = 2000

LOW_ORDER = 7
HIGH_ORDER = 15


@dataclass(frozen=True)
class IntegrandSpec:
    """A pure integrand with decay/origin metadata.

    ``decay_rate`` is the dominant exp(-r*t) rate for t -> inf (0 if none);
    ``origin_order`` the leading power of t as t -> 0+ (>= 0: the integrand
    stays bounded at the origin), which also bounds its polynomial growth.
    ``evaluate`` must be pure: the engine may reuse and reorder calls freely.
    """

    evaluate: Callable
    decay_rate: float = 0.0
    origin_order: int = 0

    def __post_init__(self):
        if self.origin_order < 0:
            raise DomainError("origin_order must be non-negative")


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    error_estimate: float
    evaluations: int


@lru_cache(maxsize=None)
def _gauss_rule(order: int, prec_bits: int):
    """Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration."""
    with mp.workprec(prec_bits + 40):
        nodes = []
        for i in range(1, order + 1):
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (order + mpf(1) / 2))
            for _ in range(60):
                p0, p1 = mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(2) ** (-prec_bits - 20):
                    break
            p0, p1 = mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((+x, +w))
    return tuple(nodes)


# The nonnegative nodes of the two rules with their weights, each the
# double nearest to _gauss_rule(order, 200); the rules are symmetric.
_FLOAT_HALF_RULES = {
    LOW_ORDER: (
        (0.0, 0.4179591836734694),
        (0.4058451513773972, 0.3818300505051189),
        (0.7415311855993945, 0.27970539148927664),
        (0.9491079123427585, 0.1294849661688697),
    ),
    HIGH_ORDER: (
        (0.0, 0.2025782419255613),
        (0.20119409399743451, 0.19843148532711158),
        (0.3941513470775634, 0.1861610000155622),
        (0.5709721726085388, 0.16626920581699392),
        (0.7244177313601701, 0.13957067792615432),
        (0.8482065834104272, 0.10715922046717194),
        (0.937273392400706, 0.07036604748810812),
        (0.9879925180204854, 0.03075324199611727),
    ),
}


@lru_cache(maxsize=None)
def _float_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1] as float64 arrays."""
    x, w = np.array(_FLOAT_HALF_RULES[order]).T
    return np.concatenate([-x[:0:-1], x]), np.concatenate([w[:0:-1], w])


def _fixed_gauss(f, a, b, order):
    half = (b - a) / 2
    mid = (a + b) / 2
    total = mpf(0)
    for x, w in _gauss_rule(order, mp.prec):
        total += w * f(mid + half * x)
    return half * total


def integrate_finite(f: IntegrandSpec, a, b, tol: float) -> QuadratureResult:
    """Adaptive integral of f over (a, b) with absolute tolerance ``tol``."""
    a, b = mpf(a), mpf(b)
    if not a < b:
        raise DomainError("integrate_finite requires a < b")
    if tol <= 0:
        raise DomainError("tolerance must be positive")

    evaluations = 0

    def estimate(lo, hi):
        nonlocal evaluations
        low = _fixed_gauss(f.evaluate, lo, hi, LOW_ORDER)
        high = _fixed_gauss(f.evaluate, lo, hi, HIGH_ORDER)
        evaluations += LOW_ORDER + HIGH_ORDER
        return high, abs(high - low)

    value, err = estimate(a, b)
    # Heap of (-error, tiebreak, lo, hi, value, error).
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_err = err
    splits = 0
    while total_err > tol and heap:
        if splits >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                "max subdivisions reached in integrate_finite",
                best=total_value,
                error_estimate=float(total_err),
            )
        _, _, lo, hi, val, e = heapq.heappop(heap)
        mid = (lo + hi) / 2
        lv, le = estimate(lo, mid)
        rv, re = estimate(mid, hi)
        total_value += lv + rv - val
        total_err += le + re - e
        counter += 1
        heapq.heappush(heap, (-le, counter, lo, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, hi, rv, re))
        splits += 1
    return QuadratureResult(
        value=total_value, error_estimate=float(total_err), evaluations=evaluations
    )


def integrate_panels(f, lo: float, hi: float, panels: int, ulps: float = 0.0):
    """Integrals over (lo, hi) of a family of integrands, in one float64 pass.

    ``f(t)`` evaluates every integrand of the family elementwise at a column
    of nodes ``t`` (shape (m, 1)), giving shape (m, K); it is called once per
    panel, which keeps the arrays small.  Each of ``panels`` equal panels is
    estimated with the 7- and 15-point Gauss-Legendre rules of
    :func:`integrate_finite`.  Returns (value, error) arrays of shape (K,):
    the 15-point sums, and

        sum over panels of |G15 - G7| + (ulps + c) 2^-53 sum w |f|,

    ``ulps`` being the relative error of each value of ``f`` in units of
    2^-53, and c = HIGH_ORDER + panels + 16 counting the two sums and 16
    units for the weights, the products and the nodes: a node rounded to a
    double moves its value of f by about 2^-53 of the node times f', which
    the 16 units cover for integrands smooth on the scale of a panel, as
    |G15 - G7| already assumes.  NaN in ``f`` makes the value and error NaN.
    """
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


def _tail_cutoff(f: IntegrandSpec, tol: float):
    """Pick T with an explicit exponential tail bound <= tol/2.

    For integrands bounded by |f(T)| * exp(-r (t-T)) * polynomial growth,
    int_T^inf |f| <= 2 |f(T)| / r once r*T clears twice the polynomial
    degree (incomplete-gamma comparison); T is grown until that holds.
    """
    r = f.decay_rate
    T = 2.0 * (f.origin_order + 4) / r
    bound = None
    for _ in range(200):
        bound = 2 * abs(f.evaluate(mpf(T))) / r
        if bound <= tol / 2:
            return mpf(T), bound
        T *= 1.4
    raise ConvergenceError(
        "could not find a tail cutoff meeting the tolerance",
        best=None,
        error_estimate=float(bound),
    )


def integrate_semi_infinite(f: IntegrandSpec, tol: float) -> QuadratureResult:
    """Integral of f over [0, inf) for exponentially decaying integrands."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if f.decay_rate <= 0:
        raise DomainError(
            "integrate_semi_infinite requires a positive declared decay_rate"
        )
    T, tail_bound = _tail_cutoff(f, tol)
    finite = integrate_finite(f, 0, T, tol / 2)
    return QuadratureResult(
        value=finite.value,
        error_estimate=finite.error_estimate + float(tail_bound),
        evaluations=finite.evaluations,
    )
