"""Numerical integration: a float64 panel rule and mp.quad at fixed digits.

:func:`integrate_panels` applies the paired 7- and 15-point Gauss-Legendre
rules in float64, on fixed panels, to a whole array of integrands at once;
their difference serves as each panel's error.  :func:`integrate_de` runs
mpmath's double-exponential (tanh-sinh) quadrature, ``mp.quad``, at fixed
digits for the integrals that are values in their own right, and adds a
rounding allowance to its error estimate, which alone is not a bound.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from .specfun import rounding_unit

LOW_ORDER = 7
HIGH_ORDER = 15
# The most panels one call of an integrand of integrate_panels evaluates.
PANEL_BLOCK = 128

# The nonnegative nodes of the two rules with their weights, each the
# double nearest to mp.gauss_quadrature(order, "legendre"); the rules are
# symmetric.
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


def integrate_panels(f, lo: float, hi: float, panels: int, ulps: float = 0.0):
    """Integrals over (lo, hi) of a family of integrands, in one float64 pass.

    ``f(t)`` evaluates every integrand of the family elementwise at a column
    of nodes ``t`` (shape (m, 1)), giving shape (m, K).  It is called once,
    on the 22 nodes of every panel, m = 22 * panels; past PANEL_BLOCK panels
    it is called once per block of PANEL_BLOCK, so its arrays hold at most
    22 * PANEL_BLOCK * K values.  Each of ``panels`` equal panels is
    estimated with the 7- and 15-point Gauss-Legendre rules.  Returns
    (value, error) arrays of shape (K,): the 15-point sums, and

        sum over panels of |G15 - G7| + (ulps + c) 2^-53 sum w |f|,

    ``ulps`` being the relative error of each value of ``f`` in units of
    2^-53, and c = HIGH_ORDER + panels + 16 counting the two sums and 16
    units for the weights, the products and the nodes: a node rounded to a
    double moves its value of f by about 2^-53 of the node times f', which
    the 16 units cover for integrands smooth on the scale of a panel, as
    |G15 - G7| already assumes.  The panels' sums are added in panel order.
    NaN in ``f`` makes the value and error NaN.
    """
    x7, w7 = _float_rule(LOW_ORDER)
    x15, w15 = _float_rule(HIGH_ORDER)
    nodes = np.concatenate([x7, x15])
    half = (hi - lo) / (2 * panels)
    value = error = size = 0.0
    for first in range(0, panels, PANEL_BLOCK):
        p = np.arange(first, min(first + PANEL_BLOCK, panels))
        t = (lo + half * (2 * p + 1))[:, None] + half * nodes
        y = f(t.reshape(-1, 1)).reshape(len(p), len(nodes), -1)
        g7, g15 = half * (w7 @ y[:, :LOW_ORDER]), half * (w15 @ y[:, LOW_ORDER:])
        sums = g15, abs(g15 - g7), half * (w15 @ abs(y[:, LOW_ORDER:]))
        # Each running total enters as the first panel's addend, so the
        # panels add in order across blocks.
        for rows, total in zip(sums, (value, error, size)):
            rows[0] += total
        value, error, size = (np.add.accumulate(rows, axis=0)[-1] for rows in sums)
    c = HIGH_ORDER + panels + 16
    return value, error + (ulps + c) * 2.0**-53 * size


def integrate_de(f, points, ref, dps: int):
    """Integral of f over points[0]..points[-1] by mp.quad at ``dps`` digits.

    Each piece between consecutive ``points`` (the last may be mp.inf) is one
    mp.quad call, on which f must keep one sign, so the pieces' |values| sum
    to the integral of |f|.  mp.quad stops on an absolute error of about
    10^-dps, so it integrates f / f(ref), ``ref`` being a point where
    |f| is near its peak.  Returns (value, error) as mpf: the error is the
    pieces' own estimates plus the rounding allowance

        evaluations * rounding_unit() * integral of |f|,

    since mp.quad's estimate alone can fall short of the true error.
    """
    evaluations = 0
    with mp.workdps(dps):
        scale = f(mpf(ref))

        def scaled(t):
            nonlocal evaluations
            evaluations += 1
            return f(t) / scale

        value = error = size = mpf(0)
        for lo, hi in zip(points, points[1:]):
            v, e = mp.quad(scaled, [lo, hi], error=True)
            value, error, size = value + v, error + e, size + abs(v)
        error += evaluations * rounding_unit() * size
        return value * scale, error * abs(scale)
