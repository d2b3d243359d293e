"""Logarithmic derivatives of the double gamma (Barnes G) function.

The central object is psi2^(n)(x), n >= 2, defined canonically by the series

    psi2^(n)(x) = (-1)^(n+1) n! sum_{k>=0} (1+k) / (x+k)^(n+1),   x > 0,

together with the first logarithmic derivative psi2(x) (from digamma) and
log G(x) itself.  psi2^(n) is evaluated by four routes - direct series,
polygamma combination, Laplace-transform quadrature, and a Bernoulli
asymptotic expansion with an exact integral remainder - which cross-check
one another.  The series and the quadrature are independent of
:func:`polygamma`; the polygamma combination and the expansion's closed form
(psi^(n)(x+1) and psi^(n-1)(x+1)) are not.  :func:`polygamma` sums
psi^(n), n >= 1, as n! zeta(n+1, x) on the series' own kernel, so the
polygamma route checks the combination formula, not the summation.  The
series is canonical: ``auto`` and the cache use it, and the other routes are
explicit choices that the identity audit also checks.  The routes that combine other results compute
their formulas in :class:`Approx`, so their claimed errors count the
rounding of the combination.
The series of psi2^(n) is summed by the one Euler-Maclaurin engine in
:mod:`specfun`, :func:`power_sum`; log G comes from Barnes' asymptotic
expansion, whose Bernoulli series :func:`asymptotic_sum` sums, as it does
those of log Gamma and digamma.  Both kernels run in Python integers a
little wider than the working precision, with exact coefficients, and count
their own floors.  The quadrature route runs the 64/32-point Gauss-Legendre
pair of :func:`integrate_gauss` on the bracket of the Laplace integral that
holds all but 10^-(INTEGRAL_DPS+2) of it.
Differentiation in x is closed: d/dx psi2^(n) = psi2^(n+1), so
derivative-sign questions downstream reduce to direct evaluations.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    fone,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
)

from .errors import DomainError
from .quadrature import integrate_gauss, integrate_panels
from .specfun import (
    BARNES_COEFFS,
    CONSTANTS,
    SHIFT_THRESHOLD,
    Approx,
    EvalResult,
    EM_WEIGHTS,
    _BERNOULLI_FRACTIONS as _B,
    asymptotic_sum,
    log_gamma,
    polygamma,
    power_sum,
    recurrence_shift,
    rounding_unit,
    shift_products,
    stop_scale,
)

METHODS = ("auto", "series", "polygamma", "integral", "asymptotic")

# Digits of the integral route, and the scale of its bracket's tails
# (10^-(INTEGRAL_DPS+2) of the integral).  Its values are good to about
# 1e-22 relative and claim 1.3e-18 to 3.8e-18; at 30 digits the route takes
# 2 to 3 times as long.
INTEGRAL_DPS = 20

# The density's argument t at which the Gauss-Legendre integrals cut their
# pieces: its poles t = +-2 pi i k lie at a fixed ratio to the width of a
# piece below, and e^(-t) < 5e-18 above.
DENSITY_CUT = 40

# Bernoulli blocks of the asymptotic route; the first omitted one is its error.
ASYMPTOTIC_TERMS = 6


@dataclass(frozen=True)
class PolyDoubleArg:
    """Derivative order n >= 2 and argument x > 0."""

    n: int
    x: mpf

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("derivative order must be >= 2")
        object.__setattr__(self, "x", mpf(self.x))
        if not self.x > 0:
            raise DomainError("argument must be positive")


def _density(n: int, t, wp: int):
    """The Laplace density t^n / (1 - exp(-t))^2 of (-1)^(n+1) psi2^(n), at
    wp bits, on the raw mpf tuple t > 0.

    Raw mpmath.libmp operations, a few units of 2^-wp off, with no mpf
    objects or precision contexts; the exponential is most of the cost.
    """
    mag = t[2] + t[3]
    if mag > wp.bit_length():
        # t > wp: exp(-t) < 2^-(wp+2), so 1 - exp(-t) rounds to 1.
        em = fone
    else:
        # 1 - exp(-t) with the bits its cancellation costs.
        em = mpf_sub(fone, mpf_exp(mpf_neg(t), wp + max(0, -mag) + 8), wp)
    return mpf_div(mpf_pow_int(t, n, wp), mpf_mul(em, em, wp), wp)


def psi2_series(arg: PolyDoubleArg) -> EvalResult:
    """Canonical series evaluation; every other route is audited against it.

    The sum of (1+k)/(x+k)^(n+1) is :func:`power_sum` at (x, n) with
    numerator offset 1, its tail corrections stopping at 10^-(dps+2) of the
    head plus the tail's leading integral.  The error is n! times the
    kernel's (truncation and its counted floors) plus |value| * H *
    rounding_unit(), H being its head terms, and the 1e-30 floor.
    """
    n, x = arg.n, arg.x
    fact = mp.factorial(n)
    s, err, head_terms = power_sum(x, n, 1)
    value = mpf(-1) ** (n + 1) * fact * s
    rounding = abs(value) * head_terms * rounding_unit()
    return EvalResult(
        value=value, error=float(fact * err + rounding) + 1e-30, method="series"
    )


def _floored(a: Approx, method: str) -> EvalResult:
    """``a`` as an EvalResult, its error plus the routes' absolute 1e-30 floor."""
    return EvalResult(value=a.value, error=float(a.error) + 1e-30, method=method)


def psi2_from_polygamma(arg: PolyDoubleArg) -> EvalResult:
    """psi2^(n)(x) = -n psi^(n-1)(x) + (1-x) psi^(n)(x)."""
    n, x = arg.n, arg.x
    lo = Approx.of(polygamma(n - 1, x))
    hi = Approx.of(polygamma(n, x))
    return _floored(-n * lo + Approx.rounded(1 - x) * hi, "polygamma")


# The integral route's bracket ends lie on this grid in s, so they are exact
# doubles.
_CUT_GRID = 8


def _log_sum(logs) -> float:
    """log of the sum of exp(v) over v: -inf if every v is."""
    top = max(logs)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _grid_cut(ok, k_in: int, k_out: int) -> int:
    """The grid index from k_in to k_out nearest k_out at which ``ok`` holds.

    ``ok`` holds at k_in and changes at most once on the way; bisection.
    """
    if ok(k_out):
        return k_out
    while abs(k_out - k_in) > 1:
        k = (k_in + k_out) // 2
        if ok(k):
            k_in = k
        else:
            k_out = k
    return k_in


def _laplace_bracket(n: int, x):
    """Cuts s_lo < n < s_hi of J = int_0^inf e^(-s) f(s/x) ds and its tails.

    f is the density of order n.  From 1 + t/2 <= t/(1 - e^(-t)) <= 1 + t,
    f(t) lies between t^(n-2) (1 + t/2)^2 and t^(n-2) (1 + t)^2, so

        J >= L = (n-2)!/x^(n-2) + (n-1)!/x^(n-1) + n!/(4 x^n)

    and each tail is at most sum c_m x^-m int e^(-s) s^m ds over
    (m, c_m) = (n-2, 1), (n-1, 2), (n, 1): incomplete gamma functions,
    bounded in closed form (the second by DLMF 8.7.1) as

        Gamma(m+1, S) <= S^(m+1) e^(-S) / (S - m),                   S > m,
        gamma(m+1, S) <= S^(m+1)/(m+1) min(1, e^(-S) (m+2)/(m+2-S)), S < m+2.

    All of it is summed in logs, so no n or x overflows.  Each cut is the
    one nearest the peak, on the grid of 1/_CUT_GRID in [0, n-1] and
    [n+1, inf), whose tail bound stays below 10^-(INTEGRAL_DPS+2) L / 2.
    Returns (s_lo, s_hi, tails, L): the cuts as floats, twice the sum of
    the two tail bounds and L, as mpf (the factor covers the rounding of
    the logs).
    """
    log_x = float(mp.log(x))

    def terms(coeffs):
        return [(m, math.log(c) - m * log_x) for m, c in zip((n - 2, n - 1, n), coeffs)]

    majorant = terms((1, 2, 1))
    log_floor = _log_sum([lc + math.lgamma(m + 1) for m, lc in terms((1, 1, 0.25))])
    target = log_floor - (INTEGRAL_DPS + 2) * math.log(10) - math.log(2)

    def below(k):
        s = k / _CUT_GRID
        if s == 0:
            return -math.inf
        return _log_sum([
            lc + (m + 1) * math.log(s) - math.log(m + 1)
            + min(0.0, math.log(m + 2) - s - math.log(m + 2 - s))
            for m, lc in majorant
        ])

    def above(k):
        s = k / _CUT_GRID
        return _log_sum([
            lc + (m + 1) * math.log(s) - s - math.log(s - m) for m, lc in majorant
        ])

    k_lo = _grid_cut(lambda k: below(k) <= target, 0, _CUT_GRID * (n - 1))
    # Above the peak, steps double from n + 1 until the tail is small enough.
    k_out, step = _CUT_GRID * (n + 1), _CUT_GRID * math.ceil(8 + math.sqrt(n))
    k_hi = k_out + step
    while above(k_hi) > target:
        k_out, k_hi, step = k_hi, k_hi + step, 2 * step
    k_hi = _grid_cut(lambda k: above(k) <= target, k_hi, k_out)
    tails = mp.exp(_log_sum([below(k_lo), above(k_hi)]) + math.log(2))
    return k_lo / _CUT_GRID, k_hi / _CUT_GRID, tails, mp.exp(log_floor)


def psi2_integral(arg: PolyDoubleArg) -> EvalResult:
    """Quadrature of the Laplace representation with the positive kernel.

    With s = x t the representation reads

        (-1)^(n+1) psi2^(n)(x) = J / x,  J = int_0^inf e^(-s) t^n / (1 - e^(-t))^2 ds,

    whose integrand peaks in [n-2, n] on a scale of about sqrt(n) at every
    x.  Outside the bracket [s_lo, s_hi] of :func:`_laplace_bracket` lies
    less than 10^-(INTEGRAL_DPS+2) of J.  :func:`integrate_gauss` runs its
    Gauss-Legendre pair on the bracket in s at INTEGRAL_DPS digits, with
    the bracket's lower bound L on J as its scale.  The density's poles
    t = +-2 pi i k lie at s = +-2 pi i k x, so the bracket is cut at
    s = DENSITY_CUT x where that lies inside.  Below the cut the poles sit
    at a fixed ratio to the panel's width, which the pair's bisection
    resolves; above it they are far, and e^(-t) < 5e-18.  Without the cut,
    at (2, 1e-3) the density's change on the scale x near s = 0 fell
    between the nodes of both rules: G64 and G32 agreed to 1e-11 and both
    were 2.8e-9 off.  The integrand is evaluated on raw mpf tuples
    (:func:`_density`) with bitlength(s_hi) + 8 guard bits, so that the
    rounding of s and t, which e^(-s) and t^n magnify at most s_hi times,
    stays below one unit of INTEGRAL_DPS digits; the rule's nodes and sums
    use the same bits.  The error is integrate_gauss's plus the bracket's
    tail bounds, rounded up to a double.
    """
    n, x = arg.n, arg.x
    lo, hi, tails, floor = _laplace_bracket(n, x)
    x_ = x._mpf_
    wp = dps_to_prec(INTEGRAL_DPS) + math.ceil(hi).bit_length() + 8

    def integrand(s):
        return mpf_mul(mpf_exp(mpf_neg(s), wp), _density(n, mpf_div(s, x_, wp), wp), wp)

    cut = DENSITY_CUT * x
    points = [lo, cut, hi] if lo < cut < hi else [lo, hi]
    with mp.workdps(INTEGRAL_DPS):
        value, error = integrate_gauss(integrand, points, floor, wp)
    error = (error + tails) / x
    # Rounded up to a double, so that a claim near the underflow stays one.
    return EvalResult(
        value=mpf(-1) ** (n + 1) * value / x,
        error=math.nextafter(float(error), math.inf),
        method="integral",
    )


# Taylor coefficients B_k/k! of t/(e^t - 1), k = 0..64, each the double
# nearest the exact fraction; those at even k >= 2 are psi2_grid's weights.
_TAYLOR = np.array([float(b / math.factorial(k)) for k, b in enumerate(_B)])
# Below this t the Bernoulli remainder is summed as its Taylor tail (radius
# 2 pi), whose terms fall like 2 (t/(2 pi))^k.
_TAYLOR_SPLIT = 3.0
# ln(8 * DBL_MAX); 8 * sys.float_info.max itself is inf.
_LOG_8_DBL_MAX = math.log(sys.float_info.max) + math.log(8)


def _remainder_integral(p: int, x, n_blocks: int, first: int = 0):
    """int_0^inf t^p e^(-xt) (t/(e^t - 1) - sum_{k=first}^{2N} B_k t^k/k!) dt.

    Its subtracted terms transform one by one into those of
    :func:`asymptotic_bernoulli_sum` at the same (p, x, N, first).
    Below t = 3 the difference is its Taylor tail, summed over k < first and
    2N < k <= 64; the terms past 64 add at most 1.3 (t/(2 pi))^(64-2N) times
    the k = 2N+2 one.  Above, it is evaluated as written.  The integrand is
    analytic at 0 and peaks near t = (p+2N+2)/x.  Float64 panels
    (:func:`integrate_panels`) run on segments [a, 2a], a = 3 * 2^j (below
    the lowest, on [0, a]), up to the one holding the peak and then upward,
    until the closed-form bound beyond falls below 2^-53 of the integral of
    the integrand's majorant (its terms' magnitudes summed).  So the work
    grows like the log of x or 1/x.  Returns float (value, error): rule errors,
    the rounding and the Taylor cut on each segment [a, b] (in units of
    2^-53 of the majorant), and the bound beyond.  Raises DomainError where
    one of them does not fit a finite double (x = 1e-200 at p = 0, N = 3),
    and before any evaluation for N outside 1..31 (the expansion reads B_2N+2).
    """
    if not 1 <= n_blocks <= len(_TAYLOR) // 2 - 1:
        raise DomainError("terms must fit the Bernoulli table capacity")
    x = float(x)
    k = np.arange(len(_TAYLOR))
    subtracted = (first <= k) & (k <= 2 * n_blocks)
    below = k[~subtracted], _TAYLOR[~subtracted]
    above = k[subtracted], -_TAYLOR[subtracted]
    q = p + 2 * n_blocks + 2

    def segment(a, b):
        ks, cs = below if b <= _TAYLOR_SPLIT else above

        def f(t):
            terms = cs * t**ks
            rem = terms.sum(axis=1, keepdims=True)
            size = abs(terms).sum(axis=1, keepdims=True)
            if b > _TAYLOR_SPLIT:
                lead = t / np.expm1(t)
                rem, size = rem + lead, size + lead
            weight = t**p * np.exp(-x * t)
            return np.hstack([weight * rem, weight * size])

        panels = math.ceil((q + x * b + min(b, 40.0)) / 3)
        (value, size), (error, _) = integrate_panels(f, a, b, panels)
        ulps = ks.max() + len(ks) + p + x * b + 8
        if b <= _TAYLOR_SPLIT:
            ulps += 1.3 * (b / (2 * math.pi)) ** (64 - 2 * n_blocks) * 2.0**53
        return value, error + ulps * 2.0**-53 * size, size

    def beyond(b):
        """Bound on the integral of |integrand| over [b, inf)."""
        ks, cs = below if b < _TAYLOR_SPLIT else above
        # |c| int_b^inf t^m e^(-xt) dt = |c| m!/x^(m+1) Q(m+1, xb), Q being the
        # regularized upper incomplete gamma function: Q(0, z) = 0 and
        # Q(m+1, z) = Q(m, z) + e^-z z^m/m!.  The product is taken in logs,
        # so a small |c| keeps it finite where m!/x^(m+1) alone overflows.
        z, log_x = x * b, math.log(x)
        reg = [0.0]
        for m in range(p + ks.max() + 1):
            reg.append(reg[-1] + math.exp(m * math.log(z) - z - math.lgamma(m + 1)))

        def moment(m, c):
            if not (c and reg[m + 1]):
                return 0.0
            log_c = math.log(abs(c)) + math.log(reg[m + 1])
            return math.exp(log_c + math.lgamma(m + 1) - (m + 1) * log_x)

        bound = sum(moment(p + i, c) for i, c in zip(ks, cs))
        if b < _TAYLOR_SPLIT:
            # The Taylor cut is at most 0.3 times the k = 2N+2 term.
            return 1.3 * bound + beyond(_TAYLOR_SPLIT)
        return bound + moment(p, 1.0)

    value = error = size = rest = 0.0
    # At the peak segment beyond()'s term of order p + 2N is at least 0.2 of
    # |B_2N|/(2N)! (p+2N)!/x^(p+2N+1); past 8 times the largest double the
    # loop would overflow there, so it does not start.
    top = p + 2 * n_blocks
    log_top = math.log(abs(_TAYLOR[2 * n_blocks])) + math.lgamma(top + 1)
    if x > 0 and log_top - (top + 1) * math.log(x) > _LOG_8_DBL_MAX:
        rest = math.inf
    with np.errstate(all="ignore"):
        try:
            peak = math.floor(math.log2(q / (3 * x)))
            edges = [0.0] + [3 * 2.0**j for j in range(min(peak, 0), peak + 1)]
            while math.isfinite(value + error + size + rest):
                for a, b in zip(edges, edges[1:]):
                    v, e, s = segment(a, b)
                    value, error, size = value + v, error + e, size + s
                rest = beyond(edges[-1])
                if rest <= 2.0**-53 * size:
                    break
                edges = edges[-1:] + [2 * edges[-1]]
        except (OverflowError, ZeroDivisionError):
            rest = math.inf
        fits = math.isfinite(value + error + size + rest)
    if not fits:
        raise DomainError(f"remainder integral at x={x:g} does not fit a finite double")
    return float(value), float(error + rest)


def asymptotic_remainder(arg: PolyDoubleArg, terms: int) -> EvalResult:
    """Exact remainder term of the expansion, by :func:`_remainder_integral`.

    tau_n(x) = (-1)^n int_0^inf t^(n-2) e^(-xt)
               (t/(e^t-1) - sum_{k=0}^{2N} B_k t^k / k!) dt
    """
    value, error = _remainder_integral(arg.n - 2, arg.x, terms)
    return EvalResult(
        value=mpf(-1) ** arg.n * mpf(value), error=error, method="remainder-quadrature"
    )


def asymptotic_bernoulli_sum(p: int, x, n_blocks: int, first: int = 0):
    """sum_{k=first}^{2N} B_k (p+k)! / (k! x^(p+k+1)), N = n_blocks.

    The Laplace transform, term by term, of what :func:`_remainder_integral`
    subtracts at the same (p, x, N, first) (DLMF 24.2.1); at p = n - 2 and
    first = 0, (-1)^n times the Bernoulli part of the expansion of
    psi2^(n)(x+1).  As p! (lead + sum_{even k} B_k C(p+k, k) x^-(p+1+k)),
    the lead the k = 1 term -(p+1)/(2 x^(p+2)) if first <= 1, the even terms
    are one :func:`asymptotic_sum` call with binomials of about k log2(p)
    bits, its last entry the k = 2N+2 term.  x > 0 is an mpf taken exactly.

    Returns (total, omitted): total an :class:`Approx` claiming every
    rounding and no truncation; omitted the k = 2N+2 term's magnitude.
    """
    even = range(first + first % 2, 2 * n_blocks + 3, 2)
    coeffs = [_B[k] * math.comb(p + k, k) for k in even]
    s, counted, omitted, _ = asymptotic_sum(mpf(0), coeffs, x, p + 1 + even[0])
    total = Approx.rounded(s, counted)
    if first <= 1:
        total += -(p + 1) * Approx(x, 0) ** -(p + 2) / 2
    fact = Approx.rounded(mp.factorial(p))
    return fact * total, fact.value * omitted


def asymptotic_closed_form(arg: PolyDoubleArg) -> Approx:
    """-x psi^(n)(x+1) - (n+1) psi^(n-1)(x+1), the closed-form part of the
    expansion of psi2^(n)(x+1) at x = arg.x, as an :class:`Approx` covering
    the polygamma values' claims and the rounding.  The rest is (-1)^n
    :func:`asymptotic_bernoulli_sum` at (n-2, x, N) plus the remainder tau_n,
    which cancels that sum's truncation term by term.
    """
    n, x = arg.n, arg.x
    hi = Approx.of(polygamma(n, x + 1))
    lo = Approx.of(polygamma(n - 1, x + 1))
    return -x * hi - (n + 1) * lo


def psi2_asymptotic(arg: PolyDoubleArg, terms: int) -> EvalResult:
    """psi2^(n)(x+1) from the shifted-argument expansion at x = arg.x.

    The closed-form part, the Bernoulli part through B_2N, N = ``terms``,
    and the exact remainder tau_n(x) of the same N, which pairs with it
    term by term: an identity, not merely an asymptotic expansion, so the
    claim counts rounding and no truncation.  tau runs first, so an N
    outside 1..31 raises DomainError before any other evaluation.
    """
    tau = Approx.of(asymptotic_remainder(arg, terms))
    bernoulli, _ = asymptotic_bernoulli_sum(arg.n - 2, arg.x, terms)
    value = asymptotic_closed_form(arg) + (-1) ** arg.n * bernoulli + tau
    return _floored(value, "asymptotic")


def _via_asymptotic(arg: PolyDoubleArg) -> EvalResult:
    """psi2^(n)(x) = sum_{i<m} psi^(n)(x+i) + psi2^(n)(y), y = x + m >= 13.

    psi2^(n)(y) is the expansion at y - 1 through B_2N, N = ASYMPTOTIC_TERMS,
    claiming the k = 2N+2 term for the dropped tau; the head is m psi^(n)(y)
    + (-1)^(n+1) n! sum_{j<m} (j+1) (x+j)^-(n+1).  If m > 0, y rounds, which
    moves psi^(n)(y) and psi2^(n)(y) by under n + 1 units (|f'(t)| <= (n+1)/t
    |f(t)| for both); if m = 0, y - 1 rounds only where the 1e-30 floor
    exceeds the value.
    """
    n, x = arg.n, arg.x
    shift = recurrence_shift(x, SHIFT_THRESHOLD + 1)
    y = x + shift
    hi = Approx.of(polygamma(n, y))
    closed = -(y - 1) * hi - (n + 1) * Approx.of(polygamma(n - 1, y))
    bernoulli, omitted = asymptotic_bernoulli_sum(n - 2, y - 1, ASYMPTOTIC_TERMS)
    expansion = closed + (-1) ** n * Approx(bernoulli.value, bernoulli.error + omitted)
    # x + 0 is exact: at a small x the largest term rounds only in its power.
    powers = sum((j + 1) * (Approx.rounded(x + j) if j else Approx(x, 0)) ** -(n + 1)
                 for j in range(shift))
    head = shift * hi + (-1) ** (n + 1) * Approx.rounded(mp.factorial(n)) * powers
    total = head + expansion
    if shift:
        moved = (n + 1) * (shift * abs(hi.value) + abs(expansion.value))
        total = Approx(total.value, total.error + moved * rounding_unit())
    return _floored(total, "asymptotic")


def psi2_eval(arg: PolyDoubleArg, method: str = "auto") -> EvalResult:
    """Evaluate psi2^(n)(x) by the named route.

    ``auto`` is the canonical series at every argument; past the shift
    threshold it is also faster and more accurate than the expansion.
    ``polygamma``, ``integral`` and ``asymptotic`` (the recurrence-shifted
    Bernoulli expansion with the remainder dropped) are explicit
    cross-checks, which the identity audit also exercises.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "polygamma":
        return psi2_from_polygamma(arg)
    if method == "integral":
        return psi2_integral(arg)
    if method == "asymptotic":
        return _via_asymptotic(arg)
    return psi2_series(arg)


@lru_cache(maxsize=200000)
def _cached_value(n: int, x: mpf, working_prec: int) -> EvalResult:
    return psi2_eval(PolyDoubleArg(n, x))


def psi2_cached(n: int, x) -> EvalResult:
    """Memoized canonical-series evaluation at the working precision.

    Keyed on mp.prec too, so raising the working precision never serves a
    value computed at a lower one.
    """
    return _cached_value(n, mpf(x), mp.prec)


# Head terms summed directly before the Euler-Maclaurin tail of psi2_grid.
GRID_HEAD_TERMS = 20


def _row_sums(rows):
    """rows[0] + rows[1] + ..., added in that order (np.sum adds the rows of
    a single column pairwise)."""
    return functools.reduce(np.add, rows)


def psi2_grid(n: int, x) -> Approx:
    """psi2^(n)(x) over a float64 array x as an :class:`Approx`, in one pass.

    S = sum_k (1+k)/(x+k)^(n+1) is H = GRID_HEAD_TERMS head terms plus the
    Euler-Maclaurin sum of f(t) = (b+t)^-n + (1-x)(b+t)^-(n+1), b = x + H.
    Its integral b^-n (x + n(H+1) - 1)/(n(n-1)) and half term
    (1+H)/(2 b^(n+1)) are each one positive product: split into the two
    powers they cancel at large x (the half term by a factor b/(1+H)).  The
    derivative corrections run until two consecutive ones fall below
    1e-18 S, as in the mpf engine; at x = 21n + 1 the first one vanishes.
    The whole grid is one numpy pass: the head terms form one (H, ...)
    array and all len(EM_WEIGHTS) corrections another, each point stopping
    at its own correction, and every sum adds its rows in term order, so
    each value is the one a term-by-term loop gives.  Head, integral and
    half term are positive, so no cancellation enters S, and

        error = n! (larger of the last two corrections
                    + (H + 3(n+2) + 30) (2^-53 S + 2^-1074))

    is an a-priori bound on |value - psi2^(n)(x)| for the float64 x given:
    truncation, rounding (each power multiplies the rounding of its base by
    its exponent) and underflow: about 7e-15 relative at n = 2 and 2e-14 at
    n = 40, where the values themselves are good to about 1e-15.
    Raises DomainError for n < 2, for any x <= 0, and when a value or bound
    does not fit a finite double (n > 170, or n = 200 at x = 1e-3).
    """
    if n < 2:
        raise DomainError("derivative order must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise DomainError("argument must be positive")
    try:
        fact = float(math.factorial(n))
    except OverflowError:
        raise DomainError(f"{n}! does not fit a finite double") from None
    H, J = GRID_HEAD_TERMS, len(EM_WEIGHTS)
    column = (-1,) + (1,) * x.ndim
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        k = np.arange(H, dtype=np.float64).reshape(column)
        b = x + H
        b_n = (1 / b) ** n
        head = (1 + k) * (1 / (x + k)) ** (n + 1)
        integral = b_n * (x + n * (H + 1) - 1) / (n * (n - 1))
        s = _row_sums([*head, integral, (1 + H) * b_n / b / 2])
        # f^(q)(0) = -(n)_q b^(-n-q) - (1-x) (n+1)_q b^(-n-1-q) at odd q, and
        # the correction -B_2j/(2j)! f^(2j-1)(0) enters with a plus sign.
        # Row j holds both parts at q = 2j+1; the next is this times
        # (n+q)(n+q+1) or (n+q+1)(n+q+2), then times b^-2.
        inv_b2 = 1 / (b * b)
        q = np.arange(1, 2 * J - 1, 2)
        steps = np.stack([(n + q) * (n + q + 1), (n + q + 1) * (n + q + 2)], 1)
        d = [np.stack([n * b_n / b, (1 - x) * (n + 1) * b_n * inv_b2])]
        for step in steps.reshape((J - 1, 2) + (1,) * x.ndim):
            d.append(d[-1] * step * inv_b2)
        d = np.array(d)
        terms = _TAYLOR[2 : 2 * J + 1 : 2].reshape(column) * (d[:, 0] + d[:, 1])
        # Corrections 0..last are added, last being the first j < J - 1 at
        # which both |T_j| and |T_j-1| fall below 1e-18 S (else J - 1); the
        # claim is the larger of that pair.
        size = abs(terms)
        trunc = np.maximum(size, np.concatenate([np.full((1,) + x.shape, np.inf), size[:-1]]))
        going = trunc >= 1e-18 * s
        going[-1] = False
        last = going.argmin(axis=0)
        trunc = np.take_along_axis(trunc, last[None], axis=0)[0]
        added = np.arange(J).reshape(column) <= last
        total = _row_sums([s, *np.where(added, terms, 0.0)[: last.max(initial=0) + 1]])
        value = (-1) ** (n + 1) * fact * total
        rounding = (H + 3 * (n + 2) + 30) * (2.0**-53 * s + 2.0**-1074)
        error = fact * (trunc + rounding)
    if not (np.isfinite(value).all() and np.isfinite(error).all()):
        raise DomainError(f"psi2^({n}) does not fit a finite double on this grid")
    return Approx(value, error)


def psi2_didouble(x) -> EvalResult:
    """First logarithmic derivative psi2(x), from digamma.

    The paper's series -log(2 pi)/2 + (1+gamma) x + 1/2 - sum_{k>=0}
    (x-1)^2/((k+1)(x+k)) sums to (x-1)(psi(x) + gamma) (DLMF 5.7.6), so

        psi2(x) = x + gamma + 1/2 - log(2 pi)/2 - (x-1) psi(x),

    the order-0 case of the polygamma relation of psi2^(n), computed in
    :class:`Approx`: |x-1| times digamma's error plus one rounding unit per
    operation, the constants each rounded once.
    """
    x = mpf(x)
    if x <= 0:
        raise DomainError("psi2_didouble requires x > 0")
    digamma = Approx.of(polygamma(0, x))
    c = CONSTANTS
    value = (
        x + Approx.rounded(c.euler_gamma) + mpf(1) / 2
        - Approx.rounded(c.log_two_pi) / 2 - Approx.rounded(x - 1) * digamma
    )
    return EvalResult(value=value.value, error=float(value.error), method="digamma")


def log_barnes_g(x) -> EvalResult:
    """log G(x) for x > 0, G being Barnes' G: G(1) = 1, G(x+1) = Gamma(x) G(x).

    This is +log G, while the psi2 family is made of derivatives of -log G:
    psi2^(n)(x) = -(log G)^(n+1)(x) and psi2(x) = 1 + gamma - (log G)'(x).

    For y = x + m >= SHIFT_THRESHOLD + 1, Barnes' expansion at z = y - 1,

        log G(z+1) = z^2/2 log z - 3z^2/4 + (z/2) log(2 pi) - (1/12) log z
                     + zeta'(-1) + sum_{k>=1} B_{2k+2} / (4k(k+1) z^(2k)),

    is truncated before the first term below 10^-(dps+2) times the
    magnitudes of the leading terms; :func:`asymptotic_sum` sums its series.  A smaller x is shifted
    up by m = ceil(SHIFT_THRESHOLD + 1 - x) through the closed form

        log G(x) = log G(x+m) - m log Gamma(x+m) + log R,
        R = prod_{j<m} (x+j)^(j+1),

    one log-gamma and one log of R (:func:`shift_products`; m <= 13), so the
    cost does not grow with x.  The error is the first omitted term of the
    expansion and the kernel's counted floors and truncated powers, plus the
    rounding of the sum: the rounding unit times the number of leading
    summands times the sum of their magnitudes, and m^2 + m units for the
    roundings of R.
    """
    x = mpf(x)
    if x <= 0:
        raise DomainError("log_barnes_g requires x > 0")
    m = recurrence_shift(x, SHIFT_THRESHOLD + 1)
    z = x + m - 1
    log_z = mp.log(z)
    parts = [
        z * z * log_z / 2,
        -3 * z * z / 4,
        z * CONSTANTS.log_two_pi / 2,
        -log_z / 12,
        CONSTANTS.zeta_prime_minus_one,
    ]
    if m:
        parts.append(-m * log_gamma(x + m))
        parts.append(mp.log(shift_products(x, m)[1]))
    magnitude = sum(abs(p) for p in parts)
    # Terms stop counting below 10^-(dps+2) of the parts' magnitudes, but
    # the claimed rounding uses rounding_unit(), which never passes the
    # constants' digits.
    total, counted, omitted, _ = asymptotic_sum(
        sum(parts), BARNES_COEFFS, z, 2, stop_scale() * magnitude
    )
    err = omitted + counted + (len(parts) * magnitude + m * m + m) * rounding_unit()
    return EvalResult(value=total, error=float(err), method="barnes-asymptotic")
