"""Machine verification of the inequality and monotonicity theorems.

Every derivative-sign question is an exact evaluation: differentiation is
closed on the family (d/dx psi2^(m) = psi2^(m+1)), so complete-monotonicity
patterns, Leibniz-expanded derivatives of products, and Jacobi-expanded
derivatives of determinants all reduce to direct function values.  Checks
emit a :class:`CheckReport` with per-point witnesses; the identity audit
compares each printed representation against the canonical series as
(lhs, rhs) pairs of :class:`Approx` and classifies it as confirmed, when
every |lhs - rhs| lies within 100 times the claimed error of lhs - rhs, or
discrepant.

Each psi2-based check writes its claims once, as formulas over psi2^(m)
values that are :class:`Approx`, whose arithmetic gives each margin its
error, rounding included.  They run in two tiers.  First over the whole
grid in float64 (:func:`psi2_grid` arrays), each value's error also
covering the rounding of the arguments to doubles and the 30-digit tier's
claimed error; then at 30 digits (:func:`psi2_cached`) for the points that
float64 does not decide: a margin within the gate, or a value that does not
fit a double.  So each status is the one the 30-digit evaluation reaches;
``summary.escalated`` counts the recomputed points.
The I_1 quadratures follow the same two tiers: one float64 7/15-point
Gauss-Legendre pass over the whole grid (:func:`lemma_I1_grid`), then a
30-digit value from the 64/32-point pair of :func:`integrate_gauss`
(:func:`lemma_I1_value`) where that pass does not decide.

Verification is numerical certification at finite depth on finite grids,
not symbolic proof; report headers say so.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial, reduce

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import fone, from_int, mpf_add, mpf_mul, mpf_sub

from .errors import ConvergenceError, DomainError
from .polydg import (
    DENSITY_CUT,
    PolyDoubleArg,
    _density,
    _remainder_integral,
    asymptotic_bernoulli_sum,
    asymptotic_closed_form,
    asymptotic_remainder,
    psi2_asymptotic,
    psi2_cached,
    psi2_didouble,
    psi2_from_polygamma,
    psi2_grid,
    psi2_integral,
    psi2_series,
)
from .quadrature import integrate_gauss, integrate_panels
from .specfun import DOUBLE_UNIT, Approx, EvalResult, hurwitz_zeta, polygamma

DISCLAIMER = "numerical certification at finite depth/grid; not a symbolic proof"

# An inequality holds strictly when its margin clears this multiple of the
# combined error estimate; smaller |margins| are inconclusive, not failures.
# The float64 tier decides a point only when every margin clears it too;
# the others are recomputed at 30 digits, which then set the status.
STRICTNESS_FACTOR = 10.0

MAX_HANKEL_ORDER = 4

# Work bounds, checked before any evaluation: grid points and sampled pairs
# of one check, and the derivative depth of check_cm and check_F_cm (an order
# past 170 sends every point to 30 digits).
MAX_POINTS = 10_000
MAX_DEPTH = 50

# Sampled pairs for the additive corollaries of the G_n(x; r) check.
G_PAIR_SAMPLES = 50


@dataclass(frozen=True)
class Grid:
    """Finite sampling of (0, inf), linear or logarithmic."""

    lo: float
    hi: float
    count: int
    spacing: str

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise DomainError("grid must satisfy 0 < lo < hi")
        if self.count < 2:
            raise DomainError("grid needs at least two points")
        if self.count > MAX_POINTS:
            raise DomainError(f"grids of more than {MAX_POINTS} points are rejected")
        if self.spacing not in ("linear", "log"):
            raise DomainError("spacing must be 'linear' or 'log'")

    def points(self):
        lo, hi, n = mpf(self.lo), mpf(self.hi), self.count
        if self.spacing == "linear":
            step = (hi - lo) / (n - 1)
            return [lo + i * step for i in range(n)]
        llo, lhi = mp.log(lo), mp.log(hi)
        step = (lhi - llo) / (n - 1)
        return [mp.exp(llo + i * step) for i in range(n)]


@dataclass
class CheckReport:
    """Pass/fail verdict for one theorem check with per-point witnesses."""

    check_id: str
    params: dict
    passed: bool
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    header: str = DISCLAIMER
    tolerance: float = 0.0

    def to_dict(self) -> dict:
        """The fields as a dict; its lists and dicts are the report's own."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        return cls(**d)


# What the float tier adds to each psi2 value's error for the 30-digit tier's
# own claim, so that a point it decides clears that tier's gate as well:
# psi2_series claims at most 1.6e-19 relative above its absolute 1e-30 floor
# (n 2..170, x 0.01..1e4) wherever the value fits a double.  Beyond a double
# the claim need not hold (n = 95, x = 0.01 claims error=inf); the float tier
# marks such values unfit and leaves their points to the 30-digit tier.
SERIES_CLAIM_REL = 1e-17
SERIES_CLAIM_ABS = 2e-30

# psi2 values below this magnitude leave products of two of them outside the
# normal double range, where rounding is no longer relative; their points
# are recomputed at 30 digits.
FLOAT_VALUE_FLOOR = 1e-150


class _FloatLookup:
    """psi2^(m) at the i-th argument of every point at once, in float64.

    Each error covers psi2_grid's bound, the 30-digit tier's own claim and
    the rounding of the mpf argument to a double: float() truncates, by at
    most 2^-52 relative, and |psi2^(m+1)(x)| <= (m+1)/x |psi2^(m)(x)| term
    by term, so the value moves by at most (m+1) 2^-52 of its size; the
    factor 2 covers the far end of the interval.
    ``unfit`` marks the points where a value does not fit a double or falls
    below FLOAT_VALUE_FLOOR.
    """

    const = staticmethod(lambda c: Approx.rounded(float(c)))

    def __init__(self, args):
        self.columns = [np.array([float(a[i]) for a in args]) for i in range(len(args[0]))]
        self.unfit = np.zeros(len(args), dtype=bool)
        self.cache = {}

    def __call__(self, m, i=0):
        if (m, i) not in self.cache:
            value, error = self._grid(m, self.columns[i])
            size = abs(value) + error
            error = (
                error
                + 4 * (m + 1) * DOUBLE_UNIT * size
                + SERIES_CLAIM_REL * size
                + SERIES_CLAIM_ABS
            )
            self.unfit |= ~(abs(value) >= FLOAT_VALUE_FLOOR)
            self.cache[m, i] = Approx(value, error)
        return self.cache[m, i]

    @staticmethod
    def _grid(m, x):
        try:
            return psi2_grid(m, x)
        except DomainError:
            pass
        # Some values do not fit a double: keep the others, NaN marks these.
        value, error = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
        for j in range(len(x)):
            try:
                value[j], error[j] = (a[0] for a in psi2_grid(m, x[j : j + 1]))
            except DomainError:
                pass
        return value, error


class _ThirtyDigitLookup:
    """psi2^(m) at the i-th argument of one point, from the 30-digit series."""

    const = staticmethod(lambda c: Approx.rounded(mpf(c)))

    def __init__(self, args):
        self.args = args

    def __call__(self, m, i=0):
        return Approx.of(psi2_cached(m, self.args[i]))


def _item(a, p):
    return a[p] if np.ndim(a) else a


def _plain(claims):
    """Each claim (tail, label, lhs, rhs) as (tail, label, lhs, rhs, err),
    plain values with the error of lhs - rhs."""
    return [
        (tail, label, *(getattr(x, "value", x) for x in (lhs, rhs)), (lhs - rhs).error)
        for tail, label, lhs, rhs in claims
    ]


class _ReportBuilder:
    def __init__(self, check_id, params):
        # Verdicts gate margins on STRICTNESS_FACTOR times each point's own
        # error estimate, so no fixed tolerance is ever applied.
        self.report = CheckReport(check_id=check_id, params=params, passed=True)
        self.escalated = 0

    def record(self, point, lhs, rhs, err, strict=True, label=None):
        """Margin convention: positive means the claimed inequality holds.

        ``strict=False`` marks claims where equality is admissible (so an
        in-gate margin is expected, not a near-miss).  The verdict reads the
        margin in the arithmetic that computed it (float64, or 30 digits
        where the entry's floats may overflow).
        """
        margin = lhs - rhs
        gate = STRICTNESS_FACTOR * max(float(err), 0.0)
        entry = {
            "point": point,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "margin": float(margin),
        }
        if label:
            entry["label"] = label
        if mp.isnan(margin) or margin < -gate:
            entry["status"] = "fail"
            self.report.counterexamples.append(entry)
            self.report.passed = False
        elif margin > gate:
            entry["status"] = "strict"
            self.report.witnesses.append(entry)
        else:
            entry["status"] = "equality" if not strict else "inconclusive"
            self.report.witnesses.append(entry)

    def record_all(self, points, args, claims, strict=True, recorded=True):
        """Evaluate ``claims`` at every point, in float64 where that decides.

        ``claims(at)`` returns a list of (tail, label, lhs, rhs): each is
        recorded at ``points[p] + tail``, with the error of lhs - rhs.
        ``at(m, i)`` gives psi2^(m) at ``args[p][i]`` (an mpf) as an
        :class:`Approx`, and ``at.const(c)`` rounds a constant into the same
        arithmetic.  All points are first evaluated at once from psi2_grid
        arrays.  A point is recomputed at 30 digits (psi2_cached) when any
        of its margins lies within STRICTNESS_FACTOR times its error, or a
        value, margin or error is not finite or does not fit
        (``_FloatLookup.unfit``, or a margin under FLOAT_VALUE_FLOOR**2).
        ``recorded=False`` evaluates the claims without recording them.
        Returns each point's claims as plain (tail, label, lhs, rhs, err),
        from the tier that decided it.
        """
        if not points:
            return []
        at = _FloatLookup(args)
        with np.errstate(all="ignore"):
            batch = _plain(claims(at))
            decided = ~at.unfit
            for _, _, lhs, rhs, err in batch:
                margin = lhs - rhs
                decided &= np.isfinite(margin) & np.isfinite(err)
                # A margin below the normal range is not rounded relatively.
                decided &= abs(margin) > np.maximum(
                    STRICTNESS_FACTOR * err, FLOAT_VALUE_FLOOR**2
                )
        results = []
        for p, point in enumerate(points):
            if decided[p]:
                found = [
                    (tail, label, float(_item(lhs, p)), float(_item(rhs, p)),
                     float(_item(err, p)))
                    for tail, label, lhs, rhs, err in batch
                ]
            else:
                self.escalated += 1
                found = _plain(claims(_ThirtyDigitLookup(args[p])))
            if recorded:
                for tail, label, lhs, rhs, err in found:
                    self.record(point + tail, lhs, rhs, err, strict=strict, label=label)
            results.append(found)
        return results

    def done(self, **summary):
        self.report.summary.update(summary, escalated=self.escalated)
        return self.report


def _on_grid(grid: Grid):
    """Reported points and lookup arguments of a one-argument grid check."""
    xs = grid.points()
    return [[float(x)] for x in xs], [(x,) for x in xs]


def _check_depth(depth):
    if depth < 0:
        raise DomainError("derivative depth must be >= 0")
    if depth > MAX_DEPTH:
        raise DomainError(f"derivative depths above {MAX_DEPTH} are rejected")


def _cm_claims(n, depth, at):
    return [([k], f"k={k}", (-1) ** (n + k + 1) * at(n + k), 0.0)
            for k in range(depth + 1)]


def check_cm(n: int, depth: int, grid: Grid) -> CheckReport:
    """Alternating derivative signs of (-1)^(n+1) psi2^(n): order 0..depth.

    The k-th derivative is psi2^(n+k) exactly, so each sign condition is
    (-1)^(n+k+1) psi2^(n+k)(x) >= 0, evaluated directly.
    """
    if n < 2:
        raise DomainError("check_cm requires n >= 2")
    _check_depth(depth)
    b = _ReportBuilder("cm", {"n": n, "depth": depth, "grid": asdict(grid)})
    b.record_all(*_on_grid(grid), partial(_cm_claims, n, depth))
    return b.done()


def _turan_claims(n, at):
    """psi2^(n)(x) psi2^(n)(x+2) against psi2^(n)(x+1)^2, at (x, x+1, x+2)."""
    lo, mid, hi = at(n, 0), at(n, 1), at(n, 2)
    return [([], None, lo * hi, mid**2)]


def check_turan(n: int, grid: Grid) -> CheckReport:
    """(psi2^(n)(x+1))^2 <= psi2^(n)(x) psi2^(n)(x+2) on the grid."""
    if n < 2:
        raise DomainError("check_turan requires n >= 2")
    b = _ReportBuilder("turan", {"n": n, "grid": asdict(grid)})
    points, args = _on_grid(grid)
    b.record_all(points, [(x, x + 1, x + 2) for (x,) in args], partial(_turan_claims, n))
    return b.done()


def _ratio_claims(n, lo_bound, hi_bound, at):
    """(psi2^(n))^2 / (psi2^(n-1) psi2^(n+1)) against both bounds."""
    lo_b, hi_b = at.const(lo_bound), at.const(hi_bound)
    ratio = at(n) ** 2 / (at(n - 1) * at(n + 1))
    return [([], "lower", ratio, lo_b), ([], "upper", hi_b, ratio)]


def check_ratio_bounds(n: int, grid: Grid) -> CheckReport:
    """(n-2)/(n-1) < (psi2^(n))^2/(psi2^(n-1) psi2^(n+1)) < n/(n+1), strict.

    The summary carries the grid sup/inf of the ratio: it drifts toward the
    lower constant for x -> inf and toward the upper one for x -> 0.
    """
    if n < 3:
        raise DomainError("check_ratio_bounds requires n >= 3")
    b = _ReportBuilder("ratio-bounds", {"n": n, "grid": asdict(grid)})
    claims = partial(_ratio_claims, n, mpf(n - 2) / (n - 1), mpf(n) / (n + 1))
    ratios = [float(c[0][2]) for c in b.record_all(*_on_grid(grid), claims)]
    return b.done(
        ratio_inf=min(ratios),
        ratio_sup=max(ratios),
        lower_bound=(n - 2) / (n - 1),
        upper_bound=n / (n + 1),
    )


def _f_derivative(n: int, omega, k: int, lookup):
    """Exact k-th derivative of F via the Leibniz rule, as an :class:`Approx`.

    ``lookup(m)`` gives psi2^(m) as an Approx: one point's 30-digit values
    or psi2_grid arrays over a whole grid.
    """
    total = 0
    for j in range(k + 1):
        a1, a2 = lookup(n + j), lookup(n + k - j)
        b1, b2 = lookup(n - 1 + j), lookup(n + 1 + k - j)
        total += math.comb(k, j) * (a1 * a2 - omega * b1 * b2)
    return total


def _f_claims(n, omega, depth, patterns, at):
    omega = at.const(omega)
    claims = []
    for k in range(depth + 1):
        val = _f_derivative(n, omega, k, at)
        for sgn, name in patterns:
            claims.append(([k], f"{name},k={k}", (-1) ** k * sgn * val, 0.0))
    return claims


def check_F_cm(n: int, omega: float, depth: int, grid: Grid) -> CheckReport:
    """Alternating-sign pattern of F_n(x; omega) = (psi2^(n))^2 - omega
    psi2^(n-1) psi2^(n+1) (omega below the lower constant) or of -F (omega
    above the upper constant), derivative orders 0..depth.

    For omega strictly inside the gap neither pattern is claimed; both are
    evaluated and the report records where each one fails.
    """
    if n < 3:
        raise DomainError("F check requires n >= 3")
    _check_depth(depth)
    omega = mpf(omega)
    lo_c = mpf(n - 2) / (n - 1)
    hi_c = mpf(n) / (n + 1)
    in_gap = lo_c < omega < hi_c
    patterns = [(1, "F"), (-1, "-F")] if in_gap else (
        [(1, "F")] if omega <= lo_c else [(-1, "-F")]
    )
    b = _ReportBuilder(
        "F-cm",
        {
            "n": n,
            "omega": float(omega),
            "depth": depth,
            "grid": asdict(grid),
            "gap": in_gap,
        },
    )
    b.record_all(*_on_grid(grid), partial(_f_claims, n, omega, depth, patterns))
    first_failure = {}
    for c in b.report.counterexamples:
        x, k = c["point"]
        first_failure.setdefault(c["label"].split(",")[0], {"x": x, "k": k})
    return b.done(
        gap_interval=[float(lo_c), float(hi_c)],
        first_failure=first_failure,
        checked_patterns=[name for _, name in patterns],
    )


def lemma_I1_value(n: int, a, tol: float) -> EvalResult:
    """I_1(a; n) = int_0^1 [(2n-3)u^2 - 1] f_n(a(1+u)) f_n(a(1-u)) du,

    with f_n(t) = t^(n-1)/(1-e^(-t))^2, by :func:`integrate_gauss` at the
    working precision on raw mpf tuples (:func:`_density`, 8 guard bits),
    its scale the integral of the magnitude.  The pieces break at
    u = 1/sqrt(2n-3), where the factor changes sign, and where
    a(1-u) = DENSITY_CUT, if that lies inside: f_n(a(1-u)) has poles at
    u = 1 - 2 pi i k/a, at a fixed ratio to the width of the last piece.
    Raises ConvergenceError when the claimed error exceeds ``tol``."""
    if n < 3:
        raise DomainError("lemma_I1_value requires n >= 3")
    a = mpf(a)
    if a <= 0:
        raise DomainError("lemma_I1_value requires a > 0")
    wp = mp.prec + 8
    a_, k = a._mpf_, from_int(2 * n - 3)

    def integrand(u):
        factor = mpf_sub(mpf_mul(k, mpf_mul(u, u, wp), wp), fone, wp)
        # f_n is the Laplace density of psi2^(n-1).
        hi = _density(n - 1, mpf_mul(a_, mpf_add(fone, u, wp), wp), wp)
        lo = _density(n - 1, mpf_mul(a_, mpf_sub(fone, u, wp), wp), wp)
        return mpf_mul(factor, mpf_mul(hi, lo, wp), wp)

    cut = 1 - DENSITY_CUT / a
    points = sorted({mpf(0), 1 / mp.sqrt(2 * n - 3), max(cut, mpf(0)), mpf(1)})
    value, error = integrate_gauss(integrand, points, wp=wp)
    if not error <= tol:
        raise ConvergenceError(
            f"I_1 quadrature claims {mp.nstr(error, 3)}, above tol {tol:g}",
            best=value,
            error_estimate=float(error),
        )
    return EvalResult(value=value, error=float(error), method="quadrature")


# Panels of lemma_I1_grid's Gauss-Legendre pass on [0, 1].  On a in
# [1.01, 1.99], one panel leaves I_1(1.99; 4) claiming 1.2e-9, above the
# figure's 1e-9; two bring n <= 5 under 3e-13 relative but leave n = 8 at
# 1.4e-10; four bring every n <= 8 under 6e-13 relative.
I1_PANELS = 4


def lemma_I1_grid(n: int, a):
    """I_1(a; n) over a float64 array a in one pass of :func:`integrate_panels`.

    Returns (value, error) arrays.  The error covers the rule (|G15 - G7|
    per panel), each integrand value's rounding and the rounding of each a
    to a double: a d/da of the log of the integrand lies in (2n-6, 2n-2], so
    a relative change of 2^-53 in a moves the integral by at most 2n 2^-53
    of the integral of its magnitude.  In each density f_n(t) the rounding of
    t moves it by at most 2(n-1) units (t f_n'/f_n lies in (n-3, n-1]), its
    own five operations by 6 more; with the two products and the factor
    (2n-3)u^2 - 1, rounded once from the exact node, each value is good to
    6n + 16 units of 2^-53.  NaN marks an a where a density falls outside
    FLOAT_VALUE_FLOOR..inf, so that rounding is not relative there.
    """
    if n < 3:
        raise DomainError("lemma_I1_grid requires n >= 3")
    a = np.asarray(a, dtype=np.float64)
    if not np.all(a > 0):
        raise DomainError("lemma_I1_grid requires a > 0")

    def integrand(u):
        # Near its zero, (2n-3)u^2 - 1 evaluated in float64 has no relative
        # accuracy; from the exact node it is rounded once.
        factor = [float((2 * n - 3) * Fraction(v) ** 2 - 1) for v in u.ravel()]
        # f_n(t) = t^(n-1)/(1-e^(-t))^2, as _density(n - 1, t, wp).
        f1, f2 = ((a * v) ** (n - 1) / np.expm1(-a * v) ** 2 for v in (1 + u, 1 - u))
        normal = (f1 >= FLOAT_VALUE_FLOOR) & (f2 >= FLOAT_VALUE_FLOOR)
        return np.where(normal, np.reshape(factor, u.shape) * f1 * f2, np.nan)

    with np.errstate(all="ignore"):
        return integrate_panels(integrand, 0.0, 1.0, I1_PANELS, ulps=6 * n + 16)


def check_lemma_I1(n: int, grid: Grid, tol: float) -> CheckReport:
    """Negativity of I_1(a; n) for every a on the grid.

    The whole grid is evaluated first by :func:`lemma_I1_grid`.  A point is
    decided there when its value and error are finite, the error is at most
    ``tol`` and |value| > (STRICTNESS_FACTOR + 2) tol: the 30-digit
    :func:`lemma_I1_value`, whose error is at most tol, then lies within
    2 tol of the float64 value and reaches the same status.  The other
    points run it and count in ``summary.escalated``; it raises
    ConvergenceError where it cannot meet ``tol``.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    b = _ReportBuilder("lemma-I1", {"n": n, "grid": asdict(grid), "tol": tol})
    points = grid.points()
    value, error = lemma_I1_grid(n, np.array(points, dtype=np.float64))
    # NaN and infinities fail one of the two comparisons.
    decided = (error <= tol) & (abs(value) > (STRICTNESS_FACTOR + 2) * tol)
    for a, v, e, d in zip(points, value, error, decided):
        if not d:
            b.escalated += 1
            quad = lemma_I1_value(n, a, tol)
            v, e = quad.value, quad.error
        b.record([float(a)], 0.0, v, e)
    return b.done()


_PHI = (math.sqrt(5) - 1) / 2
_RHO = math.sqrt(2) - 1


def _triangle_pairs(m: float, samples: int, seed: int):
    """Deterministic low-discrepancy pairs in {x1, x2 > 0, x1 + x2 <= m}."""
    pairs = []
    for i in range(samples):
        u = ((i + 1) * _PHI + seed * _PHI * _PHI) % 1.0
        v = ((i + 1) * _RHO + seed * _RHO * _RHO) % 1.0
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        if u <= 0.0 or v <= 0.0:
            continue
        pairs.append((mpf(m) * mpf(u), mpf(m) * mpf(v)))
    return pairs


def _subadditivity_claims(s, subadditive, at):
    """Deficit psi2^(s)(x1+x2) - psi2^(s)(x1) - psi2^(s)(x2) against 0 and
    against its midpoint value, at (x1, x2, x1+x2, m, m/2)."""
    p1, p2, whole, at_m, at_half = (at(s, i) for i in range(5))
    deficit = whole - (p1 + p2)
    bound = at_m - 2 * at_half
    if subadditive:
        return [([], "plain", 0.0, deficit), ([], "sharp", bound, deficit)]
    return [([], "plain", deficit, 0.0), ([], "sharp", deficit, bound)]


def _midpoint_claims(s, subadditive, at):
    # At x1 = x2 = m/2 the sharp claim is an equality: its margin is zero.
    _, _, lhs, rhs = _subadditivity_claims(s, subadditive, at)[1]
    return [([], "midpoint", lhs, rhs)]


def check_subadditivity(
    n: int, r_order: int, m: float, samples: int, seed: int
) -> CheckReport:
    """Strict sub-/superadditivity of psi2^(n+r) on the triangle {x1, x2 > 0,
    x1 + x2 <= m}, at ``samples`` pairs drawn with ``seed``.

    Order s = n + r, r = ``r_order``: subadditive when s is odd (parities of
    n and r differ), superadditive when s is even.  Also checks the
    sharpened bound: the deficit psi2^(s)(x1+x2) - psi2^(s)(x1) -
    psi2^(s)(x2) stays on the correct side of its midpoint value
    psi2^(s)(m) - 2 psi2^(s)(m/2), which is attained exactly at
    x1 = x2 = m/2.
    """
    if n < 2 or r_order < 0:
        raise DomainError("need n >= 2 and r >= 0")
    if not m > 0 or samples < 1:
        raise DomainError("need m > 0 and samples >= 1")
    if samples > MAX_POINTS:
        raise DomainError(f"more than {MAX_POINTS} samples are rejected")
    s = n + r_order
    m = mpf(m)
    subadditive = s % 2 == 1
    b = _ReportBuilder(
        "subadditivity",
        {
            "n": n,
            "r": r_order,
            "m": float(m),
            "samples": samples,
            "seed": seed,
            "mode": "subadditive" if subadditive else "superadditive",
        },
    )
    pairs = _triangle_pairs(float(m), samples, seed)
    b.record_all(
        [[float(x1), float(x2)] for x1, x2 in pairs],
        [(x1, x2, x1 + x2, m, m / 2) for x1, x2 in pairs],
        partial(_subadditivity_claims, s, subadditive),
    )
    # Midpoint attainment: equality, so the sharp margin is exactly zero.
    half = m / 2
    [[(_, _, lhs, rhs, _)]] = b.record_all(
        [[float(half), float(half)]],
        [(half, half, m, m, half)],
        partial(_midpoint_claims, s, subadditive),
        strict=False,
    )
    return b.done(sharp_bound=float(lhs if subadditive else rhs))


def _g_second(n, r, at):
    """G_n''(x; r) = r u^(r-2) [(r-1) (psi2^(n+1))^2 + psi2^(n) psi2^(n+2)],
    u = (-1)^(n+1) psi2^(n) > 0; r is a double, so an exact exponent."""
    r = at.const(r)
    f0, f1, f2 = at(n), at(n + 1), at(n + 2)
    u = (-1) ** (n + 1) * f0
    # r u^r / u^2 is r u^(r-2) without rounding the exponent r - 2.
    return r * u**r.value / (u * u) * ((r - 1) * f1**2 + f0 * f2)


def _g_pair_claims(n, r, sub, at):
    """G(x1) + G(x2) against G(x1+x2), at (x1, x2, x1+x2)."""
    r = at.const(r).value  # a double: an exact exponent
    p1, p2, p12 = (((-1) ** (n + 1) * at(n, i)) ** r for i in range(3))
    if sub:
        return [([], "additive", p12, p1 + p2)]
    return [([], "additive", p1 + p2, p12)]


def check_G_convexity(n: int, r: float, grid: Grid) -> CheckReport:
    """Sign of the exact second derivative of G_n(x; r) = ((-1)^(n+1)
    psi2^(n)(x))^r:

        G'' = r u^(r-2) [ (r-1) (psi2^(n+1))^2 + psi2^(n) psi2^(n+2) ],
        u = (-1)^(n+1) psi2^(n) > 0.

    Convex for r < -1/(n-1) or r > 0; concave for -1/(n+1) < r < 0; the gap
    [-1/(n-1), -1/(n+1)] is reported without assertion.  The additive
    corollaries (G(x)+G(y) vs G(x+y)) are checked on sampled pairs for the
    two signed-exponent ranges.
    """
    if n < 3:
        raise DomainError("G check requires n >= 3")
    if r == 0:
        raise DomainError("r must be non-zero")
    r = mpf(r)
    lo_gap = -mpf(1) / (n - 1)
    hi_gap = -mpf(1) / (n + 1)
    if r < lo_gap or r > 0:
        expected = "convex"
    elif hi_gap < r < 0:
        expected = "concave"
    else:
        expected = "unasserted"
    b = _ReportBuilder(
        "G-convexity",
        {"n": n, "r": float(r), "grid": asdict(grid), "expected": expected},
    )

    def claims(at):
        if expected == "concave":
            return [([], "G''<0", 0.0, _g_second(n, r, at))]
        return [([], "G''>0", _g_second(n, r, at), 0.0)]

    # In the gap nothing is asserted, but the signs are still read at 30
    # digits wherever float64 cannot tell them.
    found = b.record_all(*_on_grid(grid), claims, recorded=expected != "unasserted")
    seconds = [c[0][3] if expected == "concave" else c[0][2] for c in found]
    signs = [float((g > 0) - (g < 0)) for g in seconds]

    pair_note = None
    if expected in ("convex", "concave") and (r < lo_gap or hi_gap < r < 0):
        sub = r < lo_gap  # G(x)+G(y) < G(x+y) below the gap
        hi_pair = min(grid.hi, 4.0)
        pairs = _triangle_pairs(2 * hi_pair, G_PAIR_SAMPLES, seed=1)
        b.record_all(
            [[float(x1), float(x2)] for x1, x2 in pairs],
            [(x1, x2, x1 + x2) for x1, x2 in pairs],
            partial(_g_pair_claims, n, r, sub),
        )
        pair_note = "subadditive" if sub else "superadditive"
    return b.done(
        expected=expected,
        observed_signs=sorted(set(signs)),
        additive_mode=pair_note,
        gap=[float(lo_gap), float(hi_gap)],
    )


def _hankel_claims(n, j, m, depth, at):
    """s D against 0 and, at depth 1, 0 against s D', with s =
    (-1)^((n+1)(m+1)) and D the determinant of psi2^(n+(i+l)j), i, l = 0..m.

    D is the Leibniz sum over the (m+1)! permutations; D' the same sum with
    each row differentiated in turn (Jacobi), a differentiated entry being
    psi2^(order+1).  A float64 product underflows only where every entry is
    below 1 (y > 78).  It then loses at most 2^-1075 per product, far less
    than one unit of the sum wherever the float tier decides (margins above
    FLOAT_VALUE_FLOOR**2).
    """
    sign = (-1) ** ((n + 1) * (m + 1))
    perms = [((-1) ** sum(a > b for a, b in itertools.combinations(p, 2)), p)
             for p in itertools.permutations(range(m + 1))]

    def leibniz(derived_rows):
        total = 0
        for d in derived_rows:
            rows = [[at(n + (i + l) * j + (i == d)) for l in range(m + 1)]
                    for i in range(m + 1)]
            for parity, perm in perms:
                prod = reduce(operator.mul, (rows[i][l] for i, l in enumerate(perm)))
                total = total + parity * prod
        return sign * total

    claims = [([], "sign", leibniz([None]), 0.0)]
    if depth == 1:
        claims.append(([], "decreasing", 0.0, leibniz(range(m + 1))))
    return claims


def check_hankel_cm(
    n: int, j: int, m_order: int, depth: int, grid: Grid
) -> CheckReport:
    """Sign and monotonicity of the Hankel determinant of derivative orders.

    Entries psi2^(n+(i+l)j)(y), i, l = 0..m with m = ``m_order``; the
    signed determinant (-1)^((n+1)(m+1)) D(y) is non-negative and, at
    depth 1, non-increasing, its derivative taken exactly by the Jacobi
    row-expansion (:func:`_hankel_claims`).  A determinant its error cannot
    separate from zero is an ``equality``.
    """
    if n < 2 or j < 1 or m_order < 1:
        raise DomainError("need n >= 2, j >= 1, m >= 1")
    if m_order > MAX_HANKEL_ORDER:
        raise DomainError(
            f"matrix orders above {MAX_HANKEL_ORDER + 1} are rejected "
            "((m+1)! products in each determinant)"
        )
    if depth not in (0, 1):
        raise DomainError("hankel checks derivative depth 0 or 1")
    b = _ReportBuilder(
        "hankel",
        {"n": n, "j": j, "m": m_order, "depth": depth, "grid": asdict(grid)},
    )
    claims = partial(_hankel_claims, n, j, m_order, depth)
    b.record_all(*_on_grid(grid), claims, strict=False)
    return b.done()


def _cauchy_schwarz_claims(n, const, at):
    """S_{n+1}^2 against S_n S_{n+2} and against const S_n S_{n+2}, with
    S_q = |psi2^(q-1)| / (q-1)! = sum (k+1)/(x+k)^q."""

    def series_sum(q):
        return abs(at(q - 1)) / at.const(mp.factorial(q - 1))

    sn, sm, sp = series_sum(n), series_sum(n + 1), series_sum(n + 2)
    lhs, rhs = sm**2, sn * sp
    return [([], "direct", rhs, lhs),
            ([], "reversed", lhs, at.const(const) * rhs)]


def check_cauchy_schwarz(n: int, grid: Grid) -> CheckReport:
    """S_{n+1}^2 < S_n S_{n+2} and its reversed form with the sharp constant
    (n^2-n-2)/(n^2-n), for S_q(x) = sum (k+1)/(x+k)^q."""
    if n < 3:
        raise DomainError("check_cauchy_schwarz requires n >= 3")
    const = mpf(n * n - n - 2) / (n * n - n)
    b = _ReportBuilder("cauchy-schwarz", {"n": n, "grid": asdict(grid),
                                          "constant": float(const)})
    b.record_all(*_on_grid(grid), partial(_cauchy_schwarz_claims, n, const))
    return b.done()


# ---------------------------------------------------------------------------
# Identity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    """Outcome of testing one printed identity against the canonical series."""

    identity_id: str
    anchor: str
    status: str  # "confirmed" | "discrepancy"
    max_deviation: float
    note: str


def _entry(identity_id, anchor, pairs, note_ok, note_bad):
    """Confirmed when each (lhs, rhs) pair of :class:`Approx` agrees within
    100 times the error of lhs - rhs; the deviation is the largest
    |lhs - rhs|."""
    diffs = [lhs - rhs for lhs, rhs in pairs]
    deviation = max(float(abs(d.value)) for d in diffs)
    if all(abs(d.value) <= 100 * d.error for d in diffs):
        return AuditEntry(identity_id, anchor, "confirmed", deviation, note_ok)
    return AuditEntry(identity_id, anchor, "discrepancy", deviation, note_bad)


def _lagrange_brute_force(n=3, x=1.0, terms=10000):
    """Float64 double-sum oracle over pairs k < j versus the moment form.

    The pair sum is grouped by lag d = j - k, each lag a dot product, so it
    runs in O(terms) memory; it stays a pair-by-pair sum, not the moment
    expansion it is compared with.
    """
    k = np.arange(terms, dtype=np.float64)
    u = (1.0 + k) * (x + k) ** (-(n + 2.0))  # weight (1+k)/(x+k)^(n+2)
    base = x + k
    s_n = float(np.sum((1.0 + k) * base ** (-float(n))))
    s_n1 = float(np.sum((1.0 + k) * base ** (-float(n + 1))))
    s_n2 = float(np.sum((1.0 + k) * base ** (-float(n + 2))))
    moment_form = s_n * s_n2 - s_n1 * s_n1

    brute = math.fsum(d * d * float(np.dot(u[:-d], u[d:])) for d in range(1, terms))
    fact2 = float(math.factorial(n)) ** 2
    return brute * fact2, moment_form * fact2


def audit_identities() -> list:
    """Test every printed representation against the canonical series.

    Each entry compares (lhs, rhs) pairs of :class:`Approx` through
    :func:`_entry`, so every gate is the claimed error of lhs - rhs: the
    routes' and functions' own claims plus the rounding of the formula that
    combines them.  Returns a deterministic list of entries; discrepancies
    are findings, not failures, and each carries the measured deviation.
    """
    def series(n, x):
        return Approx.of(psi2_series(PolyDoubleArg(n, x)))

    probes = [(2, mpf(1)), (3, mpf(2)), (4, mpf("0.5"))]

    def against_series(route):
        return [(series(n, x), Approx.of(route(PolyDoubleArg(n, x)))) for n, x in probes]

    def zeta_closed_form(n, x):
        za, zb = (Approx.of(hurwitz_zeta(k, x)) for k in (n, n + 1))
        fact = Approx.rounded(mp.factorial(n))
        return (-1) ** (n + 1) * fact * (za + Approx.rounded(1 - x) * zb)

    # Printed sigma and tau against the derived expansion at x + 1.
    n, x, N = 3, mpf(2), 4
    ref = series(n, x + 1)
    tau = Approx.of(asymptotic_remainder(PolyDoubleArg(n, x), N))
    closed = asymptotic_closed_form(PolyDoubleArg(n, x))
    derived, _ = asymptotic_bernoulli_sum(n - 2, x, N)
    # The printed block sum is the derived one at order n - 1 (p = n - 3),
    # after the terms through B_2 (N = 1).
    through_b2, _ = asymptotic_bernoulli_sum(n - 2, x, 1)
    blocks_printed, _ = asymptotic_bernoulli_sum(n - 3, x, N, first=4)
    sigma_printed = (-1) ** n * (through_b2 - blocks_printed)
    tau_printed = Approx(*_remainder_integral(n - 3, x, N, first=1))

    # Half-argument difference in Hurwitz-zeta and in polygamma terms.
    s, m = 4, mpf(3)
    direct = series(s, m / 2) - series(s, m)
    za, zb, zc, zd = (Approx.of(hurwitz_zeta(k, a))
                      for k, a in [(s, m / 2), (s + 1, m / 2), (s, m), (s + 1, m)])
    fact = mp.factorial(s)  # 24, exact
    zeta_printed = ((-1) ** (s + 1) * fact * (2 * za + (2 - m) * zb)
                    + (-1) ** (s - 1) * fact * (zc + (1 - m) * zd))
    pa, pb, pc, pd = (Approx.of(polygamma(k, a))
                      for k, a in [(s - 1, m / 2), (s, m / 2), (s - 1, m), (s, m)])
    polygamma_printed = -2 * s * pa + (2 - m) * pb + s * pc - (1 - m) * pd

    # Order-two determinant remark at n = 2, y = 1: which squared entry is
    # intended.  The printed reading carries the sign (-1)^(n+1); only a
    # negative reading deviates.
    d0, d2 = (Approx.of(psi2_cached(k, mpf(1))) for k in (2, 4))
    hankel_printed = -(d0 * d2 - d0**2)

    # The float64 Lagrange pair sum is good to 1e-10.
    brute, moment = _lagrange_brute_force()

    return [_entry(*row) for row in [
        ("integral-representation", "Laplace transform of t^n/(1-e^-t)^2",
         against_series(psi2_integral),
         "quadrature of the kernel matches the series at all probes",
         "integral representation disagrees with the series"),
        ("polygamma-relation", "-n psi^(n-1) + (1-x) psi^(n)",
         against_series(psi2_from_polygamma),
         "polygamma combination matches the series",
         "polygamma combination disagrees with the series"),
        ("zeta-closed-form", "(-1)^(n+1) n! (zeta(n,x) + (1-x) zeta(n+1,x))",
         [(series(n, x), zeta_closed_form(n, x)) for n, x in probes],
         "Hurwitz-zeta closed form matches the series",
         "Hurwitz-zeta closed form disagrees with the series"),
        ("recurrence", "psi2^(n)(x+1) + psi^(n)(x) = psi2^(n)(x)",
         [(series(n, x + 1) + Approx.of(polygamma(n, x)), series(n, x)) for n, x in probes],
         "recurrence holds at all probes",
         "recurrence fails"),
        ("lagrange-expansion",
         "sum over pairs k<j of (k-j)^2 (1+k)(1+j) [(x+k)(x+j)]^(-n-2)",
         [(Approx(brute, 1e-10), moment)],
         "pairwise double sum matches n!^2 (S_n S_{n+2} - S_{n+1}^2)",
         "pairwise double sum disagrees with the moment form"),
        # The derived expansion with its exact remainder is an identity.
        ("asymptotic-derived-identity",
         "expansion with re-derived sigma_n, tau_n and remainder on",
         [(series(n, x + 1), Approx.of(psi2_asymptotic(PolyDoubleArg(n, x), N)))
          for n, x, N in [(2, mpf(2), 3), (3, mpf(10), 4), (5, mpf(1), 6)]],
         "re-derived expansion plus remainder reproduces the series",
         "re-derived expansion fails against the series"),
        ("sigma-printed-form", "Bernoulli block sum with (2k+n-1)!/x^(2k+n)",
         [(ref, closed + sigma_printed + tau)],
         "printed Bernoulli block sum is consistent",
         "printed sign/exponent/factorial fail the identity; the derived "
         "(-1)^n (2k+n)!/x^(2k+n+1) form is used"),
        ("tau-printed-form", "remainder integral with t^(n-3) weight and k starting at 1",
         [(ref, closed + (-1) ** n * (derived - tau_printed))],
         "printed remainder integrand is consistent",
         "printed remainder fails the identity (and its integrand "
         "diverges like 1/t at the origin for n = 2); the derived "
         "(-1)^n t^(n-2), k >= 0 form is used"),
        ("remark-zeta-half-argument", "half-argument difference in Hurwitz-zeta terms",
         [(direct, zeta_printed)],
         "zeta-form of the half-argument difference is consistent",
         "printed zeta form carries doubled half-argument coefficients "
         "and a flipped relative sign; fails against direct evaluation"),
        ("remark-polygamma-half-argument",
         "half-argument difference in polygamma terms",
         [(direct, polygamma_printed)],
         "polygamma form of the half-argument difference is consistent",
         "printed polygamma form doubles the half-argument coefficients; "
         "fails against direct evaluation"),
        # The log double gamma integral formula at the unit argument, as read.
        ("vigneras-constant", "additive constant -(3/2) log pi in the log-integral formula",
         [(-(mpf(3) / 2) * Approx.rounded(mp.log(mp.pi)), 0)],
         "normalization constant is consistent",
         "a reading of the printed formula, not an evaluation of it: the "
         "formula should vanish at the unit argument (the function value "
         "there is 1), but its additive constant leaves -(3/2) log pi"),
        # The first-derivative formula is read off as 0 there, not computed.
        ("didouble-integral-normalization",
         "first-derivative integral formula at the unit argument",
         [(0, Approx.of(psi2_didouble(1)))],
         "first-derivative integral formula is consistent",
         "a reading of the printed formula, not an evaluation of it: it "
         "reads 0 at the unit argument while the series gives ~1.1583; "
         "for positive shifts its integrand even diverges like 1/t at the "
         "origin - a sign/normalization convention gap"),
        ("hankel-remark-reading", "two-by-two determinant special case",
         [(Approx(min(hankel_printed.value, 0), hankel_printed.error), 0)],
         "printed two-by-two reading is consistent",
         "printed reading (squaring the base-order entry, with an extra "
         "alternating sign) is negative; the reading with the middle "
         "entry squared and no sign factor matches the determinant case"),
    ]]
