"""Machine verification of the inequality and monotonicity theorems.

Every derivative-sign question is an exact evaluation: differentiation is
closed on the family (d/dx psi2^(m) = psi2^(m+1)), so complete-monotonicity
patterns, Leibniz-expanded derivatives of products, and Jacobi-expanded
derivatives of determinants all reduce to direct function values.  Checks
emit a :class:`CheckReport` with per-point witnesses; the identity audit
compares each printed representation against the canonical series and
classifies it as confirmed or discrepant.

Verification is numerical certification at finite depth on finite grids,
not symbolic proof; report headers say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np
from mpmath import mp, mpf

from .errors import DomainError
from .polydg import (
    AsymptoticParams,
    PolyDoubleArg,
    Psi2Kernel,
    asymptotic_closed_form,
    asymptotic_remainder,
    psi2_asymptotic,
    psi2_cached,
    psi2_didouble,
    psi2_from_polygamma,
    psi2_integral,
    psi2_series,
    psi2_zeta_form,
)
from .quadrature import IntegrandSpec, integrate_finite, integrate_semi_infinite
from .specfun import BERNOULLI, hurwitz_zeta, polygamma

DISCLAIMER = "numerical certification at finite depth/grid; not a symbolic proof"

# An inequality holds strictly when its margin clears this multiple of the
# combined error estimate; smaller |margins| are inconclusive, not failures.
STRICTNESS_FACTOR = 10.0

MAX_HANKEL_ORDER = 4

# Sampled pairs for the additive corollaries of the G_n(x; r) check.
G_PAIR_SAMPLES = 50


@dataclass(frozen=True)
class Grid:
    """Finite sampling of (0, inf), linear or logarithmic."""

    lo: float
    hi: float
    count: int = 200
    spacing: str = "log"

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise DomainError("grid must satisfy 0 < lo < hi")
        if self.count < 2:
            raise DomainError("grid needs at least two points")
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
    tolerance_used: float
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    header: str = DISCLAIMER

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tolerance"] = d.pop("tolerance_used")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        d = dict(d)
        d["tolerance_used"] = d.pop("tolerance")
        return cls(**d)


class _ReportBuilder:
    def __init__(self, check_id, params):
        # Verdicts gate margins on STRICTNESS_FACTOR times each point's own
        # error estimate, so no fixed tolerance is ever applied.
        self.report = CheckReport(
            check_id=check_id, params=params, passed=True, tolerance_used=0.0
        )

    def record(self, point, lhs, rhs, err, strict=True, label=None):
        """Margin convention: positive means the claimed inequality holds.

        ``strict=False`` marks claims where equality is admissible (so an
        in-gate margin is expected, not a near-miss).  The verdict reads the
        margin at working precision; the entry's floats may overflow.
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

    def done(self, **summary):
        self.report.summary.update(summary)
        return self.report


def _v(n, x):
    return psi2_cached(n, x)


def _prod_err(a, b):
    return abs(a.value) * b.error + abs(b.value) * a.error


def check_cm(n: int, depth: int, grid: Grid) -> CheckReport:
    """Alternating derivative signs of (-1)^(n+1) psi2^(n): order 0..depth.

    The k-th derivative is psi2^(n+k) exactly, so each sign condition is
    (-1)^(n+k+1) psi2^(n+k)(x) >= 0, evaluated directly.
    """
    if n < 2:
        raise DomainError("check_cm requires n >= 2")
    if depth < 0:
        raise DomainError("derivative depth must be >= 0")
    b = _ReportBuilder("cm", {"n": n, "depth": depth, "grid": asdict(grid)})
    for x in grid.points():
        for k in range(depth + 1):
            r = _v(n + k, x)
            signed = mpf(-1) ** (n + k + 1) * r.value
            b.record([float(x), k], signed, 0.0, r.error, label=f"k={k}")
    return b.done()


def check_turan(n: int, grid: Grid) -> CheckReport:
    """(psi2^(n)(x+1))^2 <= psi2^(n)(x) psi2^(n)(x+2) on the grid."""
    if n < 2:
        raise DomainError("check_turan requires n >= 2")
    b = _ReportBuilder("turan", {"n": n, "grid": asdict(grid)})
    for x in grid.points():
        mid, lo, hi = _v(n, x + 1), _v(n, x), _v(n, x + 2)
        lhs = mid.value ** 2
        rhs = lo.value * hi.value
        err = 2 * abs(float(mid.value)) * mid.error + _prod_err(lo, hi)
        b.record([float(x)], rhs, lhs, err)
    return b.done()


def check_ratio_bounds(n: int, grid: Grid) -> CheckReport:
    """(n-2)/(n-1) < (psi2^(n))^2/(psi2^(n-1) psi2^(n+1)) < n/(n+1), strict.

    The summary carries the grid sup/inf of the ratio: it drifts toward the
    lower constant for x -> inf and toward the upper one for x -> 0.
    """
    if n < 3:
        raise DomainError("check_ratio_bounds requires n >= 3")
    b = _ReportBuilder("ratio-bounds", {"n": n, "grid": asdict(grid)})
    lo_bound = (n - 2) / (n - 1)
    hi_bound = n / (n + 1)
    ratios = []
    for x in grid.points():
        mid, lo, hi = _v(n, x), _v(n - 1, x), _v(n + 1, x)
        ratio = mid.value ** 2 / (lo.value * hi.value)
        denom = abs(float(lo.value * hi.value))
        err = (
            2 * abs(float(mid.value)) * mid.error
            + float(abs(ratio)) * _prod_err(lo, hi)
        ) / denom
        ratios.append(float(ratio))
        b.record([float(x)], ratio, lo_bound, err, label="lower")
        b.record([float(x)], hi_bound, ratio, err, label="upper")
    return b.done(
        ratio_inf=min(ratios),
        ratio_sup=max(ratios),
        lower_bound=lo_bound,
        upper_bound=hi_bound,
    )


@dataclass(frozen=True)
class FParams:
    """Parameters of F_n(x; omega) = (psi2^(n))^2 - omega psi2^(n-1) psi2^(n+1)."""

    n: int
    omega: float
    derivative_depth: int = 6

    def __post_init__(self):
        if self.n < 3:
            raise DomainError("F check requires n >= 3")
        if self.derivative_depth < 0:
            raise DomainError("derivative depth must be >= 0")


def _f_derivative(n: int, omega, k: int, lookup):
    """Exact k-th derivative of F via the Leibniz rule; returns (value, err).

    ``lookup(m)`` gives psi2^(m) with ``.value`` and ``.error``: one point's
    EvalResult in the check, psi2_grid arrays over a whole grid in figures.
    """
    total = err = 0
    for j in range(k + 1):
        c = math.comb(k, j)
        a1, a2 = lookup(n + j), lookup(n + k - j)
        b1, b2 = lookup(n - 1 + j), lookup(n + 1 + k - j)
        total += c * (a1.value * a2.value - omega * b1.value * b2.value)
        err += c * (_prod_err(a1, a2) + abs(omega) * _prod_err(b1, b2))
    return total, err


def check_F_cm(params: FParams, grid: Grid) -> CheckReport:
    """Alternating-sign pattern of F (omega below the lower constant) or of
    -F (omega above the upper constant) up to the requested depth.

    For omega strictly inside the gap neither pattern is claimed; both are
    evaluated and the report records where each one fails.
    """
    n, omega, depth = params.n, mpf(params.omega), params.derivative_depth
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
    first_failure = {}
    for x in grid.points():
        for k in range(depth + 1):
            val, err = _f_derivative(n, omega, k, lambda m: _v(m, x))
            for sgn, name in patterns:
                signed = mpf(-1) ** k * sgn * val
                before = len(b.report.counterexamples)
                b.record([float(x), k], signed, 0.0, err, label=f"{name},k={k}")
                if len(b.report.counterexamples) > before and name not in first_failure:
                    first_failure[name] = {"x": float(x), "k": k}
    return b.done(
        gap_interval=[float(lo_c), float(hi_c)],
        first_failure=first_failure,
        checked_patterns=[name for _, name in patterns],
    )


def lemma_I1_value(n: int, a, tol: float = 1e-9):
    """I_1(a; n) = int_0^1 [(2n-3)u^2 - 1] f_n(a(1+u)) f_n(a(1-u)) du,

    with f_n(t) = t^(n-1)/(1-e^(-t))^2; returns a QuadratureResult."""
    if n < 3:
        raise DomainError("lemma_I1_value requires n >= 3")
    a = mpf(a)
    if a <= 0:
        raise DomainError("lemma_I1_value requires a > 0")
    kernel = Psi2Kernel(n - 1)  # density t^(n-1)/(1-e^-t)^2 == f_n

    def integrand(u):
        return ((2 * n - 3) * u * u - 1) * kernel.density(
            a * (1 + u)
        ) * kernel.density(a * (1 - u))

    return integrate_finite(IntegrandSpec(evaluate=integrand, origin_order=0), 0, 1, tol)


def check_lemma_I1(n: int, a_grid: Grid, tol: float = 1e-9) -> CheckReport:
    """Negativity of I_1(a; n) for every a on the grid."""
    b = _ReportBuilder("lemma-I1", {"n": n, "grid": asdict(a_grid), "tol": tol})
    for a in a_grid.points():
        quad = lemma_I1_value(n, a, tol)
        b.record([float(a)], 0.0, quad.value, quad.error_estimate)
    return b.done()


@dataclass(frozen=True)
class SubAddParams:
    """Order split n + r, domain bound m, and the pair-sample budget."""

    n: int
    r: int = 0
    m: float = 2.0
    samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.r < 0:
            raise DomainError("need n >= 2 and r >= 0")
        if not self.m > 0 or self.samples < 1:
            raise DomainError("need m > 0 and samples >= 1")


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


def check_subadditivity(params: SubAddParams) -> CheckReport:
    """Strict sub-/superadditivity of psi2^(n+r) on the bounded triangle.

    Order s = n + r: subadditive when s is odd (parities of n and r differ),
    superadditive when s is even.  Also checks the sharpened bound: the
    deficit psi2^(s)(x1+x2) - psi2^(s)(x1) - psi2^(s)(x2) stays on the
    correct side of its midpoint value psi2^(s)(m) - 2 psi2^(s)(m/2), which
    is attained exactly at x1 = x2 = m/2.
    """
    s = params.n + params.r
    m = mpf(params.m)
    subadditive = s % 2 == 1
    b = _ReportBuilder(
        "subadditivity",
        {
            "n": params.n,
            "r": params.r,
            "m": float(m),
            "samples": params.samples,
            "seed": params.seed,
            "mode": "subadditive" if subadditive else "superadditive",
        },
    )
    at_m = _v(s, m)
    at_half = _v(s, m / 2)
    bound = at_m.value - 2 * at_half.value
    bound_err = at_m.error + 2 * at_half.error

    pairs = _triangle_pairs(float(m), params.samples, params.seed)
    for x1, x2 in pairs:
        whole, p1, p2 = _v(s, x1 + x2), _v(s, x1), _v(s, x2)
        deficit = whole.value - p1.value - p2.value
        err = whole.error + p1.error + p2.error
        if subadditive:
            b.record([float(x1), float(x2)], 0.0, deficit, err, label="plain")
            b.record(
                [float(x1), float(x2)], bound, deficit, err + bound_err, label="sharp"
            )
        else:
            b.record([float(x1), float(x2)], deficit, 0.0, err, label="plain")
            b.record(
                [float(x1), float(x2)], deficit, bound, err + bound_err, label="sharp"
            )
    # Midpoint attainment: equality, so the sharp margin is exactly zero.
    mid = _v(s, m / 2)
    mid_deficit = at_m.value - 2 * mid.value
    b.record(
        [float(m / 2), float(m / 2)],
        bound if subadditive else mid_deficit,
        mid_deficit if subadditive else bound,
        at_m.error + 4 * mid.error,
        strict=False,
        label="midpoint",
    )
    return b.done(sharp_bound=float(bound))


@dataclass(frozen=True)
class GParams:
    """Exponent r of G_n(x; r) = ((-1)^(n+1) psi2^(n)(x))^r."""

    n: int
    r: float

    def __post_init__(self):
        if self.n < 3:
            raise DomainError("G check requires n >= 3")
        if self.r == 0:
            raise DomainError("r must be non-zero")


def check_G_convexity(params: GParams, grid: Grid) -> CheckReport:
    """Sign of the exact second derivative of G_n(x; r):

        G'' = r u^(r-2) [ (r-1) (psi2^(n+1))^2 + psi2^(n) psi2^(n+2) ],
        u = (-1)^(n+1) psi2^(n) > 0.

    Convex for r < -1/(n-1) or r > 0; concave for -1/(n+1) < r < 0; the gap
    [-1/(n-1), -1/(n+1)] is reported without assertion.  The additive
    corollaries (G(x)+G(y) vs G(x+y)) are checked on sampled pairs for the
    two signed-exponent ranges.
    """
    n, r = params.n, mpf(params.r)
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
    signs = []
    for x in grid.points():
        f0, f1, f2 = _v(n, x), _v(n + 1, x), _v(n + 2, x)
        u = mpf(-1) ** (n + 1) * f0.value
        inner = (r - 1) * f1.value ** 2 + f0.value * f2.value
        second = r * u ** (r - 2) * inner
        err = abs(float(r * u ** (r - 2))) * (
            2 * abs(float(r - 1)) * abs(float(f1.value)) * f1.error
            + _prod_err(f0, f2)
        )
        signs.append(float(mp.sign(second)))
        if expected == "convex":
            b.record([float(x)], second, 0.0, err, label="G''>0")
        elif expected == "concave":
            b.record([float(x)], 0.0, second, err, label="G''<0")

    pair_note = None
    if expected in ("convex", "concave") and (r < lo_gap or hi_gap < r < 0):
        sub = r < lo_gap  # G(x)+G(y) < G(x+y) below the gap
        hi_pair = min(grid.hi, 4.0)
        for x1, x2 in _triangle_pairs(2 * hi_pair, G_PAIR_SAMPLES, seed=1):
            g1 = mpf(-1) ** (n + 1) * _v(n, x1).value
            g2 = mpf(-1) ** (n + 1) * _v(n, x2).value
            g12 = mpf(-1) ** (n + 1) * _v(n, x1 + x2).value
            lhs, rhs = g1 ** r + g2 ** r, g12 ** r
            err = 1e-18 * float(abs(lhs) + abs(rhs))
            if sub:
                b.record([float(x1), float(x2)], rhs, lhs, err, label="additive")
            else:
                b.record([float(x1), float(x2)], lhs, rhs, err, label="additive")
        pair_note = "subadditive" if sub else "superadditive"
    return b.done(
        expected=expected,
        observed_signs=sorted(set(signs)),
        additive_mode=pair_note,
        gap=[float(lo_gap), float(hi_gap)],
    )


@dataclass(frozen=True)
class HankelParams:
    """Base order n, stride j, and matrix order m+1 for the determinant."""

    n: int
    j: int = 1
    m: int = 1

    def __post_init__(self):
        if self.n < 2 or self.j < 1 or self.m < 1:
            raise DomainError("need n >= 2, j >= 1, m >= 1")
        if self.m > MAX_HANKEL_ORDER:
            raise DomainError(
                f"matrix orders above {MAX_HANKEL_ORDER + 1} are rejected "
                "(elimination error growth)"
            )


def _det_with_condition(rows):
    """Determinant by partial-pivot elimination plus a pivot-ratio estimate."""
    a = [list(row) for row in rows]
    size = len(a)
    det = mpf(1)
    pivots = []
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mpf(0), mpf("inf")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        pivots.append(abs(a[col][col]))
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= factor * a[col][c]
    cond = max(pivots) / min(pivots)
    return det, cond


def _hankel_matrix(params: HankelParams, y, row_derivative=None):
    n, j, m = params.n, params.j, params.m
    rows = []
    for i in range(m + 1):
        row = []
        for l in range(m + 1):
            order = n + (i + l) * j + (1 if i == row_derivative else 0)
            row.append(_v(order, y).value)
        rows.append(row)
    return rows


def check_hankel_cm(params: HankelParams, depth: int, grid: Grid) -> CheckReport:
    """Sign and monotonicity of the Hankel determinant of derivative orders.

    Entries psi2^(n+(i+l)j)(y); the signed determinant
    (-1)^((n+1)(m+1)) D(y) is non-negative and (depth >= 1) non-increasing,
    its derivative taken exactly by the Jacobi row-expansion.
    """
    if depth < 0:
        raise DomainError("derivative depth must be >= 0")
    b = _ReportBuilder(
        "hankel",
        {"n": params.n, "j": params.j, "m": params.m, "depth": depth,
         "grid": asdict(grid)},
    )
    sign = mpf(-1) ** ((params.n + 1) * (params.m + 1))
    worst_cond = 0.0
    for y in grid.points():
        det, cond = _det_with_condition(_hankel_matrix(params, y))
        worst_cond = max(worst_cond, float(cond))
        scale = float(abs(det)) if det != 0 else 1.0
        err = 1e-18 * scale * float(cond)
        b.record([float(y)], sign * det, 0.0, err, strict=False, label="sign")
        if depth >= 1:
            ddet = mpf(0)
            for i in range(params.m + 1):
                d, _ = _det_with_condition(
                    _hankel_matrix(params, y, row_derivative=i)
                )
                ddet += d
            b.record([float(y)], 0.0, sign * ddet, err, strict=False,
                     label="decreasing")
    if worst_cond > 1e25:
        b.report.summary["ill_conditioned"] = True
    return b.done(condition_estimate=worst_cond)


def _series_sum(q: int, x) -> mpf:
    """S_q(x) = sum (k+1)/(x+k)^q through the canonical series engine."""
    if q < 3:
        raise DomainError("series engine covers q >= 3 (order q-1 >= 2)")
    return abs(psi2_series(PolyDoubleArg(q - 1, x)).value) / mp.factorial(q - 1)


def check_cauchy_schwarz(n: int, grid: Grid) -> CheckReport:
    """S_{n+1}^2 < S_n S_{n+2} and its reversed form with the sharp constant
    (n^2-n-2)/(n^2-n), for S_q(x) = sum (k+1)/(x+k)^q."""
    if n < 3:
        raise DomainError("check_cauchy_schwarz requires n >= 3")
    const = mpf(n * n - n - 2) / (n * n - n)
    b = _ReportBuilder("cauchy-schwarz", {"n": n, "grid": asdict(grid),
                                          "constant": float(const)})
    for x in grid.points():
        sn, sm, sp = _series_sum(n, x), _series_sum(n + 1, x), _series_sum(n + 2, x)
        lhs = sm ** 2
        rhs = sn * sp
        err = 1e-18 * float(abs(lhs) + abs(rhs))
        b.record([float(x)], rhs, lhs, err, label="direct")
        b.record([float(x)], lhs, const * rhs, err, label="reversed")
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


def _entry(identity_id, anchor, deviation, err, note_ok, note_bad, threshold=None):
    deviation = float(deviation)
    gate = threshold if threshold is not None else 100.0 * max(err, 1e-28)
    if deviation <= gate:
        return AuditEntry(identity_id, anchor, "confirmed", deviation, note_ok)
    assert deviation > 100.0 * max(err, 1e-28)
    return AuditEntry(identity_id, anchor, "discrepancy", deviation, note_bad)


def _printed_sigma(n, x, n_blocks):
    # Printed variant: (2k+n-1)! and x^(2k+n) in place of (2k+n)!, x^(2k+n+1).
    total = mpf(0)
    for k in range(1, n_blocks):
        total += (
            BERNOULLI[2 * k + 2]
            * mp.factorial(2 * k + n - 1)
            / (mp.factorial(2 * k + 2) * x ** (2 * k + n))
        )
    return mpf(-1) ** (n + 1) * total


def _printed_tau(n, x, n_blocks, tol=1e-10):
    # Printed variant: t^(n-3) weight and Bernoulli sum starting at k = 1.
    from .polydg import _bernoulli_remainder

    def evaluate(t):
        rem = _bernoulli_remainder(t, n_blocks) + BERNOULLI[0]  # re-add k=0
        return t ** (n - 3) * mp.exp(-x * t) * rem

    spec = IntegrandSpec(evaluate=evaluate, decay_rate=float(x), origin_order=n - 3)
    quad = integrate_semi_infinite(spec, tol)
    return mpf(-1) ** (n + 1) * quad.value, quad.error_estimate


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

    Returns a deterministic list of entries; discrepancies are findings,
    not failures, and each carries the measured deviation.
    """
    entries = []
    probes = [(2, mpf(1)), (3, mpf(2)), (4, mpf("0.5"))]

    # Integral representation, polygamma combination, Hurwitz-zeta closed form.
    routes = [
        (
            "integral-representation",
            "Laplace transform of t^n/(1-e^-t)^2",
            lambda arg: psi2_integral(arg, tol=1e-10),
            "quadrature of the kernel matches the series at all probes",
            "integral representation disagrees with the series",
        ),
        (
            "polygamma-relation",
            "-n psi^(n-1) + (1-x) psi^(n)",
            psi2_from_polygamma,
            "polygamma combination matches the series",
            "polygamma combination disagrees with the series",
        ),
        (
            "zeta-closed-form",
            "(-1)^(n+1) n! (zeta(n,x) + (1-x) zeta(n+1,x))",
            psi2_zeta_form,
            "Hurwitz-zeta closed form matches the series",
            "Hurwitz-zeta closed form disagrees with the series",
        ),
    ]
    for identity_id, anchor, route, note_ok, note_bad in routes:
        dev, err = 0.0, 0.0
        for n, x in probes:
            a = psi2_series(PolyDoubleArg(n, x))
            b = route(PolyDoubleArg(n, x))
            dev = max(dev, abs(float(a.value - b.value)))
            err = max(err, a.error + b.error)
        entries.append(_entry(identity_id, anchor, dev, err, note_ok, note_bad))

    # Downward recurrence.
    dev, err = 0.0, 0.0
    for n, x in probes:
        a = psi2_series(PolyDoubleArg(n, x))
        bshift = psi2_series(PolyDoubleArg(n, x + 1))
        pg = polygamma(n, x)
        dev = max(dev, abs(float(bshift.value + pg.value - a.value)))
        err = max(err, a.error + bshift.error + pg.error)
    entries.append(
        _entry(
            "recurrence",
            "psi2^(n)(x+1) + psi^(n)(x) = psi2^(n)(x)",
            dev,
            err,
            "recurrence holds at all probes",
            "recurrence fails",
        )
    )

    # Lagrange-identity expansion of the moment difference.
    brute, moment = _lagrange_brute_force()
    entries.append(
        _entry(
            "lagrange-expansion",
            "sum over pairs k<j of (k-j)^2 (1+k)(1+j) [(x+k)(x+j)]^(-n-2)",
            abs(brute - moment),
            1e-11,
            "pairwise double sum matches n!^2 (S_n S_{n+2} - S_{n+1}^2)",
            "pairwise double sum disagrees with the moment form",
            threshold=1e-8,
        )
    )

    # Derived asymptotic expansion with exact remainder: an identity.
    dev, err = 0.0, 0.0
    for n, x, N in [(2, mpf(2), 3), (3, mpf(10), 4), (5, mpf(1), 6)]:
        ref = psi2_series(PolyDoubleArg(n, x + 1))
        asym = psi2_asymptotic(
            PolyDoubleArg(n, x), AsymptoticParams(terms=N, include_remainder=True)
        )
        dev = max(dev, abs(float(ref.value - asym.value)))
        err = max(err, ref.error + asym.error)
    entries.append(
        _entry(
            "asymptotic-derived-identity",
            "expansion with re-derived sigma_n, tau_n and remainder on",
            dev,
            err,
            "re-derived expansion plus remainder reproduces the series",
            "re-derived expansion fails against the series",
        )
    )

    # Printed sigma: exponent off by one power of x and one factorial step.
    n, x, N = 3, mpf(2), 4
    ref = psi2_series(PolyDoubleArg(n, x + 1))
    tau = asymptotic_remainder(PolyDoubleArg(n, x), AsymptoticParams(terms=N))
    closed = asymptotic_closed_form(PolyDoubleArg(n, x)).value
    with_printed = closed + _printed_sigma(n, x, N) + tau.value
    dev = abs(float(ref.value - with_printed))
    entries.append(
        _entry(
            "sigma-printed-form",
            "Bernoulli block sum with (2k+n-1)!/x^(2k+n)",
            dev,
            ref.error + tau.error,
            "printed Bernoulli block sum is consistent",
            "printed sign/exponent/factorial fail the identity; the derived "
            "(-1)^n (2k+n)!/x^(2k+n+1) form is used",
        )
    )

    # Printed tau: t^(n-3) weight, Bernoulli sum starting at k = 1.
    from .polydg import asymptotic_bernoulli_sum

    sigma_derived, _ = asymptotic_bernoulli_sum(PolyDoubleArg(n, x), N)
    tau_printed, tau_err = _printed_tau(n, x, N)
    with_printed = closed + sigma_derived + tau_printed
    dev = abs(float(ref.value - with_printed))
    entries.append(
        _entry(
            "tau-printed-form",
            "remainder integral with t^(n-3) weight and k starting at 1",
            dev,
            ref.error + tau_err,
            "printed remainder integrand is consistent",
            "printed remainder fails the identity (and its integrand "
            "diverges like 1/t at the origin for n = 2); the derived "
            "(-1)^n t^(n-2), k >= 0 form is used",
        )
    )

    # Half-argument difference in Hurwitz-zeta terms.
    s_ord, m = 4, mpf(3)
    direct = (
        psi2_series(PolyDoubleArg(s_ord, m / 2)).value
        - psi2_series(PolyDoubleArg(s_ord, m)).value
    )
    za = hurwitz_zeta(s_ord, m / 2).value
    zb = hurwitz_zeta(s_ord + 1, m / 2).value
    zc = hurwitz_zeta(s_ord, m).value
    zd = hurwitz_zeta(s_ord + 1, m).value
    fact = mp.factorial(s_ord)
    printed = mpf(-1) ** (s_ord + 1) * fact * (2 * za + (2 - m) * zb) + mpf(-1) ** (
        s_ord - 1
    ) * fact * (zc + (1 - m) * zd)
    entries.append(
        _entry(
            "remark-zeta-half-argument",
            "half-argument difference in Hurwitz-zeta terms",
            abs(float(direct - printed)),
            1e-20,
            "zeta-form of the half-argument difference is consistent",
            "printed zeta form carries doubled half-argument coefficients "
            "and a flipped relative sign; fails against direct evaluation",
        )
    )

    # Half-argument difference in polygamma terms.
    pa = polygamma(s_ord - 1, m / 2).value
    pb = polygamma(s_ord, m / 2).value
    pc = polygamma(s_ord - 1, m).value
    pd = polygamma(s_ord, m).value
    printed = -2 * s_ord * pa + (2 - m) * pb + s_ord * pc - (1 - m) * pd
    entries.append(
        _entry(
            "remark-polygamma-half-argument",
            "half-argument difference in polygamma terms",
            abs(float(direct - printed)),
            1e-20,
            "polygamma form of the half-argument difference is consistent",
            "printed polygamma form doubles the half-argument coefficients; "
            "fails against direct evaluation",
        )
    )

    # Normalization constant of the log double gamma integral formula.
    const_dev = float(mpf(3) / 2 * mp.log(mp.pi))
    entries.append(
        _entry(
            "vigneras-constant",
            "additive constant -(3/2) log pi in the log-integral formula",
            const_dev,
            1e-25,
            "normalization constant is consistent",
            "the formula should vanish at the unit argument (the function "
            "value there is 1) but yields -(3/2) log pi instead",
        )
    )

    # First-derivative integral formula vs the di-double series.
    didouble_ref = psi2_didouble(1)
    entries.append(
        _entry(
            "didouble-integral-normalization",
            "first-derivative integral formula at the unit argument",
            abs(float(didouble_ref.value)),  # formula evaluates to 0 there
            didouble_ref.error,
            "first-derivative integral formula is consistent",
            "formula gives 0 at the unit argument while the series gives "
            "~1.1583; for positive shifts its integrand even diverges like "
            "1/t at the origin - a sign/normalization convention gap",
        )
    )

    # Order-two determinant remark: which squared entry is intended.
    y = mpf(1)
    n2 = 2
    d0, d1, d2 = _v(n2, y).value, _v(n2 + 1, y).value, _v(n2 + 2, y).value
    printed = mpf(-1) ** (n2 + 1) * (d0 * d2 - d0 ** 2)
    corrected = d0 * d2 - d1 ** 2
    dev = abs(float(min(printed, mpf(0))))  # positivity violation magnitude
    entries.append(
        _entry(
            "hankel-remark-reading",
            "two-by-two determinant special case",
            dev if corrected > 0 else float("nan"),
            1e-20,
            "printed two-by-two reading is consistent",
            "printed reading (squaring the base-order entry, with an extra "
            "alternating sign) is negative; the reading with the middle "
            "entry squared and no sign factor matches the determinant case",
        )
    )

    return entries
