"""Classical special-function layer.

Bernoulli numbers (exact rationals), log-gamma, digamma/polygamma and the
Hurwitz zeta function, each evaluated with a controlled absolute error.
Series run in Python integers a little wider than the working precision,
with exact rational coefficients, and count their own floors: the one
Euler-Maclaurin engine, :func:`power_sum`, sums the Hurwitz zeta, psi^(n)
(n >= 1, as (-1)^(n+1) n! zeta(n+1, x)) and psi2^(n) series, and
:func:`asymptotic_sum` the Bernoulli asymptotic series of log Gamma, log G
and digamma from fixed coefficient tables, and the Bernoulli part of the
psi2^(n) expansion from coefficients built per order.  Their leading terms,
the recurrence shifts and the constants run through mpmath at a fixed
working precision.  Every non-trivial evaluation returns an :class:`EvalResult`
carrying an explicit error estimate, so downstream code never has to guess
how many digits are trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import fone, from_int, mpf_add, mpf_mul, mpf_sub, round_floor

from .errors import DomainError

# Fixed working precision for the whole package.  30 digits leaves ample
# headroom over the tightest consumer tolerance (1e-12 absolute) even when
# function values reach 1e6 and differences of near-equal quantities are
# taken.  Initialized once at import; read-only afterwards.
WORKING_DPS = 30
if mp.dps < WORKING_DPS:
    mp.dps = WORKING_DPS

# Absolute error scale of the hurwitz_zeta stop rule, which ends its tail
# far below it.
ABS_TOL = 1e-12
# Argument size above which asymptotic expansions and Euler-Maclaurin tails
# are trusted; smaller arguments are recurrence-shifted past it first.
SHIFT_THRESHOLD = 12.0


def recurrence_shift(x, threshold=SHIFT_THRESHOLD) -> int:
    """The least m >= 0 with x + m >= threshold, for mpf x; at a huge x it
    costs no more than at a small one."""
    m = mp.ceil(threshold - x)
    return int(m) if m > 0 else 0


def rounding_unit() -> mpf:
    """Relative rounding of one operation, as claimed errors count it.

    10^-mp.dps, but never below 10^-WORKING_DPS: the constants are built
    once at import, so raising mp.dps later does not make them any more
    accurate.  Stop rules still use 10^-mp.dps: more terms never hurt.
    Cached per mp.prec, which fixes both mp.dps and the rounding of the unit
    itself.
    """
    return _rounding_unit(mp.prec)


def shift_products(x, m: int):
    """prod_{i<m} (x+i) and prod_{i<m} (x+i)^(i+1) at working precision.

    The two products whose logs the recurrence shifts of log Gamma and
    log G add, so that each costs one log, not m.  On raw mpf tuples, from
    the top: q_j = (x+j) q_{j+1} and r_j = q_j r_{j+1}, q_m = r_m = 1.
    Each operation rounds once, by less than 2^(1-prec) <= rounding_unit()
    relative: q_0 carries 2m - 1 roundings and r_0 m^2 + m - 1 (that of
    x + j enters r_0 j + 1 times, as does that of q_j), so the log of each
    is off by at most that many rounding units.
    """
    wp, x = mp.prec, x._mpf_
    q = r = fone
    for j in reversed(range(m)):
        q = mpf_mul(q, mpf_add(x, from_int(j), wp), wp)
        r = mpf_mul(r, q, wp)
    return mp.make_mpf(q), mp.make_mpf(r)


@lru_cache(maxsize=None)
def _rounding_unit(prec: int) -> mpf:
    return mpf(10) ** (-min(mp.dps, WORKING_DPS))


def stop_scale() -> mpf:
    """10^-(mp.dps+2): the relative size below which series terms no longer
    count.  Cached per mp.prec, as :func:`rounding_unit` is."""
    return _stop_scale(mp.prec)


@lru_cache(maxsize=None)
def _stop_scale(prec: int) -> mpf:
    return mpf(10) ** (-mp.dps - 2)


@dataclass(frozen=True)
class EvalResult:
    """A function value paired with a rigorous absolute-error estimate."""

    value: mpf
    error: float
    method: str


# Relative rounding of one float64 operation, rounded to nearest.
DOUBLE_UNIT = 2.0**-53


def _unit(value):
    return rounding_unit() if isinstance(value, mpf) else DOUBLE_UNIT


def _parts(x):
    return (x.value, x.error) if isinstance(x, Approx) else (x, 0)


class Approx:
    """A value and a bound on its absolute error: mpf numbers, or float64
    arrays taken elementwise.  Unpacks as ``value, error``.

    Each operation adds what its operands' errors propagate plus one
    rounding unit of |result|, 2^-53 for float64 and rounding_unit() for
    mpf: the running error bound of Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed. (SIAM, 2002), eq. (2.5) and section 3.3.
    Plain numbers are exact operands.  A quotient propagates to first order.
    ``**`` takes an exact exponent: a square is a product; any other power
    v^r propagates r v^r dv/v to first order and, as pow is good to one
    ulp, rounds by two units.
    """

    __slots__ = ("value", "error")
    # numpy operands hand over to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, value, error):
        self.value, self.error = value, error

    @classmethod
    def rounded(cls, value, error=0):
        """``value``, good to ``error`` before it was rounded once."""
        return cls(value, error + _unit(value) * abs(value))

    @classmethod
    def of(cls, result):
        """The value and claimed error of an :class:`EvalResult`."""
        return cls(result.value, result.error)

    def __iter__(self):
        return iter((self.value, self.error))

    def __add__(self, other):
        v, e = _parts(other)
        return Approx.rounded(self.value + v, self.error + e)

    def __mul__(self, other):
        v, e = _parts(other)
        error = abs(self.value) * e + abs(v) * self.error + self.error * e
        return Approx.rounded(self.value * v, error)

    # A rounded sum or product does not depend on the order of its operands,
    # nor a rounded difference a - b on whether it is taken as a + (-b).
    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        v, e = _parts(other)
        q = self.value / v
        return Approx.rounded(q, (self.error + abs(q) * e) / abs(v))

    def __neg__(self):
        return Approx(-self.value, self.error)

    def __abs__(self):
        return Approx(abs(self.value), self.error)

    def __pow__(self, r):
        if r == 2:
            return self * self
        p = self.value**r
        error = abs(r * p) * self.error / abs(self.value)
        return Approx(p, error + 2 * _unit(p) * abs(p))


def _bernoulli_fractions(capacity: int) -> tuple:
    """B_0..B_capacity as Fractions, the even ones from the tangent numbers
    T_k = tan^(2k-1)(0) by Brent and Harvey's TangentNumbers recurrence
    ("Fast computation of Bernoulli, tangent and secant numbers", 2013),
    in integers: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    half = capacity // 2
    tangent = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    values = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (capacity - 1)
    for k in range(1, half + 1):
        values[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1))
    return tuple(values[: capacity + 1])


# B_0..B_64, exact: every Bernoulli coefficient of the package is read here.
_BERNOULLI_FRACTIONS = _B = _bernoulli_fractions(64)

# Euler-Maclaurin correction weights B_2j / (2j)!, j = 1..14, exact: the
# most corrections power_sum applies before reporting what it has.
EM_WEIGHTS = tuple(_B[2 * j] / math.factorial(2 * j) for j in range(1, 15))

# Coefficients c_k of the Bernoulli asymptotic series, k = 1, 2, ..., exact,
# for asymptotic_sum: Stirling's B_2k/(2k(2k-1)) for log Gamma, B_2k/(2k)
# for digamma, and Barnes' B_2k+2/(4k(k+1)) for log G, one shorter as it
# reads one number ahead.
STIRLING_COEFFS = tuple(_B[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, 33))
DIGAMMA_COEFFS = tuple(_B[2 * k] / (2 * k) for k in range(1, 33))
BARNES_COEFFS = tuple(_B[2 * k + 2] / (4 * k * (k + 1)) for k in range(1, 32))


@dataclass(frozen=True)
class Constants:
    euler_gamma: mpf
    log_two_pi: mpf
    # zeta'(-1) = 1/12 - log A, A being Glaisher's constant: the constant
    # term of Barnes' expansion of log G.
    zeta_prime_minus_one: mpf


CONSTANTS = Constants(
    euler_gamma=+mp.euler,
    log_two_pi=mp.log(2 * mp.pi),
    zeta_prime_minus_one=mpf(1) / 12 - mp.log(mp.glaisher),
)


# Bits power_sum carries beyond mp.prec and the bit length of its order.
_GUARD_BITS = 20


def _floor_bits(man, exp, k, w):
    """(m, e), m 2^e a lower bound on man 2^exp + k (man, k >= 0, not both
    0) with m < 2^w, short of it by less than 2^(3-w) relative."""
    top = man.bit_length() + exp
    if k:
        top = max(top, k.bit_length())
    e = top + 1 - w
    m = man << (exp - e) if exp >= e else man >> (e - exp)
    return m + (k << -e if e < 0 else k >> e), e


def _floor_pow(m, e, q, w):
    """(M, E), M 2^E a lower bound on (m 2^e)^q by binary powering, each
    product truncated to w bits."""
    r, re = m, e
    for bit in bin(q)[3:]:
        r, re = r * r, 2 * re
        if bit == "1":
            r, re = r * m, re + e
        shift = r.bit_length() - w
        if shift > 0:
            r, re = r >> shift, re + shift
    return r, re


def _mul(x, y, w):
    """Product of two (mantissa, exponent) pairs, truncated to w bits."""
    m, e = x[0] * y[0], x[1] + y[1]
    shift = abs(m).bit_length() - w
    return (m >> shift, e + shift) if shift > 0 else (m, e)


def _fixed(x, f, num=1, den=1):
    """floor(m 2^e num / den) on the grid 2^-f, for x = (m, e), den > 0."""
    m, shift = x[0] * num, x[1] + f
    return (m << shift) // den if shift >= 0 else (m >> -shift) // den


def power_sum(a, p: int, d=None, stop=None):
    """S = sum_{k>=0} (d+k)/(a+k)^(p+1) in fixed point, or sum (a+k)^(-p)
    when ``d`` is None (or equals a).

    ``a`` > 0 and the numerator offset ``d`` > 0 are mpf numbers taken
    exactly, and p >= 2 an integer, so every term is positive.  With c =
    d - a, a term is (a+k)^(-p) + c (a+k)^(-(p+1)); c enters only the tail,
    floored to w bits.  The sum runs in Python integers on the grid 2^-F,
    F being chosen so that the first term or the tail's (b + c) b^-p / p
    (lower bounds on S) spans w = mp.prec + 20 + bitlength(p+32) + 6 bits,
    whatever a and p, and b^(1-p)/(p(p-1)) (another) at most 2w: with c
    near -a, (b + c) b^-p / p lies a factor of about a below S.  So no
    integer grows past about 2w bits plus a log term in p, and a huge a
    costs no more than a small one.

    H = max(8, ceil(22 - a)) head terms come first: a + k floored to w
    bits, raised to q = p + 1 (q = p and numerator 1 when c = 0) by binary
    powering truncated to w bits after each product, then one floored
    division of the exact numerator d + k by it.  A floored base is
    short by under 2^(3-w) relative and a truncation by under 2^(1-w), so
    by induction on q (E(2j) = 2E(j) + 2^(1-w), E(2j+1) = 2E(j) + 2^(3-w) +
    2^(1-w)) a truncated q-th power is short by under q 2^(4-w).  The tail
    at b = a + H is Euler-Maclaurin at k = 0: the integral, the half term
    and at most 14 corrections B_2j/(2j)! f^(2j-1)(b), from the exact
    weights EM_WEIGHTS and the derivative recurrence on (mantissa,
    exponent) pairs of w bits.  Corrections stop once two consecutive ones
    fall below ``stop`` (a stop above 2^w S counts as 2^w S) or, by default,
    below 10^-(dps+2) of the head plus the leading integral b^(1-p)/(p-1):
    the terms can cancel exactly in one correction at isolated arguments.

    Returns (S, error, H).  The error is the truncation, the larger of the
    last two corrections, plus what the kernel counts of its own rounding:
    each summed term is within rho = (p + 32) 2^(6-w) of its exact value
    before its floor, which adds under one unit of 2^-F.  S itself is
    rounded once more to mp.prec, which the callers count.
    """
    w = mp.prec + _GUARD_BITS + (p + 32).bit_length() + 6
    _, am, ae, _ = a._mpf_
    d = a._mpf_ if d is None else mpf(d)._mpf_
    _, dm, de, _ = d
    # c = d - a floored to w bits; it is 0 only when d = a.
    sign, cm, ce, _ = mpf_sub(d, a._mpf_, w, round_floor)
    c = (-cm if sign else cm, ce)
    q = p + 1 if cm else p
    head_terms = max(8, recurrence_shift(a, SHIFT_THRESHOLD + 10))

    # (numerator, power) of each head term; the numerator is 1 when c = 0.
    head = []
    for k in range(head_terms):
        m, e = _floor_bits(am, ae, k, w)
        if not cm:
            numerator = (1, 0)
        elif de >= 0:
            numerator = ((dm << de) + k, 0)
        else:
            numerator = (dm + (k << -de), de)
        head.append((numerator, _floor_pow(m, e, q, w)))
    b = _floor_bits(am, ae, head_terms, w)
    big_m, big_e = _floor_pow(*b, p, w)
    inv_pow = ((1 << 2 * w) // big_m, -2 * w - big_e)  # b^-p
    inv_b = ((1 << 2 * w) // b[0], -2 * w - b[1])
    inv_b2 = ((1 << 3 * w) // (b[0] * b[0]), -3 * w - 2 * b[1])

    # S is at least its first term and, but for the roughness of the sum
    # against its integral, the tail's (b + c) b^-p / p and b^(1-p)/(p(p-1)).
    (num_m, num_e), (pow_m, pow_e) = head[0]
    first = num_m.bit_length() + num_e - pow_m.bit_length() - pow_e - 1
    top_m, top_e = _floor_bits(dm, de, head_terms, w)
    integral = (top_m.bit_length() + top_e + inv_pow[0].bit_length() + inv_pow[1]
                - 2 - p.bit_length())
    whole = (b[0].bit_length() + b[1] + inv_pow[0].bit_length() + inv_pow[1]
             - 2 * p.bit_length())
    f = w - max(first, integral, whole - w)

    total = 0
    for numerator, (pow_m, pow_e) in head:
        total += _fixed(numerator, f - pow_e, 1, pow_m)
    c_pow = _mul(c, inv_pow, w)
    lead = _fixed(_mul(b, inv_pow, w), f, 1, p - 1)
    if stop is None:
        threshold = (total + lead) // 10 ** (mp.dps + 2)
    elif mp.mag(stop) + f < 2 * w:
        threshold = _fixed(mpf(stop).man_exp, f)
    else:
        threshold = 1 << 2 * w
    parts = [
        total,
        lead,
        _fixed(c_pow, f, 1, p),
        _fixed(inv_pow, f, 1, 2),
        _fixed(_mul(c_pow, inv_b, w), f, 1, 2),
    ]
    total = sum(parts)
    magnitude = sum(abs(t) for t in parts)
    floors = head_terms + 4
    # f^(q)(b) = -(p)_q b^(-p-q) - c (p+1)_q b^(-p-1-q) at odd q, and the
    # correction -B_2j/(2j)! f^(2j-1)(b) enters with a plus sign.
    d1 = _mul(_mul(inv_pow, inv_b, w), (p, 0), w)
    d2 = _mul(_mul(c_pow, inv_b2, w), (p + 1, 0), w)
    prev = err = math.inf
    for j, weight in enumerate(EM_WEIGHTS):
        num, den = weight.numerator, weight.denominator
        term = _fixed(d1, f, num, den) + _fixed(d2, f, num, den)
        total += term
        magnitude += abs(term)
        floors += 2
        err = max(abs(term), prev)
        if err < threshold:
            break
        prev = abs(term)
        r = p + 2 * j + 1
        d1 = _mul(_mul(d1, inv_b2, w), (r * (r + 1), 0), w)
        d2 = _mul(_mul(d2, inv_b2, w), ((r + 1) * (r + 2), 0), w)
    rounding = floors + ((p + 32) * (magnitude + floors) >> (w - 7)) + 1
    return (
        mpf((total, -f)),
        mp.ldexp(mpf(err + rounding), -f),
        head_terms,
    )


def hurwitz_zeta(s: int, a) -> EvalResult:
    """zeta(s, a) = sum_{k>=0} (k+a)^(-s) for integer s >= 2, a > 0.

    :func:`power_sum` at (a, s), its tail corrections stopping once two
    consecutive ones fall below max(1e-18, 10^-(dps+2)), an absolute stop.
    The reported error is the kernel's plus value * H * rounding_unit(),
    H being its head terms: the rounding of a head summed in mpf.
    """
    if s < 2 or int(s) != s:
        raise DomainError("hurwitz_zeta requires an integer s >= 2")
    a = mpf(a)
    if a <= 0:
        raise DomainError("hurwitz_zeta requires a > 0")
    stop = max(mpf(ABS_TOL) * mpf("1e-6"), stop_scale())
    value, err, head_terms = power_sum(a, int(s), stop=stop)
    rounding = value * head_terms * rounding_unit()
    return EvalResult(value=value, error=float(err + rounding), method="euler-maclaurin")


def asymptotic_sum(lead, coeffs, y, e: int, small=0):
    """lead + sum_{k>=1} c_k y^-(e+2k-2), a Bernoulli asymptotic series, in
    fixed point.

    ``coeffs`` holds the c_k as exact Fractions: a fixed table such as
    ``STIRLING_COEFFS``, or one built per call.  ``lead`` and ``y`` > 0 are
    mpf numbers and e >= 1 an integer.  The one stop rule: the sum ends
    before the first term below ``small``, or at the last entry of
    ``coeffs``, which is read and never added.

    y^-e is y floored to w = mp.prec + 20 + bitlength(e+96) + 6 bits, raised
    to the e-th power by binary powering truncated to w bits (short by under
    e 2^(4-w), see :func:`power_sum`), and inverted by one floored division.
    Each later power is the one before times the floored y^-2, truncated to
    w bits, so the k-th is within (e + 2k + 32) 2^(6-w) of y^-(e+2k-2).  A
    term is one floored product of its power and c_k on the grid 2^-F, F
    chosen so that the first term spans w bits: no integer grows past about
    2w bits plus the table's and, where the terms grow, the bits they gain.

    Returns (value, rounding, omitted, count): lead plus the sum S, S
    rounded to mp.prec and then added (two roundings, which the callers
    count); the kernel's own rounding, one unit of 2^-F per term computed
    and (e + 2K + 32) 2^(6-w) of their magnitudes, K being their number;
    the magnitude of the term that ended the sum; the terms added.
    """
    w = mp.prec + _GUARD_BITS + (e + 96).bit_length() + 6
    _, ym, ye, _ = y._mpf_
    m, ex = _floor_bits(ym, ye, 0, w)
    big_m, big_e = _floor_pow(m, ex, e, w)
    power = ((1 << 2 * w) // big_m, -2 * w - big_e)  # y^-e
    inv_y2 = ((1 << 3 * w) // (m * m), -3 * w - 2 * ex)
    first = coeffs[0]
    f = w - (power[0].bit_length() + power[1]
             + abs(first.numerator).bit_length() - first.denominator.bit_length())
    threshold = 0
    if small:
        sm, se = small.man_exp
        # A stop past 2^2w units lies above every term and counts as 2^2w.
        threshold = _fixed((sm, se), f) if sm.bit_length() + se + f < 2 * w else 1 << 2 * w

    total = magnitude = 0
    for count, c in enumerate(coeffs):
        term = _fixed(power, f, c.numerator, c.denominator)
        magnitude += abs(term)
        if abs(term) < threshold or count == len(coeffs) - 1:
            break
        total += term
        power = _mul(power, inv_y2, w)
    floors = count + 1
    rounding = floors + ((e + 2 * floors + 32) * (magnitude + floors) >> (w - 7)) + 1
    return (lead + mpf((total, -f)), mp.ldexp(mpf(rounding), -f),
            mp.ldexp(mpf(abs(term)), -f), count)


def polygamma(n: int, x) -> EvalResult:
    """psi^(n)(x) for n >= 0, x > 0.

    For n >= 1, psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x) is :func:`power_sum`
    at (x, n+1) under its default relative stop, and its error is counted
    as psi2_series counts it: n! times the kernel's, plus |value| * H *
    rounding_unit(), H being its head terms.

    Digamma recurrence-shifts x above ``SHIFT_THRESHOLD`` and sums
    psi(y) ~ log y - 1/(2y) - sum_k B_2k/(2k y^2k) with
    :func:`asymptotic_sum`, stopping below 10^-(dps+2) of the lead.  The
    error is the kernel's plus the rounding of the sum, (|shift head| +
    |expansion|) (shift + terms summed + 2) unit: the two can cancel (psi
    near its zero), so their magnitudes count.
    """
    if n < 0:
        raise DomainError("polygamma order must be non-negative")
    x = mpf(x)
    if x <= 0:
        raise DomainError("polygamma requires x > 0")

    if n:
        fact = mp.factorial(n)
        s, err, head_terms = power_sum(x, n + 1)
        value = (-1) ** (n + 1) * fact * s
        rounding = abs(value) * head_terms * rounding_unit()
        return EvalResult(
            value=value, error=float(fact * err + rounding), method="euler-maclaurin"
        )

    shift = recurrence_shift(x)
    y = x + shift
    head = mpf(0)
    for i in range(shift):
        head -= 1 / (x + i)
    lead = 1 / (2 * y) - mp.log(y)
    total, counted, omitted, count = asymptotic_sum(
        lead, DIGAMMA_COEFFS, y, 2, stop_scale() * abs(lead)
    )
    rounding = (abs(head) + abs(total)) * (shift + count + 2) * rounding_unit()
    return EvalResult(
        value=head - total,
        error=float(omitted + counted + rounding),
        method="shift-asymptotic",
    )


def log_gamma(x) -> mpf:
    """log Gamma(x) for x > 0 via shifted Stirling series, as a bare mpf.

    With m = recurrence_shift(x), y = x + m >= SHIFT_THRESHOLD and
    P = prod_{i<m} (x+i) (:func:`shift_products`),

        log Gamma(x) = (y - 1/2) log y - y + log(2 pi)/2
                       + sum_k B_2k / (2k(2k-1) y^(2k-1)) - log P,

    the series summed by :func:`asymptotic_sum` until a term falls below
    10^-(dps+2) of the lead.  It envelops log Gamma (DLMF 5.11(ii)), so the
    remainder is below the first omitted term: below that stop, or 6e-34 at
    the table's end.  The absolute error is under (m + 6) rounding_unit()
    times |log Gamma(x)| + sum_{i<m} |log(x+i)|: P's 2m - 1 roundings move log P
    by under 2m units, at most 0.12 m units of that sum, which exceeds
    log Gamma(12) > 17; each log, operation and addition rounds once, the
    kernel's floors stay far below one unit, and the remainder below one
    unit of the lead, log Gamma(y) > 17.
    """
    x = mpf(x)
    if x <= 0:
        raise DomainError("log_gamma requires x > 0")
    shift = recurrence_shift(x)
    y = x + shift
    lead = (y - mpf(1) / 2) * mp.log(y) - y + CONSTANTS.log_two_pi / 2
    total = asymptotic_sum(lead, STIRLING_COEFFS, y, 1, stop_scale() * abs(lead))[0]
    if shift:
        total -= mp.log(shift_products(x, shift)[0])
    return total
