"""Classical special-function layer.

Bernoulli numbers (exact rationals, rounded once to mpf), log-gamma,
digamma/polygamma and the Hurwitz zeta function, each evaluated with a
controlled absolute error.
All arithmetic runs through mpmath at a fixed working precision; every
non-trivial evaluation returns an :class:`EvalResult` carrying an explicit
error estimate, so downstream code never has to guess how many digits are
trustworthy.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

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


def rounding_unit() -> mpf:
    """Relative rounding of one operation, as claimed errors count it.

    10^-mp.dps, but never below 10^-WORKING_DPS: the Bernoulli table, the
    Euler-Maclaurin weights and the constants are built once at import, so
    raising mp.dps later does not make them any more accurate.  Stop rules
    still use 10^-mp.dps: more terms never hurt.
    """
    return mpf(10) ** (-min(mp.dps, WORKING_DPS))


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
    # Defining recurrence: sum_{i=0}^{q} C(q+1, i) B_i = 0 for q >= 1.
    values = [Fraction(1)]
    for q in range(1, capacity + 1):
        acc = Fraction(0)
        for i in range(q):
            acc += math.comb(q + 1, i) * values[i]
        values.append(-acc / (q + 1))
    return tuple(values)


# Bernoulli numbers B_0..B_64 as mpf at working precision, converted once;
# the asymptotic series read B_2k for k up to len(BERNOULLI) // 2.
BERNOULLI = tuple(
    mpf(b.numerator) / mpf(b.denominator) for b in _bernoulli_fractions(64)
)

# Euler-Maclaurin correction weights B_2j / (2j)!, j = 1..14: the most
# corrections the engine applies before reporting what it has.
_EM_WEIGHTS = tuple(BERNOULLI[2 * j] / mp.factorial(2 * j) for j in range(1, 15))


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


def euler_maclaurin_tail(terms, threshold):
    """Sum_{k>=0} sum_i c_i (b_i + k)^(-p_i) by Euler-Maclaurin at k = 0.

    ``terms`` lists triples (c_i, b_i, p_i) with b_i > 0 and integer
    p_i >= 2.  The closed-form integral and the half term are followed by
    at most 14 corrections B_2j/(2j)! f^(2j-1)(0), which stop once two
    consecutive ones fall below ``threshold``: the terms can cancel exactly
    in one correction at isolated arguments.  Returns (value, error), the
    error being the larger of the last two corrections.
    """
    total = mpf(0)
    derivs = []  # per term: [c (p)_q b^(-p-q), p + q, b^-2] at odd q = 1, 3, ...
    for c, b, p in terms:
        b = mpf(b)
        power = b ** (-p)
        total += c * b ** (1 - p) / (p - 1)
        total += c * power / 2
        derivs.append([c * p * power / b, p + 1, 1 / (b * b)])
    prev = err = mpf("inf")
    for weight in _EM_WEIGHTS:
        # f^(q)(0) = -c (p)_q b^(-p-q) for odd q, and the correction is
        # subtracted, so it enters with a plus sign.
        term = weight * sum(d[0] for d in derivs)
        total += term
        err = max(abs(term), prev)
        if err < threshold:
            break
        prev = abs(term)
        for d in derivs:
            d[0] *= d[1] * (d[1] + 1) * d[2]
            d[1] += 2
    return total, err


def hurwitz_zeta(s: int, a) -> EvalResult:
    """zeta(s, a) = sum_{k>=0} (k+a)^(-s) for integer s >= 2, a > 0.

    Direct summation until k + a clears the shift threshold, then the
    Euler-Maclaurin tail of :func:`euler_maclaurin_tail`.  The reported
    error is the larger of its last two corrections plus the rounding of
    the head, head * n_direct * rounding_unit(): its terms are positive, so
    no cancellation hides their size.
    """
    if s < 2 or int(s) != s:
        raise DomainError("hurwitz_zeta requires an integer s >= 2")
    a = mpf(a)
    if a <= 0:
        raise DomainError("hurwitz_zeta requires a > 0")
    s = int(s)

    n_direct = max(8, int(mp.ceil(SHIFT_THRESHOLD + 10 - a)))
    head = mpf(0)
    for k in range(n_direct):
        head += (a + k) ** (-s)

    threshold = max(mpf(ABS_TOL) * mpf("1e-6"), mpf(10) ** (-mp.dps - 2))
    tail, err = euler_maclaurin_tail([(1, a + n_direct, s)], threshold)
    rounding = head * n_direct * rounding_unit()
    return EvalResult(
        value=head + tail, error=float(err + rounding), method="euler-maclaurin"
    )


def _smallest_term_sum(total, term, last=len(BERNOULLI) // 2, small=0):
    """Add term(1), ..., term(last) of a Bernoulli asymptotic series to ``total``.

    Stops before the first term that grows in magnitude (the series diverges
    from there) or falls below ``small`` (it no longer counts), and returns
    (total, error, count): the error is that first omitted term, or the last
    added one if the Bernoulli table runs out, and count the terms added.
    ``last`` is the highest k whose term the table can supply.
    """
    prev = mpf("inf")
    for k in range(1, last + 1):
        t = term(k)
        if abs(t) > prev or abs(t) < small:
            return total, abs(t), k - 1
        total += t
        prev = abs(t)
    return total, prev, last


def _polygamma_asymptotic(n: int, y):
    """Large-argument expansion of psi^(n)(y); (value, first omitted term,
    terms added).

    psi^(n)(y) ~ (-1)^(n-1) [lead + sum_k B_2k (2k+n-1)!/(2k)! y^-(2k+n)],
    the lead being (n-1)!/y^n + n!/(2 y^(n+1)), or 1/(2y) - log y at n = 0,
    where (2k-1)!/(2k)! = 1/(2k).  Terms below 10^-(dps+2) of the lead no
    longer count; the first omitted term still bounds the remainder.  Terms
    are read in order, so each power of y is the one before times y^-2.
    """
    inv_y2 = 1 / (y * y)
    first = inv_y2 / y**n if n else inv_y2
    powers = itertools.accumulate(
        itertools.chain([first], itertools.repeat(inv_y2)), operator.mul
    )
    if n == 0:
        lead = 1 / (2 * y) - mp.log(y)
        term = lambda k: BERNOULLI[2 * k] * next(powers) / (2 * k)
    else:
        lead = mp.factorial(n - 1) / y**n + mp.factorial(n) / (2 * y ** (n + 1))
        term = lambda k: (
            BERNOULLI[2 * k] * math.perm(2 * k + n - 1, n - 1) * next(powers)
        )
    total, err, count = _smallest_term_sum(
        lead, term, small=mpf(10) ** (-mp.dps - 2) * abs(lead)
    )
    return (total if n % 2 else -total), err, count


def polygamma(n: int, x) -> EvalResult:
    """psi^(n)(x) for n >= 0, x > 0.

    Recurrence-shift the argument above ``SHIFT_THRESHOLD``, apply the
    Bernoulli asymptotic series truncated at its smallest term, shift back.
    The error is the first omitted term plus the rounding of the sum,
    (|shift head| + |expansion|) (shift + terms summed + 2) unit: the
    head and the expansion can cancel (psi near its zero), so their
    magnitudes count, not that of the value.
    """
    if n < 0:
        raise DomainError("polygamma order must be non-negative")
    x = mpf(x)
    if x <= 0:
        raise DomainError("polygamma requires x > 0")

    shift = max(0, int(mp.ceil(SHIFT_THRESHOLD - x)))
    y = x + shift
    head = mpf(0)
    if n == 0:
        for i in range(shift):
            head -= 1 / (x + i)
    else:
        coeff = (-1) ** n * mp.factorial(n)
        for i in range(shift):
            head -= coeff * (x + i) ** (-(n + 1))
    asym, err, count = _polygamma_asymptotic(n, y)
    rounding = (abs(head) + abs(asym)) * (shift + count + 2) * rounding_unit()
    return EvalResult(
        value=head + asym, error=float(err + rounding), method="shift-asymptotic"
    )


def log_gamma(x) -> mpf:
    """log Gamma(x) for x > 0 via shifted Stirling series.

    Absolute error well below 1e-12 across [0.5, 1e6] at working precision.
    """
    x = mpf(x)
    if x <= 0:
        raise DomainError("log_gamma requires x > 0")
    shift = max(0, int(mp.ceil(SHIFT_THRESHOLD - x)))
    y = x + shift
    head = mpf(0)
    for i in range(shift):
        head -= mp.log(x + i)
    total, _, _ = _smallest_term_sum(
        (y - mpf(1) / 2) * mp.log(y) - y + CONSTANTS.log_two_pi / 2,
        lambda k: BERNOULLI[2 * k] / (2 * k * (2 * k - 1) * y ** (2 * k - 1)),
    )
    return head + total
