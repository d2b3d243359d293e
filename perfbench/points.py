"""The ``points`` workload: seeded, stratified, distinct library calls.

Each call kind draws its x over equal log-strata of its range (one draw per
stratum, then shuffled), so the total work of a pass barely depends on the
seed while the expensive top of every range stays in the mix.  References
are computed in this process at 60 digits with mpmath's own functions, never
through polydgamma, and only outside the timed region.
"""

from __future__ import annotations

import math
import random

from mpmath import mp, mpf

REFERENCE_DPS = 60

# A value is outside tolerance when |value - ref| exceeds both RTOL * |ref|
# and ATOL.  ATOL is the package's own target (Precision.abs_tol): its series
# stop on absolute-size terms, so tiny values such as psi2^(32)(30) ~ 1e-11
# are only promised to 1e-12 absolute, not to RTOL relative.  A call fails
# when it raises, returns a non-finite value, or lands outside tolerance and
# outside its own returned error; outside tolerance but inside its error
# (polygamma(40, 12.5) is off by 2e-3 and says 4e-3) is counted apart as
# imprecise, and a returned error smaller than the true one as a violation.
RTOL = 1e-9
ATOL = 1e-12

ORDERS = range(2, 41)

# (kind, method, calls per pass, x range).  About 70% auto-dispatched psi2^(n)
# as the issue sizes it; log G runs to x = 1e3 so its O(x) cost sets the tail.
# The integral route covers the parameter range its in-package callers use
# (the identity audit probes n <= 5, x in [0.5, 10]): with its absolute
# tolerance it raises ConvergenceError once values reach ~1e30 (n = 40,
# x = 1e-3), so wider draws would make the workload fail by construction.
MIX = (
    ("psi2_eval", "auto", 840, (1e-3, 1e4)),
    ("log_barnes_g", None, 144, (1e-3, 1e3)),
    ("psi2_didouble", None, 60, (1e-3, 1e4)),
    ("polygamma", None, 36, (1e-3, 1e4)),
    ("hurwitz_zeta", None, 36, (1e-3, 1e4)),
    ("log_gamma", None, 36, (1e-3, 1e4)),
    ("psi2_eval", "series", 12, (1e-3, 1e4)),
    ("psi2_eval", "polygamma", 12, (1e-3, 1e4)),
    ("psi2_eval", "asymptotic", 12, (1e-3, 1e4)),
    ("psi2_eval", "integral", 12, (0.1, 100.0)),
)
INTEGRAL_ORDERS = range(2, 7)


def _log_strata(rng, count, lo, hi):
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count) for i in range(count)]


def _balanced(rng, count, values):
    values = list(values)
    drawn = [values[i % len(values)] for i in range(count)]
    rng.shuffle(drawn)
    return drawn


def generate(seed: int) -> list:
    """The calls of one pass: ``[kind, method, order, x]`` lists in call order.

    ``order`` is n for psi2^(n) and polygamma, s for hurwitz_zeta, and None
    for one-argument functions.  No (kind, method, order, x) repeats.
    """
    rng = random.Random(seed)
    calls = []
    for kind, method, count, (lo, hi) in MIX:
        xs = _log_strata(rng, count, lo, hi)
        if kind == "psi2_eval":
            orders = _balanced(rng, count, INTEGRAL_ORDERS if method == "integral" else ORDERS)
        elif kind == "polygamma":
            orders = _balanced(rng, count, range(0, 41))
        elif kind == "hurwitz_zeta":
            orders = _balanced(rng, count, range(2, 42))
        else:
            orders = [None] * count
        calls.extend([kind, method, o, x] for o, x in zip(orders, xs))
    rng.shuffle(calls)
    if len({tuple(c) for c in calls}) != len(calls):
        raise ValueError("points generation produced a repeated call")
    return calls


def _log_barnes_g(x):
    return mp.log(mp.barnesg(x))


def reference(call):
    """The reference value of one call, at REFERENCE_DPS digits."""
    kind, _method, order, x = call
    with mp.workdps(REFERENCE_DPS):
        x = mpf(x)
        if kind == "psi2_eval":
            n = order
            ref = (-1) ** (n + 1) * mp.factorial(n) * (mp.zeta(n, x) + (1 - x) * mp.zeta(n + 1, x))
            return +ref
        if kind == "psi2_didouble":
            return 1 + mp.euler - mp.diff(_log_barnes_g, x)
        if kind == "log_barnes_g":
            return _log_barnes_g(x)
        if kind == "polygamma":
            return mp.psi(order, x)
        if kind == "hurwitz_zeta":
            return mp.zeta(order, x)
        if kind == "log_gamma":
            return mp.loggamma(x)
    raise ValueError(f"unknown call kind {kind!r}")


def decode(encoded):
    """Inverse of the worker's exact (mantissa, exponent) encoding."""
    if isinstance(encoded, str):
        return mpf(encoded)
    return mpf(tuple(encoded))


def check(ref, output) -> tuple:
    """(failed, imprecise, bound_violated) for one call's output record.

    ``output`` is ``{"value": ..., "error": float | None}`` or
    ``{"raised": "..."}``; bound_violated is None when the call returned no
    finite value or no error estimate (log_gamma returns a bare mpf).
    """
    if "raised" in output:
        return True, False, None
    with mp.workdps(REFERENCE_DPS):
        value = decode(output["value"])
        if not mp.isfinite(value):
            return True, False, None
        deviation = abs(value - ref)
        outside = bool(deviation > max(RTOL * abs(ref), ATOL))
        error = output.get("error")
        if error is None:
            return outside, False, None
        violated = bool(deviation > error)
        return outside and violated, outside and not violated, violated
