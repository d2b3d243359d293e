"""Command-line front end: point evaluation, theorem check suites, the
identity audit, figure-data CSV emission, and limit diagnostics.

Exit codes: 0 success / all checks passed, 1 a check produced a
counterexample, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np
from mpmath import mp, mpf

from . import verify
from .errors import ConvergenceError, DomainError
from .polydg import (
    METHODS,
    PolyDoubleArg,
    psi2_cached,
    psi2_didouble,
    psi2_eval,
    psi2_grid,
)
from .verify import Grid

CSV_DIGITS = 17


def _fmt(v) -> str:
    """Locale-independent float rendering at 17 significant digits."""
    return format(float(v), f".{CSV_DIGITS}g")


def _write_csv(path, header, rows):
    """Write header and rows, each cell as :func:`_fmt` renders it: one %
    format per row, whose "%.17g" prints a float as format(v, ".17g") does.
    Each cell is converted by float() first, so mpf cells are accepted."""
    line = ",".join([f"%.{CSV_DIGITS}g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(map(float, row)) for row in rows)


def _finite_float(text) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite(name, v) -> float:
    """v as a float; DomainError if it does not fit a finite double."""
    f = float(v)
    if not math.isfinite(f):
        raise DomainError(f"{name} {mp.nstr(mpf(v), 6)} does not fit a finite double")
    return f


def _json(payload) -> str:
    """JSON text of payload; DomainError if it holds an infinity or a NaN,
    which JSON cannot represent."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        raise DomainError("output holds a value that does not fit a finite double") from None


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def run_eval(args) -> int:
    if args.psi2:
        for dest in ("n", "method"):
            if getattr(args, dest) is not None:
                raise DomainError(f"eval --psi2 does not read --{dest}")
        result = psi2_didouble(mpf(args.x))
    else:
        if args.n is None:
            raise DomainError("eval requires --n (or --psi2)")
        result = psi2_eval(PolyDoubleArg(args.n, mpf(args.x)), method=args.method or "auto")
    value = _finite("value", result.value)
    error = _finite("error", result.error)
    if args.format == "json":
        _emit(
            _json({"value": value, "error": error, "method": result.method}),
            args.out,
        )
    else:
        _emit(
            f"value={_fmt(value)} error={error:.3e} method={result.method}",
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# Every check id: the verify function it runs, and the default of each of that
# function's parameters, keyed by the parameter's name, which is the argparse
# dest of its option; the verify functions take no defaults of their own.
# "grid" stands for the four --grid-* options, each of which replaces one field
# of the default grid; a callable default is computed from the values before it.
CHECKS = {
    "cm": (verify.check_cm, dict(n=3, depth=5, grid=Grid(0.05, 50.0, 60, "log"))),
    "turan": (verify.check_turan, dict(n=2, grid=Grid(0.05, 4.0, 60, "linear"))),
    "ratio-bounds": (
        verify.check_ratio_bounds, dict(n=4, grid=Grid(0.05, 1e4, 60, "log"))
    ),
    # omega defaults to the lower constant (n-2)/(n-1); the max keeps n < 2
    # from dividing by zero before check_F_cm rejects it.
    "F-cm": (
        verify.check_F_cm,
        dict(n=3, omega=lambda v: (v["n"] - 2) / max(v["n"] - 1, 1), depth=4,
             grid=Grid(0.05, 50.0, 30, "log")),
    ),
    "lemma-I1": (
        verify.check_lemma_I1, dict(n=3, grid=Grid(1.01, 1.99, 20, "linear"), tol=1e-10)
    ),
    "subadditivity": (
        verify.check_subadditivity, dict(n=2, r_order=1, m=2.0, samples=200, seed=0)
    ),
    "G-convexity": (
        verify.check_G_convexity, dict(n=3, r=1.0, grid=Grid(0.2, 10.0, 30, "log"))
    ),
    "hankel": (
        verify.check_hankel_cm,
        dict(n=2, j=1, m_order=1, depth=1, grid=Grid(0.2, 10.0, 30, "log")),
    ),
    "cauchy-schwarz": (
        verify.check_cauchy_schwarz, dict(n=3, grid=Grid(0.1, 20.0, 40, "log"))
    ),
}

# The default verification suite, one representative run of every check:
# each row is a check id and the options it gives over that check's defaults.
SUITE = (
    ("cm", dict(grid_count=40)),
    ("turan", dict(grid_count=40)),
    ("ratio-bounds", dict(grid_count=40)),
    ("F-cm", dict(omega=0.25, grid_count=20)),
    ("F-cm", dict(omega=0.75, grid_count=20)),
    ("lemma-I1", dict(grid_count=12, tol=1e-9)),
    ("lemma-I1", dict(n=4, grid_count=12, tol=1e-9)),
    ("subadditivity", dict(samples=80)),
    ("subadditivity", dict(r_order=0, samples=80)),
    ("G-convexity", dict(grid_count=20)),
    ("G-convexity", dict(r=-0.2, grid_count=20)),
    ("G-convexity", dict(r=-0.6, grid_count=20)),
    ("hankel", dict(m_order=2, grid_count=20)),
    ("hankel", dict(n=3, j=2, grid_count=20)),
    ("cauchy-schwarz", dict(grid_count=30)),
)


def _run_check(cid, given):
    """Run check cid with the options in given (dest -> value) over its
    defaults; given may hold options the check does not read."""
    call, defaults = CHECKS[cid]
    values = {}
    for key, default in defaults.items():
        if key == "grid":
            fields = {k[5:]: v for k, v in given.items() if k.startswith("grid_")}
            values[key] = replace(default, **fields)
        elif key in given:
            values[key] = given[key]
        else:
            values[key] = default(values) if callable(default) else default
    return call(**values)


def run_check(args) -> int:
    fixed = ("command", "func", "suite", "id", "format", "out")
    given = {k: v for k, v in vars(args).items() if v is not None and k not in fixed}
    if args.id:
        name, rows, reads = f"check {args.id}", [(args.id, {})], CHECKS[args.id][1]
    else:
        name, rows, reads = "check --suite all", SUITE, {"seed"}
    for dest in given:
        if ("grid" if dest.startswith("grid_") else dest) not in reads:
            raise DomainError(f"{name} does not read --{dest.replace('_', '-')}")
    reports = [_run_check(cid, {**row, **given}) for cid, row in rows]

    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        _emit(_json(payload if len(payload) > 1 else payload[0]), args.out)
    else:
        lines = []
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{tag}] {r.check_id} params={r.params} "
                f"witnesses={len(r.witnesses)} "
                f"counterexamples={len(r.counterexamples)}"
            )
            for c in r.counterexamples[:5]:
                lines.append(f"    counterexample: {c}")
            if r.summary:
                lines.append(f"    summary: {r.summary}")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def run_audit(args) -> int:
    entries = verify.audit_identities()
    if args.format == "json":
        _emit(_json([asdict(e) for e in entries]), args.out)
    else:
        lines = [f"identity audit ({verify.DISCLAIMER})"]
        for e in entries:
            lines.append(
                f"{e.status:12s} {e.identity_id:34s} "
                f"max_deviation={e.max_deviation:.3e}  {e.note}"
            )
        confirmed = sum(1 for e in entries if e.status == "confirmed")
        lines.append(
            f"{confirmed} confirmed, {len(entries) - confirmed} discrepancies "
            "(discrepancies are findings, not failures)"
        )
        _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def _linear_points(lo, hi, count, open_left=False):
    """count doubles lo + k step, k = 1..count (open_left) or 0..count-1,
    step being the double (hi - lo)/count or (hi - lo)/(count - 1).

    Each point is the exact sum rounded once to the nearest double: with
    lo = L/2^a and step = S/2^b over the common denominator D = 2^max(a, b),
    it is the correctly rounded int quotient (L' + k S')/D.  That is the
    double of the 30-digit sum mpf(lo) + k mpf(step), which is exact on the
    figure grids, where it needs at most 62 of its 103 bits.
    """
    step = (hi - lo) / (count if open_left else count - 1)
    (num_lo, den_lo), (num_step, den_step) = lo.as_integer_ratio(), step.as_integer_ratio()
    den = max(den_lo, den_step)
    num_lo, num_step = num_lo * (den // den_lo), num_step * (den // den_step)
    first = 1 if open_left else 0
    return [(num_lo + k * num_step) / den for k in range(first, first + count)]


@functools.cache
def _figure_xs():
    """The x-grid of figures 1, 2, 5 and 6: 400 doubles in (0.05, 4]."""
    return tuple(_linear_points(0.05, 4.0, 400, open_left=True))


@functools.cache
def _figure_grid(n: int, offset: int = 0):
    """psi2_grid(n, x + offset) on :func:`_figure_xs`, evaluated once per
    process: figures 1, 2, 5 and 6 read 9 distinct grids between them.  The
    arrays are read-only, so no caller can change what another reads."""
    xa = np.array(_figure_xs(), dtype=np.float64)
    grid = psi2_grid(n, xa + offset if offset else xa)
    for array in (grid.value, grid.error):
        array.flags.writeable = False
    return grid


def run_figure(args) -> int:
    """Write the data of one figure as CSV.

    Figures 1, 2, 3, 5 and 6 are float64 evaluations of whole grids by
    :func:`psi2_grid`.  Its a-priori bounds put every cell of figures 1, 2
    and 3 within 1.5e-14 relative of its value at the printed x, figure 5
    within 5e-14 and figure 6 (-F at omega = 3/4, whose two products cancel
    near x = 0.05) within 3e-10; against 30-digit values the cells differ
    by at most 2e-15, 2e-15, 7e-16, 4e-15 and 1.2e-12 relative.  Figure 4
    is one float64 Gauss-Legendre pass per column by :func:`lemma_I1_grid`,
    whose claimed errors stay below 6e-13 (below 2e-13 relative; the
    30-digit Gauss-Legendre values of :func:`lemma_I1_value` differ by at
    most 5e-15 relative); a cell claiming more than 1e-9 would be
    recomputed by lemma_I1_value.  The psi2_grid arrays of the linear
    x-grid are shared through :func:`_figure_grid`.
    The linear x-grids are the doubles of :func:`_linear_points`, which the
    CSV prints and the float64 tier reads as they are.
    """
    fid = args.id
    out = args.out or f"figure{fid}.csv"
    if fid == 1:
        xs = _figure_xs()
        header = ["x"] + [f"d{k}" for k in range(6)]
        columns = [_figure_grid(3 + k).value for k in range(6)]
    elif fid == 2:
        xs = _figure_xs()
        header = ["x", "lhs", "rhs"]
        columns = [
            _figure_grid(2, 1).value ** 2,
            _figure_grid(2).value * _figure_grid(2, 2).value,
        ]
    elif fid == 3:
        xs = Grid(1.0, 40000.0, 200, "log").points()
        header = ["x", "x_psi2_2"]
        xa = np.array(xs, dtype=np.float64)
        columns = [xa * psi2_grid(2, xa).value]
    elif fid == 4:
        xs = _linear_points(1.01, 1.99, 100)
        header = ["a", "I1_n3", "I1_n4"]
        xa = np.array(xs, dtype=np.float64)
        columns = []
        for n in (3, 4):
            value, error = verify.lemma_I1_grid(n, xa)
            # A cell whose claimed error exceeds 1e-9 is recomputed by
            # lemma_I1_value to that tolerance.
            columns.append([
                v if e <= 1e-9 else verify.lemma_I1_value(n, a, 1e-9).value
                for a, v, e in zip(xs, value, error)
            ])
    elif fid in (5, 6):
        omega, sign = (0.25, 1) if fid == 5 else (0.75, -1)
        xs = _figure_xs()
        header = ["x", "F" if fid == 5 else "negF"] + [f"d{k}" for k in range(1, 5)]
        # F^(k) for k <= 4 at n = 3 reads the orders n-1 .. n+5.
        columns = [
            sign * verify._f_derivative(3, omega, k, _figure_grid).value
            for k in range(5)
        ]
    else:
        raise DomainError("figure id must be in 1..6")
    rows = list(zip(xs, *columns))
    _write_csv(out, header, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def run_limit(args) -> int:
    """x^(n-1) psi2^(n)(x) at x = x_max against its limit (-1)^(n-1) (n-2)!."""
    n = args.n if args.n is not None else 2
    if n < 2:
        raise DomainError("limit requires n >= 2")
    x = mpf(args.x_max)
    value = x ** (n - 1) * psi2_cached(n, x).value
    limit = mpf(-1) ** (n - 1) * mp.factorial(n - 2)
    payload = {
        "n": n,
        "x_max": float(x),
        "scaled_value": _finite("scaled value", value),
        "limit": _finite("limit", limit),
        "deviation": _finite("deviation", abs(value - limit)),
    }
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        _emit(
            f"x^(n-1) psi2^({n})(x) at x={_fmt(x)}: {_fmt(value)} "
            f"(limit {_fmt(limit)}, deviation {payload['deviation']:.3e})",
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then shared:
    argparse keeps no state of one parse on the parser."""
    parser = argparse.ArgumentParser(
        prog="polydg",
        description="Poly-double gamma evaluation, theorem checks, identity audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate psi2^(n)(x) or psi2(x)")
    p_eval.add_argument("--n", type=int, default=None)
    p_eval.add_argument("--psi2", action="store_true",
                        help="evaluate the di-double gamma psi2(x)")
    p_eval.add_argument("--x", type=_finite_float, required=True)
    p_eval.add_argument(
        "--method",
        choices=METHODS,
        default=None,
        help="evaluation route (default auto, the canonical series); the others "
        "are explicit cross-checks that the identity audit also runs",
    )
    common(p_eval)
    p_eval.set_defaults(func=run_eval)

    p_check = sub.add_parser("check", help="run theorem checks")
    which = p_check.add_mutually_exclusive_group()
    which.add_argument("--suite", choices=("all",), help="the default without --id")
    which.add_argument("--id", choices=tuple(CHECKS), default=None)
    # Defaults live in CHECKS; an option the chosen check does not read exits 2.
    p_check.add_argument("--n", type=int, default=None)
    p_check.add_argument("--depth", type=int, default=None)
    p_check.add_argument("--omega", type=_finite_float, default=None)
    p_check.add_argument("--r", type=_finite_float, default=None,
                         help="exponent r for G-convexity")
    p_check.add_argument("--r-order", type=int, default=None,
                         help="order offset r for subadditivity")
    p_check.add_argument("--m", type=_finite_float, default=None,
                         help="domain bound m for subadditivity")
    p_check.add_argument("--j", type=int, default=None, help="Hankel stride")
    p_check.add_argument("--m-order", type=int, default=None,
                         help="Hankel matrix order parameter m")
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--grid-lo", type=_finite_float, default=None)
    p_check.add_argument("--grid-hi", type=_finite_float, default=None)
    p_check.add_argument("--grid-count", type=int, default=None)
    p_check.add_argument("--grid-spacing", choices=("linear", "log"), default=None)
    p_check.add_argument("--tol", type=_finite_float, default=None,
                         help="quadrature tolerance for lemma-I1")
    p_check.add_argument("--seed", type=int, default=None,
                         help="sample seed for subadditivity")
    common(p_check)
    p_check.set_defaults(func=run_check)

    p_audit = sub.add_parser("audit", help="audit printed identities")
    common(p_audit)
    p_audit.set_defaults(func=run_audit)

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("--id", type=int, required=True, choices=range(1, 7))
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=run_figure)

    p_lim = sub.add_parser("limit", help="scaled large-x limit diagnostic")
    p_lim.add_argument("--n", type=int, default=None)
    p_lim.add_argument("--x-max", type=_finite_float, default=1e4)
    common(p_lim)
    p_lim.set_defaults(func=run_limit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: see `polydg {args.command} --help`", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc} (best={exc.best}, err={exc.error_estimate})",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
