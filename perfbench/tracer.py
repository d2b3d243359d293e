"""Per-layer tracing of polydgamma from outside the package.

Every public function of the five layers (``specfun``, ``quadrature``,
``polydg``, ``verify``, ``cli``) is wrapped, and the wrapper is bound under
every name in every polydgamma module namespace that held the same function
object.  Wrapping only the defining module would miss calls made through a
name another module imported: ``verify`` and ``cli`` call ``psi2_cached``
through their own bindings.  Each call records a span with its parent span;
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("specfun", "quadrature", "polydg", "verify", "cli")
ROUTES = ("series", "asymptotic", "polygamma", "integral")
REGIMES = ("small", "moderate", "large")  # x < 1, 1 <= x <= 12, x > 12
CHECKS = (
    "check_cm",
    "check_turan",
    "check_ratio_bounds",
    "check_F_cm",
    "check_lemma_I1",
    "check_subadditivity",
    "check_G_convexity",
    "check_hankel_cm",
    "check_cauchy_schwarz",
)

# (name, unit, better) of every per-layer metric, in print order.
METRICS = (
    [
        ("polydg.psi2_series.calls", "count", "lower"),
        ("polydg.psi2_series.self_s", "s", "lower"),
        ("polydg.psi2_cached.calls", "count", "lower"),
        ("polydg.psi2_cached.hit_ratio", "ratio", "higher"),
        ("polydg.psi2_eval.calls", "count", "lower"),
    ]
    + [(f"polydg.route.{r}.calls", "count", "lower") for r in ROUTES]
    + [(f"polydg.{r}.{g}.p50_ms", "ms", "lower") for r in ROUTES for g in REGIMES]
    + [
        ("polydg.psi2_asymptotic.self_s", "s", "lower"),
        ("polydg.psi2_didouble.self_s", "s", "lower"),
        ("polydg.log_barnes_g.calls", "count", "lower"),
        ("polydg.log_barnes_g.self_s", "s", "lower"),
        ("polydg.log_barnes_g.p99_ms", "ms", "lower"),
        ("polydg.self_s", "s", "lower"),
        ("specfun.polygamma.calls", "count", "lower"),
        ("specfun.polygamma.self_s", "s", "lower"),
        ("specfun.polygamma_cached.hit_ratio", "ratio", "higher"),
        ("specfun.hurwitz_zeta.calls", "count", "lower"),
        ("specfun.hurwitz_zeta.self_s", "s", "lower"),
        ("specfun.log_gamma.calls", "count", "lower"),
        ("specfun.log_gamma.self_s", "s", "lower"),
        ("specfun.self_s", "s", "lower"),
        ("quadrature.integrate_finite.calls", "count", "lower"),
        ("quadrature.integrate_finite.self_s", "s", "lower"),
        ("quadrature.evaluations", "count", "lower"),
        ("quadrature.evals_per_call", "count", "lower"),
        ("quadrature.self_s", "s", "lower"),
    ]
    + [(f"verify.{c}.self_s", "s", "lower") for c in CHECKS]
    + [
        ("verify.audit_identities.self_s", "s", "lower"),
        ("verify.points", "count", "higher"),
        ("verify.inconclusive", "count", "lower"),
        ("verify.counterexamples", "count", "lower"),
        ("verify.self_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _regime(x) -> str:
    return "small" if x < 1 else ("moderate" if x <= 12 else "large")


def _observe_eval(args, kwargs, result):
    return result.method, _regime(args[0].x)


def _observe_quadrature(args, kwargs, result):
    return result.evaluations


def _observe_check(args, kwargs, report):
    inconclusive = sum(1 for w in report.witnesses if w["status"] == "inconclusive")
    return len(report.witnesses) + len(report.counterexamples), inconclusive, len(
        report.counterexamples
    )


OBSERVERS = {
    "polydg.psi2_eval": _observe_eval,
    "quadrature.integrate_finite": _observe_quadrature,
    **{f"verify.{c}": _observe_check for c in CHECKS},
}


class Span:
    __slots__ = ("name", "parent", "duration", "child", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.duration = 0.0
        self.child = 0.0
        self.info = None


class Tracer:
    """Spans of every wrapped call, kept in memory until :meth:`report`."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name):
        stack, spans, observe = self._stack, self.spans, OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = clock() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                spans.append(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap each public layer function under every name bound to it."""
        import polydgamma

        modules = [importlib.import_module(f"polydgamma.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for module in [polydgamma, *modules]:
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def report(self) -> dict:
        """Every :data:`METRICS` entry except ``trace.overhead_s``."""
        calls, self_s, barnes_g = {}, {}, []
        layer_self = dict.fromkeys(LAYERS, 0.0)
        eval_children_of = {"polydg.psi2_cached": 0, "specfun.polygamma_cached": 0}
        routes = {}
        evaluations = 0
        points = inconclusive = counterexamples = 0
        for span in self.spans:
            name = span.name
            own = span.duration - span.child
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own
            parent = span.parent.name if span.parent is not None else None
            if name == "polydg.psi2_eval":
                if span.info is not None:  # None when the call raised
                    routes.setdefault(span.info, []).append(span.duration)
                if parent == "polydg.psi2_cached":
                    eval_children_of[parent] += 1
            elif name == "specfun.polygamma" and parent == "specfun.polygamma_cached":
                eval_children_of[parent] += 1
            elif name == "polydg.log_barnes_g":
                barnes_g.append(1e3 * span.duration)
            elif name == "quadrature.integrate_finite" and span.info is not None:
                evaluations += span.info
            elif span.info is not None and name.startswith("verify.check_"):
                points += span.info[0]
                inconclusive += span.info[1]
                counterexamples += span.info[2]

        def hit_ratio(cached):
            n = calls.get(cached, 0)
            return 1.0 - eval_children_of[cached] / n if n else 0.0

        # "<layer>.<function>.calls|self_s" and "<layer>.self_s" follow from
        # their names; the rest are set explicitly below.
        out = {}
        for name, _unit, _better in METRICS:
            parts = name.split(".")
            key = ".".join(parts[:2])
            if parts[-1] == "calls" and parts[1] != "route":
                out[name] = calls.get(key, 0)
            elif parts[-1] == "self_s" and len(parts) == 3:
                out[name] = self_s.get(key, 0.0)
            elif parts[-1] == "self_s":
                out[name] = layer_self[parts[0]]
        for route in ROUTES:
            out[f"polydg.route.{route}.calls"] = sum(
                len(d) for (method, _), d in routes.items() if method == route
            )
            for regime in REGIMES:
                durations_ms = [1e3 * d for d in routes.get((route, regime), [])]
                out[f"polydg.{route}.{regime}.p50_ms"] = quantile(durations_ms, 50)
        finite_calls = calls.get("quadrature.integrate_finite", 0)
        out.update(
            {
                "polydg.psi2_cached.hit_ratio": hit_ratio("polydg.psi2_cached"),
                "specfun.polygamma_cached.hit_ratio": hit_ratio("specfun.polygamma_cached"),
                "polydg.log_barnes_g.p99_ms": quantile(barnes_g, 99),
                "quadrature.evaluations": evaluations,
                "quadrature.evals_per_call": evaluations / finite_calls if finite_calls else 0.0,
                "verify.points": points,
                "verify.inconclusive": inconclusive,
                "verify.counterexamples": counterexamples,
                "trace.spans": len(self.spans),
            }
        )
        return out
