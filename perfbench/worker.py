"""One pass of one workload, in a fresh interpreter.

    python3 worker.py SRC SPEC OUT T0

SRC is the package source directory, SPEC a JSON file naming the calls to
make, OUT the JSON file this writes, and T0 the parent's ``time.monotonic()``
just before it started this process.  CLOCK_MONOTONIC is system-wide on
Linux, so ``setup_s`` covers interpreter start-up plus the imports a CLI user
pays for.  The calls run one after another (closed loop, one client, no
threads); outputs are written out for the parent to check after the pass.
"""

import json
import os
import resource
import sys
import time


def _encode(value):
    """An mpf as an exact [signed mantissa, exponent] pair (str if not finite)."""
    sign, man, exp, _ = value._mpf_
    if not man and exp:  # inf / nan
        return str(value)
    return [-man if sign else man, exp]


def _output(result):
    value = getattr(result, "value", result)
    return {"value": _encode(value), "error": getattr(result, "error", None)}


def _point_call(polydgamma, mpf, kind, method, order, x):
    fn = getattr(polydgamma, kind)  # looked up per call, so tracing sees it
    x = mpf(x)
    if kind == "psi2_eval":
        return fn(polydgamma.PolyDoubleArg(order, x), method=method)
    if order is None:
        return fn(x)
    return fn(order, x)


def main(argv):
    src, spec_path, out_path, t0 = argv[1], argv[2], argv[3], float(argv[4])
    sys.path.insert(0, src)
    import polydgamma
    import polydgamma.cli

    setup_s = time.monotonic() - t0
    package_dir = os.path.realpath(os.path.join(src, "polydgamma"))
    if os.path.dirname(os.path.realpath(polydgamma.__file__)) != package_dir:
        print(f"polydgamma imported from {polydgamma.__file__}, not {src}", file=sys.stderr)
        return 3

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    from mpmath import mpf

    latencies, outputs = [], []
    clock = time.perf_counter
    first = clock()
    if spec["kind"] == "cli":
        for args in spec["calls"]:
            start = clock()
            try:
                out = {"exit_code": polydgamma.cli.main(args)}
            except Exception as exc:  # a failed call is counted, not fatal
                out = {"raised": repr(exc)}
            latencies.append(clock() - start)
            outputs.append(out)
    else:
        for kind, method, order, x in spec["calls"]:
            start = clock()
            try:
                result = _point_call(polydgamma, mpf, kind, method, order, x)
            except Exception as exc:  # a failed call is counted, not fatal
                result = {"raised": repr(exc)}
            latencies.append(clock() - start)
            outputs.append(result)
        outputs = [o if isinstance(o, dict) else _output(o) for o in outputs]
    wall_s = clock() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import mpmath
    import numpy

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "latencies": latencies,
        "outputs": outputs,
        "layers": tracer.report() if tracer else None,
        "host": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "mp_dps": mpmath.mp.dps,
            "polydgamma": polydgamma.__version__,
        },
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
