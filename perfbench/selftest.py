#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks and tracer.

    python3 perfbench/selftest.py

Run from a checkout root; takes about ten seconds.  Shows that each check
accepts the program's real output and catches a flipped verdict, a perturbed
CSV cell and a perturbed point value; that point generation is seeded and
distinct; that the tracer counts psi2_cached calls made through the verify
namespace; and that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import points  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def test_suite(tmp: Path):
    from polydgamma.cli import main as polydg

    seed = 1
    check_path, audit_path = tmp / "check.json", tmp / "audit.json"
    check_code = polydg(["check", "--suite", "all", "--format", "json",
                         "--seed", str(seed), "--out", str(check_path)])
    audit_code = polydg(["audit", "--format", "json", "--out", str(audit_path)])
    stored = run.Suite(seed).reference

    def missed():
        summary = reference.summarize_suite(check_path, check_code, audit_path, audit_code, seed)
        return reference.check_suite(summary, stored)

    expect(missed() == {"check": False, "audit": False}, "suite output matches its reference")

    reports = json.loads(check_path.read_text())
    reports[3]["passed"] = not reports[3]["passed"]
    check_path.write_text(json.dumps(reports))
    expect(missed()["check"], "a flipped check verdict is caught")

    reports[3]["passed"] = not reports[3]["passed"]
    reports[7]["witnesses"].pop()
    check_path.write_text(json.dumps(reports))
    expect(missed()["check"], "a lost witness is caught")

    entries = json.loads(audit_path.read_text())
    entries[0]["status"] = "discrepancy"
    audit_path.write_text(json.dumps(entries))
    expect(missed()["audit"], "a changed audit status is caught")

    summary = reference.summarize_suite(check_path, check_code, audit_path, audit_code, seed + 1)
    expect(summary["check"]["reports"] is None, "a report run with another seed is caught")


def test_figures(tmp: Path):
    from polydgamma.cli import main as polydg

    out = tmp / "figure3.csv"
    expect(polydg(["figure", "--id", "3", "--out", str(out)]) == 0, "figure 3 runs")
    ref = reference.figure_reference(3)
    expect(reference.figure_mismatches(out, ref) == 0, "figure 3 matches its reference")

    lines = out.read_text().splitlines()
    cells = lines[50].split(",")
    cells[1] = format(float(cells[1]) * (1 + 1e-6), ".17g")
    lines[50] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    expect(reference.figure_mismatches(out, ref) == 1, "one perturbed CSV cell is caught")

    out.write_text("\n".join(lines[:-1]) + "\n")
    expect(reference.figure_mismatches(out, ref) > 1, "a missing CSV row is caught")
    expect(reference.figure_mismatches(tmp / "absent.csv", ref) > 1, "a missing CSV is caught")


def test_points():
    import polydgamma
    from mpmath import mpf

    calls = points.generate(0)
    expect(calls == points.generate(0), "the same seed gives the same calls")
    expect(calls != points.generate(1), "another seed gives other calls")
    expect(len({tuple(c) for c in calls}) == len(calls), "calls are distinct")

    import worker

    kinds = {}
    for call in calls:
        kinds.setdefault((call[0], call[1]), call)
    for call in kinds.values():
        ref = points.reference(call)
        result = worker._point_call(polydgamma, mpf, *call)
        output = worker._output(result)
        expect(not points.check(ref, output)[0], f"{call[0]} {call[1]} matches its reference")
        value = getattr(result, "value", result)
        perturbed = worker._output(value * (1 + mpf("1e-6")) + mpf("1e-6"))
        expect(points.check(ref, perturbed)[0], f"a perturbed {call[0]} value is caught")
    expect(points.check(mpf(1), {"raised": "ConvergenceError()"})[0], "a raised call is caught")
    ref = mpf(2)
    inside = {"value": worker._output(mpf(2) + mpf("1e-20"))["value"], "error": 1e-21}
    expect(points.check(ref, inside) == (False, False, True),
           "an error bound smaller than the error is counted")


def test_tracer():
    t = tracer.Tracer()
    t.install()
    import polydgamma.verify as verify

    verify.psi2_cached(7, 3.2512345)  # a point no earlier test evaluated
    verify.psi2_cached(7, 3.2512345)
    report = t.report()
    expect(report["polydg.psi2_cached.calls"] == 2, "psi2_cached calls through verify are traced")
    expect(report["polydg.psi2_cached.hit_ratio"] == 0.5,
           "the psi2_cached hit ratio is 1 - misses/calls")
    expect(report["polydg.psi2_series.calls"] == 1, "the route under psi2_eval is traced")


def test_config():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(tracer.METRICS),
        "BENCHMARK.json per_layer matches tracer.METRICS",
    )
    expect(sorted(w["name"] for w in config["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_"))
    try:
        test_config()
        test_points()
        test_figures(tmp)
        test_suite(tmp)
        test_tracer()
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
