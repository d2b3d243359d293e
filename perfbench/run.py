#!/usr/bin/env python3
"""The polydgamma benchmark.

    python3 perfbench/run.py --workload suite|figures|points --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of a workload runs in a
fresh interpreter (cold lru caches, as for a CLI user), one call after
another; passes repeat until S seconds have gone.  Every output is checked
against a reference.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes, so it
also reports the tracing overhead.  See DESIGN.md beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import points
import reference
import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_PASSES = 3
SETUP_PROBES = 2
# A run must end within 180 s: no pass may start that would end after
# RUN_LIMIT_S, and a hung worker is killed after PASS_TIMEOUT_S.
RUN_LIMIT_S = 100
PASS_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Suite:
    """``check --suite all`` then ``audit`` through polydgamma.cli.main."""

    def __init__(self, seed):
        self.seed = seed % reference.SUITE_SEEDS
        stored = json.loads(reference.SUITE_REFERENCE.read_text(encoding="utf-8"))
        self.reference = stored[str(self.seed)]

    def spec(self, pass_dir):
        return {
            "kind": "cli",
            "calls": [
                ["check", "--suite", "all", "--format", "json", "--seed", str(self.seed),
                 "--out", str(pass_dir / "check.json")],
                ["audit", "--format", "json", "--out", str(pass_dir / "audit.json")],
            ],
        }

    def check(self, pass_dir, outputs):
        codes = [o.get("exit_code") for o in outputs]
        summary = reference.summarize_suite(
            pass_dir / "check.json", codes[0], pass_dir / "audit.json", codes[1], self.seed
        )
        missed = reference.check_suite(summary, self.reference)
        return [missed["check"], missed["audit"]], 0, 0, 0


class Figures:
    """``figure --id 1..6`` through polydgamma.cli.main; the seed has no effect."""

    def __init__(self, seed):
        self.seed = seed

    def spec(self, pass_dir):
        return {
            "kind": "cli",
            "calls": [
                ["figure", "--id", str(fid), "--out", str(pass_dir / f"figure{fid}.csv")]
                for fid in reference.FIGURE_IDS
            ],
        }

    def check(self, pass_dir, outputs):
        failed = [
            out.get("exit_code") != 0
            or reference.figure_mismatches(
                pass_dir / f"figure{fid}.csv", reference.figure_reference(fid)
            )
            > 0
            for fid, out in zip(reference.FIGURE_IDS, outputs)
        ]
        return failed, 0, 0, 0


class Points:
    """Seeded distinct library calls, checked against 60-digit mpmath values."""

    def __init__(self, seed):
        self.seed = seed
        self.calls = points.generate(seed)
        self.references = [points.reference(c) for c in self.calls]

    def spec(self, pass_dir):
        return {"kind": "points", "calls": self.calls}

    def check(self, pass_dir, outputs):
        failed, imprecise, violated, checked = [], 0, 0, 0
        for ref, out in zip(self.references, outputs):
            miss, loose, violation = points.check(ref, out)
            failed.append(miss)
            imprecise += loose
            if violation is not None:
                checked += 1
                violated += violation
        return failed, imprecise, violated, checked


WORKLOADS = {"suite": Suite, "figures": Figures, "points": Points}


def spawn(root, pass_dir, spec):
    """Run one worker on ``spec`` in a fresh interpreter; returns its record."""
    pass_dir.mkdir()
    spec_path, out_path = pass_dir / "spec.json", pass_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(WORKER), str(root / "src"), str(spec_path), str(out_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(t0)], cwd=root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a worker took over {exc.timeout} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"worker exited with {proc.returncode}: " + " | ".join(tail))
    return json.loads(out_path.read_text(encoding="utf-8"))


def run_pass(root, pass_dir, workload, traced):
    """One checked pass of ``workload``; its worker record plus check counts."""
    record = spawn(root, pass_dir, dict(workload.spec(pass_dir), trace=traced))
    outputs = record.pop("outputs")
    failed, imprecise, violated, checked = workload.check(pass_dir, outputs)
    shutil.rmtree(pass_dir)
    record.update(
        traced=traced,
        attempted=len(outputs),
        failed=sum(map(bool, failed)),
        imprecise=imprecise,
        violated=violated,
        checked=checked,
    )
    return record


def setup_probe(root, pass_dir) -> float:
    """setup_s of a worker that imports the package and makes no call."""
    record = spawn(root, pass_dir, {"kind": "cli", "calls": [], "trace": False})
    shutil.rmtree(pass_dir)
    return record["setup_s"]


def calibrate() -> float:
    """Seconds for a fixed pure-mpmath kernel, independent of polydgamma."""
    from mpmath import mp, mpf

    with mp.workdps(30):
        mp.log(2)  # fills mpmath's constant caches outside the timed part
        start = time.perf_counter()
        total = mpf(0)
        for k in range(1, 20001):
            total += mp.log(k)
        return time.perf_counter() - start


def git_commit(root: Path):
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(passes, setups):
    untraced = [p for p in passes if not p["traced"]]
    latencies = [t for p in untraced for t in p["latencies"]]
    p99 = tracer.quantile(latencies, 99)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "call_p50_ms": 1e3 * tracer.quantile(latencies, 50),
        "call_p99_ms": 1e3 * p99,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }
    notes = {
        "setup_s": f"median of {len(setups)} interpreter starts",
        "wall_s": f"median of {len(untraced)} passes",
        "call_p50_ms": f"{len(latencies)} calls",
        "call_p99_ms": f"{len(latencies)} calls, {sum(t > p99 for t in latencies)} beyond",
        "peak_rss_mb": f"median of {len(untraced)} passes",
    }
    return values, notes


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _unit, _better in tracer.METRICS
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    return values


def measure(root, name, seed, seconds, trace):
    """Passes (alternately untraced and traced with ``trace``) until the next
    would end after ``seconds``, plus SETUP_PROBES set-up samples per pass."""
    workload = WORKLOADS[name](seed)
    rundir = root / ".perfbench_run" / f"{name}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    passes, setups, steps = [], [], []
    try:
        start = time.monotonic()
        while True:
            step_start = time.monotonic()
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(root, rundir / f"pass{len(passes)}", workload, traced))
            for _ in range(SETUP_PROBES):
                setups.append(setup_probe(root, rundir / f"probe{len(setups)}"))
            steps.append(time.monotonic() - step_start)
            if trace and len(passes) % 2:
                continue
            finish = time.monotonic() - start + statistics.median(steps) * (2 if trace else 1)
            enough = len(passes) >= (2 if trace else MIN_PASSES)
            if finish > seconds and (enough or finish > RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    return passes, setups + [p["setup_s"] for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    package = root / "src" / "polydgamma"
    if not (package / "__init__.py").is_file():
        print(f"error: no polydgamma source at {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(package), quiet=1)

    calibration = [calibrate()]
    try:
        passes, setups = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration.append(calibrate())

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    violated = sum(p["violated"] for p in untraced)
    imprecise = sum(p["imprecise"] for p in untraced)
    checked = sum(p["checked"] for p in untraced)
    host = dict(
        passes[0]["host"],
        cpu_count=os.cpu_count(),
        git_commit=git_commit(root),
        calibration_s=calibration,
    )

    e2e, notes = end_to_end(passes, setups)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(passes)}")
    for name, unit in END_TO_END:
        print(f"{name} = {e2e[name]:.6g} {unit} ({notes[name]})")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    if checked:
        print(f"bound_violation_frac = {violated / checked:.6g} ratio "
              f"({violated} of {checked} checked calls)")
        print(f"imprecise_frac = {imprecise / checked:.6g} ratio ({imprecise} of {checked} "
              "checked calls outside tolerance but inside their own error)")
    else:
        print("bound_violation_frac = n/a ratio (no call returns an error estimate)")
    if args.trace:
        layers = per_layer(passes)
        for name, unit, _better in tracer.METRICS:
            print(f"{name} = {layers[name]:.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in tracer.METRICS}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for key in ("setup_s", "wall_s"):
        print(f"passes.{key} = " + json.dumps([p[key] for p in passes]))
    print("passes.traced = " + json.dumps([p["traced"] for p in passes]))
    print("host = " + json.dumps(host, sort_keys=True))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
