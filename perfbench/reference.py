"""Stored references for the ``suite`` and ``figures`` workloads.

``suite`` compares what a user of ``polydg check --suite all`` and
``polydg audit`` acts on: each check's verdict and its witness and
counterexample counts, each audit entry's status, and both exit codes.  The
subadditivity checks move their sample points with ``--seed``, and a few
seeds drop a degenerate sample pair (seed 1 puts one on the triangle's edge),
so witness counts depend on the seed.  References are stored for suite seeds
0 .. SUITE_SEEDS-1 and a benchmark seed runs the suite with ``--seed`` equal
to ``seed % SUITE_SEEDS``; the seed must come back in the report parameters.

``figures`` compares every CSV cell with the stored CSV: a cell misses when
|a - b| > FIGURE_RTOL * |b| + FIGURE_ATOL * max |column of b|.  The relative
part leaves room for a float64 grid tier (about 1e-15 relative), the column
part for cells that sit near a zero of their column.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent / "reference"
SUITE_REFERENCE = HERE / "suite.json"
SUITE_SEEDS = 16
FIGURE_IDS = range(1, 7)
FIGURE_RTOL = 1e-9
FIGURE_ATOL = 1e-12


def figure_reference(fid: int) -> Path:
    return HERE / f"figure{fid}.csv"


def summarize_checks(reports: list, seed: int) -> list:
    out = []
    for r in reports:
        params = dict(r["params"])
        if params.pop("seed", seed) != seed:
            raise ValueError(f"{r['check_id']} ran with seed {r['params']['seed']}, not {seed}")
        out.append(
            {
                "check_id": r["check_id"],
                "params": params,
                "passed": r["passed"],
                "witnesses": len(r["witnesses"]),
                "counterexamples": len(r["counterexamples"]),
            }
        )
    return out


def summarize_audit(entries: list) -> list:
    return [{"identity_id": e["identity_id"], "status": e["status"]} for e in entries]


def _summary(path: Path, summarize, *args):
    try:
        return summarize(json.loads(Path(path).read_text(encoding="utf-8")), *args)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def summarize_suite(check_path: Path, check_code, audit_path: Path, audit_code, seed: int) -> dict:
    """The parts of one suite pass that the reference pins; a call whose
    output file is missing, unreadable or from another seed summarizes to None."""
    return {
        "check": {"exit_code": check_code,
                  "reports": _summary(check_path, summarize_checks, seed)},
        "audit": {"exit_code": audit_code, "entries": _summary(audit_path, summarize_audit)},
    }


def check_suite(summary: dict, reference: dict) -> dict:
    """Per CLI call, whether it misses the reference: {"check": bool, "audit": bool}."""
    return {call: summary[call] != reference[call] for call in ("check", "audit")}


def read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def figure_mismatches(path: Path, reference: Path) -> int:
    """Cells of ``path`` that miss ``reference``; a wrong shape or header, or
    an unreadable file, counts as every reference cell missing."""
    ref_header, ref_rows = read_csv(reference)
    total = sum(len(row) for row in ref_rows)
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, IndexError):
        return total
    if header != ref_header or [len(r) for r in rows] != [len(r) for r in ref_rows]:
        return total
    scales = [max(abs(row[c]) for row in ref_rows) for c in range(len(ref_header))]
    misses = 0
    for row, ref_row in zip(rows, ref_rows):
        for a, b, scale in zip(row, ref_row, scales):
            if not abs(a - b) <= FIGURE_RTOL * abs(b) + FIGURE_ATOL * scale:
                misses += 1
    return misses
