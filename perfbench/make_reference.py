#!/usr/bin/env python3
"""Regenerate the stored suite and figure references from the program.

    python3 perfbench/make_reference.py

Run from a checkout root.  Writes ``reference/suite.json`` (one summary per
suite seed) and ``reference/figure1.csv`` .. ``figure6.csv``.  A change that
is not meant to alter verdicts or figure values must not regenerate them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import reference


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from polydgamma.cli import main as polydg

    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench_") as tmp:
        tmp = Path(tmp)
        summaries = {}
        for seed in range(reference.SUITE_SEEDS):
            check_code = polydg(["check", "--suite", "all", "--format", "json",
                                 "--seed", str(seed), "--out", str(tmp / "check.json")])
            audit_code = polydg(["audit", "--format", "json", "--out", str(tmp / "audit.json")])
            summaries[str(seed)] = reference.summarize_suite(
                tmp / "check.json", check_code, tmp / "audit.json", audit_code, seed)
        reference.SUITE_REFERENCE.write_text(
            "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in summaries.items())
            + "\n}\n", encoding="utf-8")
        for fid in reference.FIGURE_IDS:
            out = tmp / f"figure{fid}.csv"
            if polydg(["figure", "--id", str(fid), "--out", str(out)]) != 0:
                return 1
            shutil.copyfile(out, reference.figure_reference(fid))
    return 0


if __name__ == "__main__":
    sys.exit(main())
