"""Every witness status of the default suite, pinned against a fixture.

``witness_statuses.json`` holds, for ``check --suite all`` at seeds 0..15,
each report's check id and its count of strict, inconclusive, equality and
fail entries, plus the full status sequence of three checks whose values do
not fit a double.  Regenerate it with ``python tests/test_witness_statuses.py``
only when a change of statuses is intended.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from polydgamma.cli import main
from polydgamma.verify import Grid, check_cm, check_turan

FIXTURE = Path(__file__).with_name("witness_statuses.json")
SEEDS = range(16)
STATUSES = ("strict", "inconclusive", "equality", "fail")

# Checks whose psi2 values overflow a double at some grid points.
FALLBACKS = {
    "cm-1e-300": lambda: check_cm(3, 5, Grid(1e-300, 50.0, 3, "log")),
    "cm-n168": lambda: check_cm(168, 5, Grid(0.05, 50.0, 4, "log")),
    "turan-n171": lambda: check_turan(171, Grid(0.05, 4.0, 3, "linear")),
}


def _statuses(report: dict) -> list:
    return [e["status"] for e in report["witnesses"] + report["counterexamples"]]


def suite_counts(seed: int, tmp_path: Path) -> list:
    out = tmp_path / f"suite-{seed}.json"
    assert main(["check", "--suite", "all", "--format", "json",
                 "--seed", str(seed), "--out", str(out)]) == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    return [
        [r["check_id"], [Counter(_statuses(r))[s] for s in STATUSES]]
        for r in reports
    ]


def fallback_statuses(name: str) -> list:
    return _statuses(FALLBACKS[name]().to_dict())


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_statuses(seed, expected, tmp_path):
    assert suite_counts(seed, tmp_path) == expected["suite"][str(seed)]


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_statuses(name, expected):
    assert fallback_statuses(name) == expected["fallbacks"][name]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--id", "cm", "--grid-lo", "1e-300", "--grid-count", "3"],
        ["check", "--id", "cm", "--n", "168", "--depth", "5", "--grid-count", "4"],
        ["check", "--id", "turan", "--n", "171", "--grid-count", "3"],
    ],
)
def test_fallback_checks_pass(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("[PASS]")


def test_unrepresentable_json_exits_two(capsys):
    argv = ["check", "--id", "cm", "--grid-lo", "1e-300", "--grid-count", "3",
            "--format", "json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: output holds a value that does not fit a finite double"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "suite": {str(s): suite_counts(s, Path(tmp)) for s in SEEDS},
            "fallbacks": {name: fallback_statuses(name) for name in sorted(FALLBACKS)},
        }
    # One line per seed or fallback keeps the fixture's diffs readable.
    text = "{\n" + ",\n".join(
        f" {json.dumps(part)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data[part].items())
        + "\n }"
        for part in data
    ) + "\n}\n"
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE}")
