"""End-to-end CLI behavior: exit codes, output formats, figure CSVs."""

import csv
import dataclasses
import inspect
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from mpmath import mpf

import polydgamma
from polydgamma import CheckReport, cli, psi2_cached, verify
from polydgamma.cli import CHECKS, main
from polydgamma.verify import _f_derivative, _ThirtyDigitLookup

REPO = Path(__file__).resolve().parent.parent


class TestExitCodes:
    def test_eval_ok(self, capsys):
        assert main(["eval", "--n", "2", "--x", "1"]) == 0
        out = capsys.readouterr().out
        assert "value=" in out and "method=series" in out

    def test_eval_domain_error(self, capsys):
        assert main(["eval", "--n", "2", "--x", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_eval_order_too_low(self, capsys):
        assert main(["eval", "--n", "1", "--x", "1"]) == 2

    def test_unknown_check_id(self, capsys):
        assert main(["check", "--id", "nonsense"]) == 2

    @pytest.mark.parametrize("cid", ["cm", "hankel"])
    def test_negative_depth(self, cid, capsys):
        # A negative depth has nothing to check; it must not pass vacuously.
        assert main(["check", "--id", cid, "--depth", "-1", "--grid-count", "4"]) == 2
        assert "depth" in capsys.readouterr().err

    def test_hankel_depth_above_one(self, capsys):
        # Depth 2 once ran as depth 1 without a word.
        assert main(["check", "--id", "hankel", "--depth", "2"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: hankel checks derivative depth 0 or 1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--id", "cm", "--grid-count", "10001"],
            ["--id", "cm", "--depth", "51"],
            ["--id", "F-cm", "--depth", "51"],
            ["--id", "subadditivity", "--samples", "10001"],
        ],
    )
    def test_oversized_request(self, argv, capsys):
        assert main(["check", *argv]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "rejected" in errors[0]

    def test_largest_request(self, capsys):
        assert main(["check", "--id", "cm", "--depth", "50", "--grid-count", "2"]) == 0

    def test_gap_omega_counterexample(self, capsys):
        code = main(["check", "--id", "F-cm", "--n", "3", "--omega", "0.6",
                     "--depth", "2", "--grid-count", "8"])
        assert code == 1

    def test_single_check_pass(self, capsys):
        assert main(["check", "--id", "turan", "--n", "2",
                     "--grid-count", "10"]) == 0

    @pytest.mark.parametrize("n", ["40", "70"])
    def test_ratio_bounds_high_order(self, n, capsys):
        # n = 40 once read counterexamples against bounds rounded to doubles,
        # and n = 70 divided by a product that underflowed a double.
        assert main(["check", "--id", "ratio-bounds", "--n", n]) == 0
        assert capsys.readouterr().out.startswith("[PASS]")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--id", "lemma-I1", "--grid-count", "3"],
            ["check", "--id", "subadditivity", "--samples", "10"],
            ["check", "--id", "G-convexity", "--grid-count", "4"],
            ["check", "--id", "cauchy-schwarz", "--grid-count", "5"],
        ],
    )
    def test_small_single_checks_pass(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("[PASS]")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "all", "--n", "7"],
            ["--suite", "all", "--grid-count", "2"],
            ["--id", "cm", "--omega", "5"],
            ["--id", "cm", "--tol", "1"],
            ["--id", "turan", "--seed", "2"],
            ["--id", "ratio-bounds", "--depth", "3"],
            ["--id", "F-cm", "--samples", "10"],
            ["--id", "lemma-I1", "--r", "0.5"],
            ["--id", "subadditivity", "--grid-count", "3"],
            ["--id", "G-convexity", "--m-order", "2"],
            ["--id", "hankel", "--tol", "1e-8"],
            ["--id", "cauchy-schwarz", "--j", "2"],
        ],
    )
    def test_option_check_does_not_read(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"does not read {argv[2]}" in err.splitlines()[0]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_lemma_tolerance_must_be_positive(self, tol, capsys):
        assert main(["check", "--id", "lemma-I1", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: tolerance must be positive"

    def test_lemma_unreachable_tolerance(self, capsys):
        # No float64 error meets 1e-300, so the first point escalates, and
        # its quadrature's claim exceeds the tolerance at once.
        start = time.perf_counter()
        assert main(["check", "--id", "lemma-I1", "--tol", "1e-300"]) == 2
        assert time.perf_counter() - start < 2.0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: I_1 quadrature claims")
        assert "above tol 1e-300" in lines[0]

    def test_lemma_default_decides_in_float64(self, capsys):
        assert main(["check", "--id", "lemma-I1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["escalated"] == 0

    def test_F_cm_order_too_low(self, capsys):
        # The default omega (n-2)/(n-1) once divided by zero at n = 1.
        assert main(["check", "--id", "F-cm", "--n", "1"]) == 2
        assert "n >= 3" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["check", "--suite", "nope"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_eval_requires_order(self, capsys):
        assert main(["eval", "--x", "1"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "2", "--x", "1", "--seed", "1"],
            ["audit", "--tol", "1"],
            ["figure", "--id", "1", "--format", "csv"],
        ],
    )
    def test_options_only_check_reads(self, argv, tmp_path, capsys):
        # --tol and --seed belong to check alone, and figure writes CSV only.
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_always_zero(self, capsys):
        assert main(["audit"]) == 0

    def test_limit(self, capsys):
        assert main(["limit", "--n", "2", "--x-max", "10000"]) == 0
        assert "limit -1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "2", "--x", "inf"],
            ["eval", "--psi2", "--x", "inf"],
            ["eval", "--n", "2", "--x", "nan"],
            ["limit", "--x-max", "inf"],
            ["check", "--id", "F-cm", "--omega", "nan"],
            ["check", "--id", "turan", "--grid-hi=-inf"],
            ["check", "--id", "turan", "--tol", "nan"],
        ],
    )
    def test_non_finite_argument(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "2", "--x", "1e-300"],
            ["eval", "--n", "2", "--x", "1e-300", "--format", "json"],
            ["eval", "--n", "2", "--x", "1e-300", "--method", "polygamma",
             "--format", "json"],
            ["eval", "--n", "2", "--x", "1e-300", "--method", "integral"],
            ["eval", "--n", "10000", "--x", "5", "--method", "integral"],
            ["limit", "--x-max", "1e-300", "--format", "json"],
            ["limit", "--n", "200"],
            ["check", "--id", "cm", "--grid-lo", "1e-300", "--grid-count", "3",
             "--format", "json"],
        ],
    )
    def test_non_finite_output(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestEvalOutputs:
    def test_anchor_value(self, capsys):
        main(["eval", "--n", "2", "--x", "1", "--format", "json"])
        d = json.loads(capsys.readouterr().out)
        assert abs(d["value"] - (-3.2898681336964528)) < 1e-10
        assert d["method"] == "series"

    def test_didouble_anchor(self, capsys):
        main(["eval", "--psi2", "--x", "1", "--format", "json"])
        d = json.loads(capsys.readouterr().out)
        assert abs(d["value"] - 1.1582771316968601) < 1e-10

    def test_method_selection(self, capsys):
        main(["eval", "--n", "3", "--x", "2", "--method", "integral",
              "--format", "json"])
        d = json.loads(capsys.readouterr().out)
        assert d["method"] == "integral"


class TestCheckJson:
    def test_schema_and_round_trip(self, capsys):
        main(["check", "--id", "turan", "--n", "2", "--grid-count", "10",
              "--format", "json"])
        d = json.loads(capsys.readouterr().out)
        for key in ("check_id", "params", "passed", "tolerance", "witnesses",
                    "counterexamples"):
            assert key in d
        report = CheckReport.from_dict(d)
        assert asdict(CheckReport.from_dict(report.to_dict())) == asdict(report)

    def test_limit_json(self, capsys):
        main(["limit", "--n", "3", "--x-max", "10000", "--format", "json"])
        d = json.loads(capsys.readouterr().out)
        assert abs(d["scaled_value"] - d["limit"]) < 4e-4


class TestCheckTable:
    """cli.CHECKS is the one table of check defaults: each id runs a
    verify.check_* function itself, whose parameters are the row's keys."""

    @pytest.mark.parametrize("cid", sorted(CHECKS))
    def test_row_is_a_verify_check(self, cid):
        call, defaults = CHECKS[cid]
        assert call.__name__.startswith("check_")
        assert getattr(verify, call.__name__) is call
        assert list(inspect.signature(call).parameters) == list(defaults)

    def test_checks_take_no_defaults(self):
        names = [n for n in vars(verify) if n.startswith("check_")]
        for name in names + ["lemma_I1_value"]:
            for param in inspect.signature(getattr(verify, name)).parameters.values():
                assert param.default is param.empty, (name, param.name)

    def test_public_api_takes_no_defaults(self):
        # psi2_eval's route is the one default outside CHECKS; a Grid is
        # always spelled out in full.
        for name in polydgamma.__all__:
            obj = getattr(polydgamma, name)
            if not inspect.isfunction(obj):
                continue
            for param in inspect.signature(obj).parameters.values():
                if (name, param.name) != ("psi2_eval", "method"):
                    assert param.default is param.empty, (name, param.name)
        for field in dataclasses.fields(verify.Grid):
            assert field.default is dataclasses.MISSING, field.name


class TestAuditJson:
    def test_schema(self, capsys):
        main(["audit", "--format", "json"])
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) >= 10
        for e in entries:
            assert {"identity_id", "status", "max_deviation"} <= set(e)
            assert e["status"] in ("confirmed", "discrepancy")


class TestFigures:
    def _read(self, path):
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    @staticmethod
    def _thirty_digit_row(fid, x):
        if fid == 1:
            return [psi2_cached(3 + k, x).value for k in range(6)]
        if fid == 2:
            return [
                psi2_cached(2, x + 1).value ** 2,
                psi2_cached(2, x).value * psi2_cached(2, x + 2).value,
            ]
        if fid == 3:
            return [x * psi2_cached(2, x).value]
        omega, sign = (mpf(1) / 4, 1) if fid == 5 else (mpf(3) / 4, -1)
        return [
            sign * _f_derivative(3, omega, k, _ThirtyDigitLookup((x,))).value
            for k in range(5)
        ]

    @pytest.mark.parametrize("fid", [1, 2, 3, 5, 6])
    def test_float64_figures_match_thirty_digits(self, fid, tmp_path, capsys):
        out = tmp_path / f"fig{fid}.csv"
        assert main(["figure", "--id", str(fid), "--out", str(out)]) == 0
        _, data = self._read(out)
        data = [[float(v) for v in row] for row in data]
        scales = [max(abs(row[c]) for row in data) for c in range(len(data[0]))]
        for row in data[::10]:
            expected = self._thirty_digit_row(fid, mpf(row[0]))
            for a, b, scale in zip(row[1:], expected, scales[1:]):
                assert abs(a - b) <= 1e-9 * abs(b) + 1e-12 * scale

    def test_figure2_ordering(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--id", "2", "--out", str(out)]) == 0
        header, data = self._read(out)
        assert header == ["x", "lhs", "rhs"]
        assert len(data) == 400
        assert all(float(r[2]) >= float(r[1]) for r in data)

    def test_figure3_settles(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        main(["figure", "--id", "3", "--out", str(out)])
        header, data = self._read(out)
        assert header == ["x", "x_psi2_2"]
        assert abs(float(data[-1][0]) - 40000) < 1e-6
        assert abs(float(data[-1][1]) + 1) < 1e-4

    def test_figure4_negative(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        main(["figure", "--id", "4", "--out", str(out)])
        header, data = self._read(out)
        assert header == ["a", "I1_n3", "I1_n4"]
        assert all(float(r[1]) < 0 and float(r[2]) < 0 for r in data)

    def test_figure4_matches_benchmark_reference(self, tmp_path, capsys):
        # Reads the stored benchmark reference; writes nothing beside it.
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            import reference
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "4", "--out", str(out)]) == 0
        assert reference.figure_mismatches(out, reference.figure_reference(4)) == 0

    def test_figure1_alternating_columns(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        main(["figure", "--id", "1", "--out", str(out)])
        header, data = self._read(out)
        assert header == ["x", "d0", "d1", "d2", "d3", "d4", "d5"]
        # psi2^(3+k) has sign (-1)^(3+k+1) = (-1)^k.
        for row in data[:: 40]:
            for k in range(6):
                assert (-1) ** k * float(row[k + 1]) > 0

    def test_csv_locale_independent(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        main(["figure", "--id", "5", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        assert ";" not in text
        header, data = self._read(out)
        for row in data:
            for cell in row:
                float(cell)  # parses with dot decimal separator
                assert "," not in cell

    def test_shared_grids_are_read_only_and_unchanged(self):
        # Figures 1, 2, 5 and 6 share one evaluation per (order, offset);
        # each is the psi2_grid value of a fresh array, and no caller can
        # write into it.
        xa = np.array(cli._figure_xs(), dtype=np.float64)
        for n, offset in [(2, 0), (2, 1), (2, 2), (5, 0), (8, 0)]:
            grid = cli._figure_grid(n, offset)
            assert cli._figure_grid(n, offset) is grid
            fresh = cli.psi2_grid(n, xa + offset)
            for cached, array in zip(grid, fresh):
                assert cached.tobytes() == array.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    cached[0] = 0.0

    def test_bad_figure_id(self, capsys):
        assert main(["figure", "--id", "7"]) == 2

    def test_unwritable_path(self, capsys):
        assert main(["figure", "--id", "3",
                     "--out", "/nonexistent-dir/f.csv"]) == 2


class TestParserReuse:
    def test_one_parser_per_process(self, capsys):
        cli._build_parser.cache_clear()
        assert main(["eval", "--n", "2", "--x", "1"]) == 0
        assert main(["eval", "--n", "3", "--x", "2"]) == 0
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser.cache_info().hits == 1

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        argv = ["check", "--id", "turan", "--grid-count", "5", "--format", "json"]
        assert main(argv) in (0, 1)
        first = capsys.readouterr().out
        assert main(["check", "--id", "turan", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(argv) in (0, 1)
        assert capsys.readouterr().out == first

    def test_help_then_valid_call(self, capsys):
        assert main(["eval", "--n", "2", "--x", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--help"]) == 0
        assert "--method" in capsys.readouterr().out
        assert main(["eval", "--n", "2", "--x", "1"]) == 0
        assert capsys.readouterr().out == first


class TestCsvFastPaths:
    @pytest.mark.parametrize(
        "lo, hi, count, open_left", [(0.05, 4.0, 400, True), (1.01, 1.99, 100, False)]
    )
    def test_linear_points_round_the_mpf_sum(self, lo, hi, count, open_left):
        # The figure grids: each point is the double of the 30-digit sum.
        step = (hi - lo) / (count if open_left else count - 1)
        first = 1 if open_left else 0
        expected = [float(mpf(lo) + k * mpf(step)) for k in range(first, first + count)]
        points = cli._linear_points(lo, hi, count, open_left=open_left)
        assert all(type(p) is float for p in points)
        assert [p.hex() for p in points] == [e.hex() for e in expected]

    def test_write_csv_matches_per_cell_format(self, tmp_path):
        special = [0.0, -0.0, 5e-324, 1e308, -1e308, 1 / 3]
        rows = [
            (float(v), np.float64(v) / 3, mpf(v) / 7) for v in special
        ] + [(np.float64(-2.5), mpf("0.1"), 7e-310)]
        header = ["a", "b", "c"]
        out = tmp_path / "rows.csv"
        cli._write_csv(out, header, rows)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
        )
        assert out.read_bytes() == expected.encode("utf-8")
