"""End-to-end tests for the command-line interface (in-process)."""

import argparse
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import RNA_BCOMP_ROWS, RNA_MATRIX_ROWS, T
from riordan import BCOMP_ROWS_LIMIT, PARTITION_N_LIMIT
from riordan import cli, suites
from riordan.cli import CHECK_ORDER_MIN, MATRIX_LOG_N_LIMIT, TRIANGLE_ROWS_LIMIT, main
from riordan.exprparse import EXPR_EXPONENT_LIMIT
from riordan.exprparse import EvalError, ParseError, eval_expr, parse_expr
from riordan.render import format_triangle

RNA_TEXT = "\n".join(
    [
        "1",
        "1  1",
        "1  2  1",
        "2  3  3  1",
        "4  6  6  4  1",
        "8  13 13 10 5  1",
        "17 28 30 24 15 6 1",
    ]
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the parser rejects a bad flag this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrix:
    def test_rna_display(self, capsys):
        code, out, err = run(
            capsys, "matrix", "--f", "rna", "--g", "rna", "--rows", "7"
        )
        assert code == 0
        assert err == ""
        assert out == RNA_TEXT + "\n"
        assert out == format_triangle(T(RNA_MATRIX_ROWS)) + "\n"

    def test_pascal_with_f(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--f", "geom", "--g", "geom", "--rows", "5"
        )
        assert code == 0
        assert out == "1\n1 1\n1 2 1\n1 3 3 1\n1 4 6 4 1\n"

    def test_exponential_lah(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--g", "geom", "--exponential", "--rows", "5"
        )
        assert code == 0
        assert out.splitlines() == [
            "1",
            "0 1",
            "0 2  1",
            "0 6  6  1",
            "0 24 36 12 1",
        ]

    def test_default_f_is_one(self, capsys):
        code, out, _ = run(capsys, "matrix", "--g", "geom", "--rows", "3")
        assert code == 0
        assert out == "1\n0 1\n0 1 1\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--f", "geom", "--g", "geom", "--rows", "3",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "triangle",
            "rows": [["1"], ["1", "1"], ["1", "2", "1"]],
        }

    def test_csv_with_header(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--f", "geom", "--g", "geom", "--rows", "3",
            "--format", "csv", "--header",
        )
        assert code == 0
        assert out == "c0,c1,c2\n1\n1,1\n1,2,1\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "tri.txt"
        code, out, _ = run(
            capsys,
            "matrix", "--f", "geom", "--g", "geom", "--rows", "3",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == "1\n1 1\n1 2 1\n"


class TestPower:
    def test_negative_one_is_parity_conjugate(self, capsys):
        code, out, _ = run(
            capsys, "power", "--g", "rna", "--phi", "-1", "--order", "8"
        )
        assert code == 0
        assert out == "1 -1 1 -2 4 -8 17 -37\n"

    def test_rational_phi(self, capsys):
        code, out, _ = run(
            capsys, "power", "--g", "geom", "--phi", "1/2", "--order", "5"
        )
        assert code == 0
        # matrix power, not series power: (g, xg)^phi for g = 1/(1-x)
        # has g-part 1/(1-phi x)
        assert out == "1 1/2 1/4 1/8 1/16\n"

    def test_identity_power(self, capsys):
        code, out, _ = run(
            capsys, "power", "--g", "catalan", "--phi", "1", "--order", "6"
        )
        assert code == 0
        assert out == "1 1 2 5 14 42\n"

    def test_requires_unit_constant(self, capsys):
        code, out, err = run(capsys, "power", "--g", "2+x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "constant term 1" in err


class TestCompPoly:
    def test_rna_display(self, capsys):
        code, out, _ = run(capsys, "comp-poly", "--g", "rna", "--rows", "11")
        assert code == 0
        assert out == format_triangle(T(RNA_BCOMP_ROWS)) + "\n"


@pytest.mark.parametrize(
    "command, flag", [("power", "--order"), ("comp-poly", "--rows")]
)
def test_matrix_log_size_ceiling(capsys, command, flag):
    size = str(MATRIX_LOG_N_LIMIT + 1)
    code, out, err = run(capsys, command, "--g", "rna", flag, size)
    assert code == 2 and out == ""
    assert err == (
        f"error: argument {flag}: must be from 1 to {MATRIX_LOG_N_LIMIT} (matrix log)\n"
    )


@pytest.mark.parametrize("command", ["matrix", "diag"])
class TestTriangleRowsCeiling:
    def test_at_ceiling(self, capsys, command):
        rows = str(TRIANGLE_ROWS_LIMIT)
        code, out, err = run(capsys, command, "--g", "rna", "--rows", rows)
        assert (code, err) == (0, "")
        if command == "matrix":
            lines = out.splitlines()
            assert len(lines) == TRIANGLE_ROWS_LIMIT
            # entry (n, n-1) of (1, x rna) is [x] rna^(n-1) = n - 1
            assert lines[-1].split()[-2:] == [str(TRIANGLE_ROWS_LIMIT - 2), "1"]
        else:  # the main diagonal of (1, x rna)
            assert out == " ".join(["1"] * TRIANGLE_ROWS_LIMIT) + "\n"

    def test_above_ceiling(self, capsys, command):
        rows = str(TRIANGLE_ROWS_LIMIT + 1)
        code, out, err = run(capsys, command, "--g", "rna", "--rows", rows)
        assert code == 2 and out == ""
        assert err == (
            f"error: argument --rows: must be from 1 to {TRIANGLE_ROWS_LIMIT}"
            " (the triangle grows about as rows^4)\n"
        )


class TestBComp:
    def test_geometric_matches_comp_poly(self, capsys):
        code, out, _ = run(capsys, "bcomp", "--b", "geom", "--rows", "11")
        assert code == 0
        assert out == format_triangle(T(RNA_BCOMP_ROWS)) + "\n"

    def test_finite_b(self, capsys):
        code, out, _ = run(
            capsys, "bcomp", "--b", "coeffs([1,1])", "--rows", "5"
        )
        assert code == 0
        assert out.splitlines() == ["1", "0 1", "0 0 1", "0 1 0 1", "0 0 3 0 1"]

    def test_rows_above_ceiling(self, capsys):
        rows = str(BCOMP_ROWS_LIMIT + 1)
        code, out, err = run(capsys, "bcomp", "--b", "geom", "--rows", rows)
        assert code == 2 and out == ""
        assert err == (
            f"error: argument --rows: must be from 1 to {BCOMP_ROWS_LIMIT}"
            " (the <B> table grows about as rows^3.5)\n"
        )


class TestBExpand:
    def test_json_fixture(self, capsys):
        code, out, _ = run(
            capsys, "bexpand", "--b", "geom", "--n", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "poly": {"1": "9/4", "2": "35/24", "3": "1/4", "4": "1/24"}
        }

    def test_text_poly(self, capsys):
        code, out, _ = run(
            capsys, "bexpand", "--b", "coeffs([1,1])", "--n", "3"
        )
        assert code == 0
        assert out == "1/6*phi^3 + 1/2*phi^2 + 4/3*phi\n"

    def test_custom_symbol(self, capsys):
        code, out, _ = run(
            capsys, "bexpand", "--b", "geom", "--n", "1", "--symbol", "t"
        )
        assert code == 0
        assert out == "t\n"

    def test_negative_n_rejected(self, capsys):
        assert run(capsys, "bexpand", "--b", "1", "--n", "-1") == (
            2,
            "",
            f"error: argument --n: must be from 0 to {PARTITION_N_LIMIT}"
            f" (odd partitions of n <= {PARTITION_N_LIMIT})\n",
        )


class TestSequences:
    def test_bseq_rna(self, capsys):
        code, out, _ = run(capsys, "bseq", "--g", "rna", "--order", "12")
        assert code == 0
        assert out == "1 1 1 1 1 1\n"

    def test_bseq_rejects_non_pseudo_involution(self, capsys):
        code, out, err = run(capsys, "bseq", "--g", "catalan")
        assert code == 2
        assert "pseudo-involution" in err

    def test_bseq_singular_f_is_not_pseudo_involution(self, capsys):
        code, out, err = run(
            capsys, "bseq", "--f", "x", "--g", "rna", "--order", "6"
        )
        assert code == 2
        assert out == ""
        assert "not a pseudo-involution" in err

    def test_bseq_needs_order_two(self, capsys):
        code, out, err = run(capsys, "bseq", "--g", "1", "--order", "1")
        assert code == 2
        assert out == ""
        assert "a B-sequence needs order at least 2" in err

    def test_aseq_catalan(self, capsys):
        code, out, _ = run(capsys, "aseq", "--g", "catalan", "--order", "8")
        assert code == 0
        assert out == "1 1 1 1 1 1 1 1\n"

    def test_aseq_pascal(self, capsys):
        code, out, _ = run(capsys, "aseq", "--g", "geom", "--order", "6")
        assert code == 0
        assert out == "1 1 0 0 0 0\n"

    def test_aseq_needs_nonzero_g0(self, capsys):
        code, out, err = run(capsys, "aseq", "--g", "x", "--order", "4")
        assert code == 2
        assert out == ""
        assert err == "error: the A-sequence needs g(0) != 0\n"


class TestSqrtFactor:
    def test_geometric2(self, capsys):
        code, out, _ = run(
            capsys, "sqrt-factor", "--g", "1/(1-2*x)", "--order", "6"
        )
        assert code == 0
        assert out == "h: 1 1 1/2 0 -1/8 0\ns: 0 1 0 0 0 0\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "sqrt-factor", "--g", "1/(1-2*x)", "--order", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "labelled-series",
            "series": {"h": ["1", "1", "1/2", "0"], "s": ["0", "1", "0", "0"]},
        }

    def test_rejects_non_pseudo_involution(self, capsys):
        code, _, err = run(capsys, "sqrt-factor", "--g", "catalan")
        assert code == 2
        assert "pseudo-involution" in err


class TestDiag:
    def test_up_diagonal_pascal(self, capsys):
        code, out, _ = run(
            capsys,
            "diag", "--f", "geom", "--g", "geom", "--rows", "12",
            "--direction", "up", "--index", "6",
        )
        assert code == 0
        assert out == "x^3 + 6*x^2 + 5*x + 1\n"

    def test_down_diagonal_pascal(self, capsys):
        code, out, _ = run(
            capsys,
            "diag", "--f", "geom", "--g", "geom", "--rows", "6",
            "--direction", "down", "--index", "1",
        )
        assert code == 0
        assert out == "1 2 3 4 5\n"

    def test_default_is_main_diagonal(self, capsys):
        code, out, _ = run(capsys, "diag", "--g", "catalan", "--rows", "4")
        assert code == 0
        assert out == "1 1 1 1\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--index", "-1"],
            ["--index", "99999999"],
            ["--direction", "up", "--index", "50"],
            ["--rows", "4", "--index", "4"],
        ],
        ids=["negative", "huge", "up-past-rows", "at-rows"],
    )
    def test_index_out_of_range(self, capsys, extra):
        code, out, err = run(capsys, "diag", "--g", "1+x", *extra)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: --index must be from 0 to ")


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--all")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        counted = len(lines) - 1
        assert lines[-1] == f"{counted}/{counted} checks passed"

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "lemma21")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS lemma21.parity-g-geometric2"
        assert all(
            line.split()[1].startswith("lemma21.") for line in lines[:-1]
        )

    def test_failed_check_exits_1_with_its_detail(self, capsys, monkeypatch):
        # a broken dissection triangle fails theorem71's row unfolding
        real = suites.dissection_matrix
        monkeypatch.setattr(suites, "dissection_matrix", lambda rows: real(rows).scale(2))
        code, out, _ = run(capsys, "check", "--suite", "theorem71")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL theorem71.row-unfold-n0  (entry (1,1))"
        passed, total = map(int, lines[-1].removesuffix(" checks passed").split("/"))
        assert lines[-1] == f"{passed}/{total} checks passed"
        assert total == len(lines) - 1 and passed < total

    def test_requires_suite_or_all(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2
        assert err == "error: one of the arguments --suite --all is required\n"

    ORDER_RANGE = (
        f"error: argument --order: must be from 7 to {PARTITION_N_LIMIT}"
        " (theorem72 cannot tell geometric from Catalan B below 7;"
        " the suites build <B> with order + 1 rows)\n"
    )

    def test_order_above_partition_ceiling(self, capsys):
        order = PARTITION_N_LIMIT + 1
        code, out, err = run(capsys, "check", "--all", "--order", str(order))
        assert code == 2 and out == ""
        assert err == self.ORDER_RANGE

    @pytest.mark.parametrize("order", [1, 6])
    def test_order_below_floor(self, capsys, order):
        code, out, err = run(capsys, "check", "--all", "--order", str(order))
        assert code == 2 and out == ""
        assert err == self.ORDER_RANGE

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "nope"])
        assert exc.value.code == 2


class TestOeisCompare:
    def test_vendored_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "oeis-compare", "--vendored", "A097724", "--expr", "rna",
            "--order", "16", "--min-match", "12",
        )
        assert code == 0
        assert out == "PASS: first 16 terms match (threshold 12)\n"

    def test_values_mismatch_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "oeis-compare", "--vendored", "A097724",
            "--values", "1,2,3", "--min-match", "1",
        )
        assert code == 1
        assert out.startswith("FAIL: mismatch at position 1")

    def test_bfile_path(self, capsys, tmp_path):
        p = tmp_path / "b000.txt"
        p.write_text("0 1\n1 3\n2 9\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "oeis-compare", "--bfile", str(p), "--expr", "1/(1-3*x)",
            "--order", "3", "--min-match", "3",
        )
        assert code == 0
        assert out == "PASS: first 3 terms match (threshold 3)\n"

    def test_values_skip_blank_terms(self, capsys, tmp_path):
        p = tmp_path / "b000.txt"
        p.write_text("0 1\n1 3\n2 9\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "oeis-compare", "--bfile", str(p), "--values", " 1, 3,,9 ,",
            "--min-match", "3",
        )
        assert code == 0
        assert out == "PASS: first 3 terms match (threshold 3)\n"

    def test_unknown_vendored_id(self, capsys):
        code, _, err = run(
            capsys, "oeis-compare", "--vendored", "A0", "--values", "1"
        )
        assert code == 2
        assert err.startswith("error: no vendored b-file")

    def test_non_integer_series_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "oeis-compare", "--vendored", "A097724", "--expr", "coeffs([1/2])",
        )
        assert code == 2
        assert "non-integer coefficient" in err

    @pytest.mark.parametrize(
        "terms, count",
        [(["--expr", "rna", "--order", "1"], 1), (["--values", "1,1"], 2)],
    )
    def test_fewer_terms_than_min_match_rejected(self, capsys, terms, count):
        code, out, err = run(
            capsys, "oeis-compare", "--vendored", "A097724", *terms
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --min-match 8 needs at least 8 terms, got {count}\n"


POW_TOO_LONG = "(2^1000)^1000 has a coefficient of more than 4300 digits"
PRINT_TOO_LONG = "a coefficient of about 4516 digits is over the 4300-digit output limit"


class TestParserCache:
    def test_not_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import riordan.cli as c; print(c._parser)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stdout == "None\n", proc.stderr

    def test_patched_command_is_reached(self, capsys, monkeypatch):
        # the parser is built once, but each call looks the command up anew
        assert run(capsys, "power", "--g", "rna", "--order", "3")[0] == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_power", lambda args: calls.append(args.order) or 0)
        assert run(capsys, "power", "--g", "rna", "--order", "4") == (0, "", "")
        assert calls == [4]

    def test_errors_after_first_call(self, capsys):
        assert run(capsys, "matrix", "--g", "x", "--rows", "2")[0] == 0
        assert run(capsys, "matrix", "--g", "1+")[0] == 2
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--rows", "2"])
        assert exc.value.code == 2
        assert run(capsys, "matrix", "--g", "x", "--rows", "2")[0] == 0


class TestErrorHandling:
    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "matrix", "--g", "1+")
        assert code == 2
        assert out == ""
        assert err.startswith("error: syntax error at byte 2: expected ")

    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "x" + ")" * 3000, "1+" + "-" * 3000 + "x", "1" + "+x" * 3000],
        ids=["nested-parens", "minus-chain", "long-sum"],
    )
    def test_deep_expression_is_input_error(self, capsys, expr):
        code, out, err = run(capsys, "matrix", "--g", expr)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: syntax error at byte ")
        assert "levels of nesting" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--g", "catalan", "--out", "{dir}"],
            ["oeis-compare", "--bfile", "{dir}", "--values", "1,2,3"],
        ],
        ids=["out-dir", "bfile-dir"],
    )
    def test_directory_path_is_input_error(self, capsys, tmp_path, argv):
        argv = [a.format(dir=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("exponent", [EXPR_EXPONENT_LIMIT + 1, 10**7, 10**8])
    def test_exponent_ceiling_is_input_error(self, capsys, exponent):
        code, out, err = run(capsys, "matrix", "--g", f"2^{exponent}", "--rows", "2")
        assert code == 2
        assert out == ""
        assert err == (
            "error: syntax error at byte 2: expected"
            f" |exponent| <= {EXPR_EXPONENT_LIMIT}\n"
        )

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("(2^1000)^1000", POW_TOO_LONG),
            ("((2^1000)^1000)^1000", POW_TOO_LONG),
            ("*".join(["2^1000"] * 15), PRINT_TOO_LONG),
        ],
        ids=["power", "nested-power", "product"],
    )
    def test_oversized_coefficient_is_input_error(self, capsys, expr, message):
        # The power is refused when it is evaluated, the product when it
        # is rendered; either way the nested case does not run for minutes.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "matrix", "--g", expr, "--rows", "2")
            elapsed = time.perf_counter() - start
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert elapsed < 2

    def test_eval_error_exit_code(self, capsys):
        code, _, err = run(capsys, "power", "--g", "1/x")
        assert code == 2
        assert "zero constant term" in err

    def test_rows_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--g", "geom", "--rows", "0"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("riordan ")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["matrix", "--g", "x", "--rows", "abc"], "--rows: not an integer: 'abc'"),
        (["matrix", "--g", "x", "--rows", "0"],
         f"--rows: must be from 1 to {TRIANGLE_ROWS_LIMIT}"),
        (["oeis-compare", "--vendored", "A097724", "--values", "1", "--min-match", "-3"],
         "--min-match: must be at least 1"),
        (["oeis-compare", "--vendored", "A097724", "--values", "1, 2,a ,3"],
         "--values: not an integer: 'a'"),
        (["bexpand", "--b", "geom", "--n", str(PARTITION_N_LIMIT + 1)], "--n: must be from 0"),
        (["power", "--g", "rna", "--order", str(MATRIX_LOG_N_LIMIT + 1)], "--order: must be"),
        (["power", "--g", "rna", "--phi", "1/0"], "--phi: not a rational"),
        (["matrix"], "required: --g"),
        (["oeis-compare", "--vendored", "A097724"], "--expr --values is required"),
        ([], "required: command"),
        (["nope"], "invalid choice: 'nope'"),
        (["diag", "--g", "x", "--direction", "left"], "invalid choice: 'left'"),
        (["check", "--suite", "nope"], "invalid choice: 'nope'"),
        (["check", "--suite", "lemma21", "--all"], "not allowed with argument --suite"),
        (["bexpand", "--b", "geom", "--n", "3", "--symbol", "1"], "not an identifier: '1'"),
        (["bexpand", "--b", "geom", "--n", "3", "--symbol", ""], "not an identifier: ''"),
        (["check", "--all", "--format", "json"], "unrecognized arguments: --format json"),
        (["check", "--all", "--header"], "unrecognized arguments: --header"),
        (["oeis-compare", "--vendored", "A097724", "--values", "1", "--format", "csv"],
         "unrecognized arguments: --format csv"),
        (["sqrt-factor", "--g", "rna", "--header"], "unrecognized arguments: --header"),
        (["sqrt-factor", "--f", "1", "--g", "rna"], "unrecognized arguments: --f 1"),
        (["bcomp", "--b", "catalan", "--r", "3"], "unrecognized arguments: --r 3"),
        (["power", "--g", "rna", "--phi", "0.5"], "--phi: not a rational p or p/q: '0.5'"),
    ],
    ids=[
        "non-integer", "below-floor", "below-floor-min-match", "non-integer-values",
        "above-ceiling",
        "above-matrix-log", "non-rational", "missing-flag", "missing-group",
        "missing-command", "unknown-command", "invalid-direction", "invalid-suite",
        "suite-and-all", "symbol-digit", "symbol-empty", "check-format",
        "check-header", "oeis-compare-format", "sqrt-factor-header",
        "abbreviated-f", "abbreviated-rows", "decimal-phi",
    ],
)
def test_bad_flag_is_one_line(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert names in err


@pytest.mark.parametrize(
    "phi, order, names",
    [
        # exponent syntax: Fraction alone spends over 20 s parsing it
        ("1e100000000", 12, "--phi: not a rational p or p/q: '1e100000000'"),
        # the most digits that parse, at the largest order
        ("9" * 4300, MATRIX_LOG_N_LIMIT, "--phi of 4300 digits at --order 128 passes"),
        ("1/" + "9" * 4300, MATRIX_LOG_N_LIMIT, "--phi of 4300 digits"),
        ("3" * 34, MATRIX_LOG_N_LIMIT, "--phi of 34 digits at --order 128 passes"),
    ],
    ids=["exponent", "numerator-4300", "denominator-4300", "digits-times-order"],
)
def test_hostile_phi_is_refused_before_any_work(capsys, phi, order, names):
    start = time.perf_counter()
    code, out, err = run(capsys, "power", "--g", "rna", f"--phi={phi}", f"--order={order}")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


# the size flags with no ceiling yet: each still runs as long as its size asks
NO_CEILING_YET = {
    ("aseq", "--order"), ("bseq", "--order"), ("sqrt-factor", "--order"),
    ("oeis-compare", "--order"), ("oeis-compare", "--min-match"),
}


def test_every_size_flag_declares_its_bounds():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {  # every option of every command that parses to an integer
        (command, action.option_strings[-1]): action
        for command, p in sub.choices.items()
        for action in p._actions
        if action.type is int
        or isinstance(action.type, cli._BoundedInt)
        or (isinstance(action.default, int) and not isinstance(action.default, bool))
    }
    # --index's range depends on --rows, so the command checks it
    assert options.pop(("diag", "--index")).type is int
    assert all(isinstance(a.type, cli._BoundedInt) for a in options.values())
    ceilings = {key: a.type.ceiling for key, a in options.items()}
    assert ceilings == {
        ("power", "--order"): MATRIX_LOG_N_LIMIT,
        ("comp-poly", "--rows"): MATRIX_LOG_N_LIMIT,
        ("check", "--order"): PARTITION_N_LIMIT,
        ("bcomp", "--rows"): BCOMP_ROWS_LIMIT,
        ("bexpand", "--n"): PARTITION_N_LIMIT,
        ("matrix", "--rows"): TRIANGLE_ROWS_LIMIT,
        ("diag", "--rows"): TRIANGLE_ROWS_LIMIT,
        **dict.fromkeys(NO_CEILING_YET),
    }
    floors = {key: a.type.floor for key, a in options.items()}
    assert floors == {
        **dict.fromkeys(options, 1),
        ("check", "--order"): CHECK_ORDER_MIN,
        ("bexpand", "--n"): 0,
    }
    for a in options.values():
        if a.default is not None:
            assert a.type.floor <= a.default <= (a.type.ceiling or a.default)


_RATIONAL = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9))
_ATOMS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["x", "catalan", "rna", "geom"]),
    st.integers(-3, 5).map(lambda r: f"binom_series({r})"),
    st.lists(_RATIONAL, min_size=1, max_size=4).map(
        lambda vs: f"coeffs([{','.join(vs)}])"
    ),
)


@lru_cache(maxsize=None)
def _grammar_exprs(depth, budget):
    """Expression text from the grammar, nested at most ``depth`` deep,
    with small literals.  The exponents along any path multiply to at
    most ``budget``: the parser bounds each exponent, but nested powers
    multiply, and ((2^1000)^1000)^1000 already takes about a minute."""
    if depth == 0:
        return _ATOMS
    sub = _grammar_exprs(depth - 1, budget)
    small = min(6, budget)
    power = st.one_of(
        st.integers(-small, small), st.sampled_from([-budget, budget])
    ).flatmap(
        lambda k: _grammar_exprs(depth - 1, budget // max(abs(k), 1)).map(
            lambda e: f"({e})^{k}"
        )
    )
    return st.one_of(
        _ATOMS,
        sub.map(lambda e: f"-({e})"),
        sub.map(lambda e: f"sqrt({e})"),
        st.builds(
            lambda a, op, b: f"({a}){op}({b})",
            sub, st.sampled_from("+-*/"), sub,
        ),
        power,
    )


GRAMMAR_EXPRS = _grammar_exprs(6, EXPR_EXPONENT_LIMIT)


class TestHostileInput:
    """Any expression the grammar accepts, fed to the series commands,
    ends in exit 0, 1 or 2 and lets no exception escape."""

    @given(
        command=st.sampled_from(["matrix", "power", "bseq", "bexpand"]),
        f=GRAMMAR_EXPRS,
        g=GRAMMAR_EXPRS,
        order=st.integers(1, 12),
        phi=st.sampled_from(["0", "1", "-1/2", "3"]),
    )
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_status(self, capsys, command, f, g, order, phi):
        argv = {
            "matrix": ["matrix", f"--f={f}", f"--g={g}", f"--rows={order}"],
            "power": ["power", f"--g={g}", f"--phi={phi}", f"--order={order}"],
            "bseq": ["bseq", f"--f={f}", f"--g={g}", f"--order={order}"],
            "bexpand": ["bexpand", f"--b={g}", f"--n={order - 1}"],
        }[command]
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()

    @given(
        command=st.sampled_from(
            ["aseq", "sqrt-factor", "diag", "comp-poly", "bcomp", "oeis-compare"]
        ),
        f=GRAMMAR_EXPRS,
        g=GRAMMAR_EXPRS,
        order=st.integers(1, 12),
        index=st.integers(-2, 13),
        direction=st.sampled_from(["down", "up"]),
        vendored=st.sampled_from(["A033282", "A090181", "A097724", "A107131"]),
    )
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_other_commands_exit_status(
        self, capsys, command, f, g, order, index, direction, vendored
    ):
        argv = {
            "aseq": ["aseq", f"--g={g}", f"--order={order}"],
            "sqrt-factor": ["sqrt-factor", f"--g={g}", f"--order={order}"],
            "diag": [
                "diag", f"--f={f}", f"--g={g}", f"--rows={order}",
                f"--index={index}", f"--direction={direction}",
            ],
            "comp-poly": ["comp-poly", f"--g={g}", f"--rows={order}"],
            "bcomp": ["bcomp", f"--b={g}", f"--rows={order}"],
            "oeis-compare": [
                "oeis-compare", f"--vendored={vendored}", f"--expr={g}",
                f"--order={order}", f"--min-match={max(order // 2, 1)}",
            ],
        }[command]
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()

    @given(
        text=st.lists(
            st.one_of(
                st.sampled_from(list("x0123456789+-*/^()[],. ")),
                st.sampled_from(
                    ["sqrt", "catalan", "rna", "geom", "coeffs", "binom_series"]
                ),
                st.characters(),
            ),
            max_size=30,
        ).map("".join),
        order=st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_raw_text(self, text, order):
        # Any text either parses or is a ParseError, and a parsed tree
        # either evaluates or is an EvalError.
        try:
            tree = parse_expr(text)
        except ParseError:
            return
        try:
            eval_expr(tree, order)
        except EvalError:
            pass
