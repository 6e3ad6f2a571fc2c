"""End-to-end tests for the command-line interface (in-process)."""

import json

import pytest

from conftest import RNA_BCOMP_ROWS, RNA_MATRIX_ROWS, T
from riordan.cli import main
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
    code = main(list(argv))
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


class TestSequences:
    def test_bseq_rna(self, capsys):
        code, out, _ = run(capsys, "bseq", "--g", "rna", "--order", "12")
        assert code == 0
        assert out == "1 1 1 1 1 1\n"

    def test_bseq_rejects_non_pseudo_involution(self, capsys):
        code, out, err = run(capsys, "bseq", "--g", "catalan")
        assert code == 2
        assert "pseudo-involution" in err

    def test_aseq_catalan(self, capsys):
        code, out, _ = run(capsys, "aseq", "--g", "catalan", "--order", "8")
        assert code == 0
        assert out == "1 1 1 1 1 1 1 1\n"

    def test_aseq_pascal(self, capsys):
        code, out, _ = run(capsys, "aseq", "--g", "geom", "--order", "6")
        assert code == 0
        assert out == "1 1 0 0 0 0\n"


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

    def test_requires_suite_or_all(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2
        assert "need --suite NAME or --all" in err

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
