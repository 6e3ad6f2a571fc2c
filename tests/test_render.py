"""Tests for text/JSON/CSV serialization of triangles, series, polys."""

import json
import sys
from fractions import Fraction

import pytest

from conftest import S, T
from riordan import ParamPoly, Series, Triangle
from riordan.render import (
    FORMATS,
    format_pairs,
    format_poly,
    format_series,
    format_triangle,
    parse_triangle_json,
    triangle_rows,
)

PASCAL = T([[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]])


class TestTriangle:
    def test_text_layout(self):
        assert format_triangle(PASCAL) == "1\n1 1\n1 2 1\n1 3 3 1"

    def test_text_alignment_pads_columns(self):
        tri = T([[1], [10, 1], [100, 2, 1]])
        assert format_triangle(tri) == "1\n10  1\n100 2 1"

    def test_text_fractions(self):
        tri = T([[1], [Fraction(1, 2), 1]])
        assert format_triangle(tri) == "1\n1/2 1"

    def test_json_structure(self):
        doc = json.loads(format_triangle(PASCAL, "json"))
        assert doc == {
            "kind": "triangle",
            "rows": [["1"], ["1", "1"], ["1", "2", "1"], ["1", "3", "3", "1"]],
        }

    def test_json_round_trip(self):
        tri = T([[1], [Fraction(-1, 3), 1], [Fraction(2, 7), 0, 1]])
        assert parse_triangle_json(format_triangle(tri, "json")) == tri

    def test_json_round_trip_pascal(self):
        assert parse_triangle_json(format_triangle(PASCAL, "json")) == PASCAL

    def test_csv(self):
        assert format_triangle(PASCAL, "csv") == "1\n1,1\n1,2,1\n1,3,3,1"

    def test_csv_header(self):
        out = format_triangle(PASCAL, "csv", header=True)
        assert out.splitlines()[0] == "c0,c1,c2,c3"
        assert out.splitlines()[1:] == ["1", "1,1", "1,2,1", "1,3,3,1"]

    def test_parse_rejects_other_documents(self):
        with pytest.raises(ValueError, match="not a triangle document"):
            parse_triangle_json(json.dumps({"kind": "series", "coeffs": []}))

    def test_triangle_rows_are_strings(self):
        assert triangle_rows(T([[1], [Fraction(1, 2), 1]])) == [
            ["1"],
            ["1/2", "1"],
        ]


class TestSeries:
    def test_text(self):
        assert format_series(S([1, 1, 2, 5])) == "1 1 2 5"
        assert format_series(S([Fraction(1, 2), -2])) == "1/2 -2"

    def test_json(self):
        doc = json.loads(format_series(S([1, 0, Fraction(3, 4)]), "json"))
        assert doc == {"kind": "series", "coeffs": ["1", "0", "3/4"]}

    def test_csv(self):
        assert format_series(S([1, 2, 3]), "csv") == "1,2,3"
        out = format_series(S([1, 2, 3]), "csv", header=True)
        assert out == "c0,c1,c2\n1,2,3"


class TestPoly:
    def test_text_is_poly_str(self):
        p = ParamPoly([1, 5, 6, 1], "x")
        assert format_poly(p) == "x^3 + 6*x^2 + 5*x + 1"

    def test_json_sparse(self):
        p = ParamPoly([0, Fraction(9, 4), 0, Fraction(1, 4)], "x")
        assert json.loads(format_poly(p, "json")) == {
            "poly": {"1": "9/4", "3": "1/4"}
        }

    def test_json_zero_poly(self):
        assert json.loads(format_poly(ParamPoly((), "x"), "json")) == {
            "poly": {"0": "0"}
        }

    def test_csv(self):
        p = ParamPoly([2, 0, Fraction(-1, 3)], "x")
        assert format_poly(p, "csv") == "0,2\n2,-1/3"
        assert format_poly(p, "csv", header=True) == (
            "exponent,coefficient\n0,2\n2,-1/3"
        )

    def test_csv_zero_poly(self):
        assert format_poly(ParamPoly((), "x"), "csv") == "0,0"


class TestPairs:
    PAIRS = [("h", S([1, 0, 1])), ("s", S([0, 1]))]

    def test_text(self):
        assert format_pairs(self.PAIRS) == "h: 1 0 1\ns: 0 1"

    def test_json(self):
        doc = json.loads(format_pairs(self.PAIRS, "json"))
        assert doc == {
            "kind": "labelled-series",
            "series": {"h": ["1", "0", "1"], "s": ["0", "1"]},
        }

    def test_csv(self):
        assert format_pairs(self.PAIRS, "csv") == "h,1,0,1\ns,0,1"


def test_format_names():
    assert FORMATS == ("text", "json", "csv")


@pytest.mark.parametrize("fmt", FORMATS)
def test_oversized_coefficient_is_one_line(fmt):
    # 2^15000 has 4516 digits, over Python's default 4300-digit limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = Fraction(1, 2**15000)
        for render in (
            lambda: format_triangle(T([[1], [big, 1]]), fmt),
            lambda: format_series(S([1, big]), fmt),
            lambda: format_poly(ParamPoly([1, big]), fmt),
            lambda: format_pairs([("h", S([big]))], fmt),
        ):
            with pytest.raises(ValueError) as exc:
                render()
            assert str(exc.value) == (
                "a coefficient of about 4516 digits is over"
                " the 4300-digit output limit"
            )
    finally:
        sys.set_int_max_str_digits(limit)
