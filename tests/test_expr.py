"""Tests for the expression parser, evaluator, and renderer."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import S
from riordan import binomial_series, catalan, geometric, rna_series
from riordan.exprparse import (
    EXPR_DEPTH_LIMIT,
    EXPR_EXPONENT_LIMIT,
    BinOp,
    CoeffList,
    EvalError,
    Lit,
    NamedSeries,
    Neg,
    ParseError,
    Pow,
    Sqrt,
    Var,
    eval_expr,
    parse_expr,
    render_expr,
)


def ev(text, order=8):
    return eval_expr(parse_expr(text), order)


class TestParse:
    def test_atoms(self):
        assert parse_expr("42") == Lit(Fraction(42))
        assert parse_expr("  x  ") == Var()
        assert parse_expr("catalan") == NamedSeries("catalan")
        assert parse_expr("rna") == NamedSeries("rna")
        assert parse_expr("geom") == NamedSeries("geom")
        assert parse_expr("binom_series(3)") == NamedSeries("binom_series", 3)
        assert parse_expr("coeffs([1,-2,3/4])") == CoeffList(
            (Fraction(1), Fraction(-2), Fraction(3, 4))
        )

    def test_precedence(self):
        assert parse_expr("1+2*x") == BinOp(
            "+", Lit(Fraction(1)), BinOp("*", Lit(Fraction(2)), Var())
        )
        assert parse_expr("(1+x)^2") == Pow(
            BinOp("+", Lit(Fraction(1)), Var()), 2
        )
        # unary minus binds looser than the power
        assert parse_expr("-x^2") == Neg(Pow(Var(), 2))
        assert parse_expr("--x") == Neg(Neg(Var()))

    def test_left_associativity(self):
        assert parse_expr("1-2-3") == BinOp(
            "-", BinOp("-", Lit(Fraction(1)), Lit(Fraction(2))), Lit(Fraction(3))
        )
        assert parse_expr("8/2/x") == BinOp(
            "/", BinOp("/", Lit(Fraction(8)), Lit(Fraction(2))), Var()
        )

    def test_signed_exponent(self):
        assert parse_expr("(1-x)^-1") == Pow(
            BinOp("-", Lit(Fraction(1)), Var()), -1
        )

    def test_nested_functions(self):
        assert parse_expr("sqrt(1+x)") == Sqrt(BinOp("+", Lit(Fraction(1)), Var()))
        assert parse_expr("sqrt(sqrt(1+x))") == Sqrt(
            Sqrt(BinOp("+", Lit(Fraction(1)), Var()))
        )

    def test_redundant_parens_collapse(self):
        assert parse_expr("((x))") == Var()
        assert parse_expr("(catalan)") == NamedSeries("catalan")


class TestParseErrors:
    def test_truncated_input(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1+")
        assert exc.value.offset == 2
        assert str(exc.value).startswith("syntax error at byte 2: expected ")
        assert "integer" in exc.value.expected
        assert "x" in exc.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 2")
        assert exc.value.offset == 2
        assert exc.value.expected == ("end of input", "operator")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("(1+x")
        assert exc.value.offset == 4
        assert exc.value.expected == (")",)

    def test_unknown_name(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + fib")
        assert exc.value.offset == 4
        assert "catalan" in exc.value.expected

    def test_illegal_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 @ 2")
        assert exc.value.offset == 2
        assert exc.value.expected == ("operand", "operator")

    def test_non_ascii_offset_counts_bytes(self):
        # The offset is a byte offset into the UTF-8 encoding.
        with pytest.raises(ParseError) as exc:
            parse_expr("12é")  # "12é"
        assert exc.value.offset == 2
        with pytest.raises(ParseError) as exc:
            parse_expr("xé")
        assert exc.value.offset == 1

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("coeffs([1/0])")
        assert exc.value.offset == 10
        assert exc.value.expected == ("nonzero denominator",)

    def test_coeffs_requires_brackets(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("coeffs(1,2)")
        assert exc.value.offset == 7
        assert exc.value.expected == ("[",)

    def test_depth_limit(self):
        # Trees exactly EXPR_DEPTH_LIMIT deep parse, one level more fails;
        # parentheses nest at most EXPR_DEPTH_LIMIT deep.
        deep = EXPR_DEPTH_LIMIT
        for ok, bad in [
            ("x" + "+x" * (deep - 1), "x" + "+x" * deep),
            ("-" * (deep - 1) + "x", "-" * deep + "x"),
            ("x" + "^2" * (deep - 1), "x" + "^2" * deep),
            ("sqrt(" * (deep - 1) + "x)" + ")" * (deep - 2),
             "sqrt(" * deep + "x)" + ")" * (deep - 1)),
            ("(" * deep + "x" + ")" * deep, "(" * (deep + 1) + "x" + ")" * (deep + 1)),
        ]:
            tree = parse_expr(ok)
            assert parse_expr(render_expr(tree)) == tree
            with pytest.raises(ParseError) as exc:
                parse_expr(bad)
            assert exc.value.expected == (
                f"at most {EXPR_DEPTH_LIMIT} levels of nesting",
            )

    def test_exponent_limit(self):
        # |exponent| <= EXPR_EXPONENT_LIMIT parses; a larger one fails at
        # the exponent's first byte (its sign, if any).
        k = EXPR_EXPONENT_LIMIT
        assert parse_expr(f"x^{k}") == Pow(Var(), k)
        assert parse_expr(f"x^-{k}") == Pow(Var(), -k)
        for bad, offset in [
            (f"x^{k + 1}", 2),
            (f"(1+x)^-{k + 1}", 6),
            (f"x^2^{10 ** 9}", 4),
            (f"  x ^ {k + 1}", 6),
        ]:
            with pytest.raises(ParseError) as exc:
                parse_expr(bad)
            assert exc.value.offset == offset
            assert exc.value.expected == (f"|exponent| <= {k}",)

    def test_power_needs_integer(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x^x")
        assert exc.value.offset == 2
        assert exc.value.expected == ("integer",)


class TestEval:
    def test_named_series(self):
        assert ev("geom") == geometric(8)
        assert ev("catalan") == catalan(8)
        assert ev("rna", 7) == rna_series(7)
        assert list(ev("rna", 7).coeffs) == [1, 1, 1, 2, 4, 8, 17]
        assert ev("binom_series(3)") == binomial_series(3, 8)

    def test_atoms(self):
        assert ev("5", 3) == S([5, 0, 0])
        assert ev("x", 4) == S([0, 1, 0, 0])
        assert ev("x", 1) == S([0])

    def test_arithmetic(self):
        assert ev("1/(1-x)") == geometric(8)
        assert ev("2/(1+sqrt(1-4*x))") == catalan(8)
        assert ev("(1+x)^3", 5) == S([1, 3, 3, 1, 0])
        assert ev("coeffs([1,1])^3", 5) == S([1, 3, 3, 1, 0])
        assert ev("geom/geom") == S([1] + [0] * 7)
        assert ev("-x+x", 4) == S([0, 0, 0, 0])
        assert ev("(1-x)^-1") == geometric(8)

    def test_coeff_list_window(self):
        assert ev("coeffs([1,2,3])", 6) == S([1, 2, 3, 0, 0, 0])
        assert ev("coeffs([1,2,3,4,5])", 3) == S([1, 2, 3])
        assert ev("coeffs([1/2,-1/3])", 3) == S(
            [Fraction(1, 2), Fraction(-1, 3), 0]
        )

    def test_division_by_zero_constant(self):
        with pytest.raises(EvalError, match="zero constant term"):
            ev("1/x")
        with pytest.raises(EvalError, match="zero constant term"):
            ev("x^-1")

    def test_sqrt_precondition(self):
        with pytest.raises(EvalError, match="constant term 1"):
            ev("sqrt(2+x)")

    def test_order_guard(self):
        with pytest.raises(EvalError, match="order must be at least 1"):
            ev("x", 0)

    def test_binom_series_degree_guard(self):
        with pytest.raises(EvalError, match="at least 1"):
            ev("binom_series(0)")


    @pytest.fixture
    def digit_limit(self):
        """Set Python's int -> str digit limit; restore it afterwards."""
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    def test_power_digit_limit(self, digit_limit):
        # 10^999 has 1000 digits, 10^1000 has 1001; denominators count too.
        digit_limit(1000)
        assert ev("10^999", 2)[0] == 10**999
        assert ev("(1/10)^999", 2)[0] == Fraction(1, 10**999)
        for text in ("10^1000", "(1/10)^1000", "(10^500)^2"):
            with pytest.raises(EvalError, match="more than 1000 digits"):
                ev(text, 2)
        # Only a power is checked: a product is left to the renderer.
        assert ev("10^999*10", 2)[0] == 10**1000

    def test_power_digit_limit_off(self, digit_limit):
        digit_limit(0)
        assert ev("(10^1000)^5", 2)[0] == 10**5000

# Expressions that parse, render, and evaluate without error.
CORPUS = [
    "0",
    "7",
    "x",
    "-x",
    "--x",
    "1+x",
    "1-x",
    "1+2*x",
    "(1+x)*(1-x)",
    "(1+x)^2",
    "(1-x)^-2",
    "x*x*x",
    "1-x-x",
    "8/2/(1-x)",
    "1/(1-x)",
    "1/(1-x-x^2)",
    "2/(1+sqrt(1-4*x))",
    "sqrt(1+x)",
    "sqrt(sqrt(1+4*x))",
    "sqrt(1-6*x+x^2)",
    "-(1+x)",
    "-(1+x)^3",
    "-1*(2-x)",
    "catalan",
    "rna",
    "geom",
    "catalan*catalan",
    "catalan^2-catalan",
    "x*catalan^2+1",
    "geom*(1-x)",
    "geom-rna",
    "binom_series(1)",
    "binom_series(2)",
    "binom_series(3)^5",
    "binom_series(4)*geom",
    "coeffs([1])",
    "coeffs([1,1])",
    "coeffs([1,-2,3/4])",
    "coeffs([-1/2,0,5])",
    "coeffs([1,1])^3*coeffs([1,-1])",
    "coeffs([1,2,1])/coeffs([1,1])",
    "(1+x)/(1-x)",
    "(1+x)/(1-x)-(1-x)/(1+x)",
    "sqrt((1+x)/(1-x))",
    "1+x+x^2+x^3",
    "sqrt(1-4*x^2)",
    "1/(1-x*catalan)",
    "sqrt(1+x^2)+x",
    "rna^2*(1-x)",
    "-geom+1/(1-x)",
    "(coeffs([1,0,1])-1)^2",
]


class TestRenderRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_render_parse(self, text):
        tree = parse_expr(text)
        rendered = render_expr(tree)
        assert parse_expr(rendered) == tree
        # canonical form is a fixed point
        assert render_expr(parse_expr(rendered)) == rendered

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_preserves_value(self, text):
        tree = parse_expr(text)
        assert eval_expr(parse_expr(render_expr(tree)), 9) == eval_expr(tree, 9)

    def test_canonical_spacing(self):
        assert render_expr(parse_expr("1 + 2 * x")) == "1+2*x"
        assert render_expr(parse_expr("((x))")) == "x"
        assert render_expr(parse_expr("(1+x)^2")) == "(1+x)^2"
        assert render_expr(parse_expr("1-(2-x)")) == "1-(2-x)"
        assert render_expr(parse_expr("(1*2)*x")) == "1*2*x"


def exprs():
    atoms = st.one_of(
        st.integers(min_value=0, max_value=99).map(lambda v: Lit(Fraction(v))),
        st.just(Var()),
        st.sampled_from(["catalan", "rna", "geom"]).map(NamedSeries),
        st.integers(min_value=1, max_value=5).map(
            lambda r: NamedSeries("binom_series", r)
        ),
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            min_size=1,
            max_size=4,
        ).map(lambda vs: CoeffList(tuple(vs))),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            children.map(Sqrt),
            st.tuples(
                st.sampled_from("+-*/"), children, children
            ).map(lambda t: BinOp(*t)),
            st.tuples(
                children, st.integers(min_value=-6, max_value=6)
            ).map(lambda t: Pow(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


class TestRenderRoundTripProperty:
    @given(exprs())
    def test_random_trees_round_trip(self, tree):
        assert parse_expr(render_expr(tree)) == tree
