"""Exact coefficient arithmetic: ParamPoly ring and small numeric helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from riordan import (
    ParamPoly,
    Series,
    Triangle,
    b_expand,
    bell_power,
    binomial,
    composition_sum,
    falling_factorial,
    format_rational,
    power_poly,
    rna_series,
)

rationals = st.fractions(
    min_value=-60, max_value=60, max_denominator=12
)


def polys(symbol="phi"):
    return st.lists(rationals, max_size=5).map(
        lambda cs: ParamPoly(cs, symbol)
    )


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        p = ParamPoly([1, 2, 0, 0])
        assert list(p.coeffs) == [1, 2]
        assert p.degree == 1

    def test_zero_polynomial_is_empty(self):
        assert list(ParamPoly([0, 0]).coeffs) == []
        assert not ParamPoly([])
        assert ParamPoly([]).degree == -1

    def test_constructors(self):
        assert ParamPoly.const(Fraction(3, 2)).coeffs == (Fraction(3, 2),)
        assert ParamPoly.param().coeffs == (0, 1)
        assert ParamPoly.param("beta").symbol == "beta"

    def test_constant_value(self):
        assert ParamPoly([]).constant_value() == 0
        assert ParamPoly([7]).constant_value() == 7
        with pytest.raises(ValueError):
            ParamPoly([1, 1]).constant_value()

    def test_coeff_out_of_range_is_zero(self):
        p = ParamPoly([1, 2])
        assert p.coeff(5) == 0
        assert p.coeff(1) == 2


class TestArithmetic:
    def test_add_sub(self):
        p = ParamPoly([1, 2, 3])
        q = ParamPoly([0, 5])
        assert (p + q).coeffs == (1, 7, 3)
        assert (p - q).coeffs == (1, -3, 3)
        assert (p - p).coeffs == ()

    def test_scalar_mix(self):
        p = ParamPoly([1, 1])
        assert (p + 1).coeffs == (2, 1)
        assert (2 - p).coeffs == (1, -1)
        assert (p * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2))
        assert (p / 2).coeffs == (Fraction(1, 2), Fraction(1, 2))

    def test_mul(self):
        p = ParamPoly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p * p * p).coeffs == (1, 3, 3, 1)

    def test_pow(self):
        p = ParamPoly([1, 1])
        assert (p ** 0).coeffs == (1,)
        assert (p ** 4).coeffs == (1, 4, 6, 4, 1)
        with pytest.raises(ValueError):
            p ** -1

    def test_division_by_poly_rejected(self):
        p = ParamPoly([1, 1])
        with pytest.raises(ValueError):
            p / ParamPoly([0, 1])
        with pytest.raises(ZeroDivisionError):
            p / 0

    def test_evaluation(self):
        p = ParamPoly([1, -3, 2])  # 1 - 3t + 2t^2
        assert p(0) == 1
        assert p(1) == 0
        assert p(Fraction(1, 2)) == 0
        assert p(3) == 10

    def test_shift(self):
        p = ParamPoly([0, 0, 1])  # t^2
        assert p.shift(1).coeffs == (1, 2, 1)  # (t+1)^2
        q = ParamPoly([2, 5, 1])
        assert q.shift(-3)(7) == q(4)

    def test_symbol_is_cosmetic_for_equality(self):
        # Polynomials compare by coefficients; the display symbol is a label.
        assert ParamPoly([1, 2], "phi") == ParamPoly([1, 2], "beta")
        assert ParamPoly([1, 2]).with_symbol("beta").symbol == "beta"

    def test_mixed_symbol_arithmetic_rejected(self):
        # Mixing two distinct non-default symbols has no meaning here.
        with pytest.raises(ValueError):
            ParamPoly([0, 1], "phi") * ParamPoly([0, 1], "beta")

    def test_default_symbol_yields(self):
        # A default-symbol operand adopts the other operand's symbol.
        p = ParamPoly.const(2) * ParamPoly([0, 1], "beta")
        assert p.symbol == "beta"


# a name that would render as a broken polynomial: (^3 + )*x^3, 2 x^3
BAD_SYMBOLS = ["", "2 x", "a-b", "1", "phi^2"]


@pytest.mark.parametrize("symbol", BAD_SYMBOLS)
class TestSymbolIsIdentifier:
    """Every route that names the parameter refuses a symbol that is no
    identifier, as the CLI's ``--symbol`` does."""

    def test_constructors(self, symbol):
        for make in (
            lambda: ParamPoly([1, 2], symbol),
            lambda: ParamPoly.const(1, symbol),
            lambda: ParamPoly.param(symbol),
            lambda: ParamPoly([1]).with_symbol(symbol),
        ):
            with pytest.raises(ValueError, match="identifier"):
                make()

    def test_entry_points(self, symbol):
        b = Series([1, 1], 6)
        g = rna_series(6)
        for make in (
            lambda: bell_power(g, symbol),
            lambda: b_expand(b, 3, symbol),
            lambda: power_poly(b, 3, symbol=symbol),
            lambda: composition_sum(b, 3, symbol),
            lambda: Triangle([[1], [2, 3]]).row_poly(1, symbol),
        ):
            with pytest.raises(ValueError, match="identifier"):
                make()


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_add_mul_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(polys(), polys())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys(), polys(), polys())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys())
    def test_identities(self, a):
        one = ParamPoly([1])
        zero = ParamPoly([])
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero

    @given(polys(), rationals)
    def test_evaluation_is_ring_hom(self, a, v):
        b = ParamPoly([0, 1]) * a + 3
        assert b(v) == v * a(v) + 3


class TestNumericHelpers:
    def test_falling_factorial_int(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
        with pytest.raises(ValueError):
            falling_factorial(5, -1)

    def test_falling_factorial_poly(self):
        t = ParamPoly.param()
        p = falling_factorial(t + 2, 3)  # (t+2)(t+1)t
        assert p.coeffs == (0, 2, 3, 1)

    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(5, -1) == 0
        assert binomial(3, 7) == 0

    def test_format_rational(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-7, 2)) == "-7/2"
