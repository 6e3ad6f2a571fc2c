"""Truncated power series: frozen-value oracles and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riordan import (
    ParamPoly,
    Series,
    catalan,
    exp_series,
    from_coeffs,
    geometric,
    one_series,
    x_series,
    zeros,
)
from riordan import _purekernels as kernels
from conftest import S, catalan_oracle, pow_param_oracle, pow_rat_oracle

F = Fraction

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def series(order=8, min_size=0, unit_lead=False, zero_lead=False):
    """Strategy for rational series of a fixed order."""

    def build(cs):
        cs = list(cs)
        if unit_lead:
            cs = [F(1)] + cs
        elif zero_lead:
            cs = [F(0)] + cs
        return Series(cs, order)

    return st.lists(coeff, min_size=min_size, max_size=order - 1).map(build)


class TestConstructionAndAccess:
    def test_length_equals_order(self):
        s = Series([1, 2], 5)
        assert len(s) == 5
        assert list(s.coeffs) == [1, 2, 0, 0, 0]

    def test_truncation_on_long_input(self):
        s = Series([1, 2, 3, 4], 2)
        assert list(s.coeffs) == [1, 2]

    def test_getitem_in_window(self):
        s = Series([1, 2], 4)
        assert s[0] == 1 and s[3] == 0
        with pytest.raises(IndexError):
            s[4]
        with pytest.raises(IndexError):
            s[-1]

    def test_named_constructors(self):
        assert list(geometric(4).coeffs) == [1, 1, 1, 1]
        assert list(x_series(4).coeffs) == [0, 1, 0, 0]
        assert list(one_series(3).coeffs) == [1, 0, 0]
        assert list(zeros(2).coeffs) == [0, 0]
        assert list(exp_series(5).coeffs) == [1, 1, F(1, 2), F(1, 6), F(1, 24)]
        assert list(catalan(8).coeffs) == [1, 1, 2, 5, 14, 42, 132, 429]
        assert list(from_coeffs([1, 2], 4).coeffs) == [1, 2, 0, 0]

    def test_valuation(self):
        assert Series([0, 0, 3], 5).valuation() == 2
        assert zeros(3).valuation() == 3
        assert geometric(3).valuation() == 0

    def test_order_arithmetic_min_rule(self):
        a = Series([1, 1], 6)
        b = Series([1, 1], 4)
        assert (a + b).order == 4
        assert (a * b).order == 4
        assert (a / b).order == 4


class TestShapeOperations:
    def test_truncate_and_pad(self):
        s = Series([1, 2, 3], 3)
        assert s.truncate(2).order == 2
        assert list(s.truncate(2).coeffs) == [1, 2]
        assert s.pad_zeros(5).order == 5
        assert list(s.pad_zeros(5).coeffs) == [1, 2, 3, 0, 0]

    def test_shift_up_drops_head_by_default(self):
        s = Series([1, 2, 3], 3)
        up = s.shift_up(1)
        assert up.order == 3
        assert list(up.coeffs) == [0, 1, 2]

    def test_shift_up_extend_keeps_all_terms(self):
        s = Series([1, 2, 3], 3)
        up = s.shift_up(1, extend=True)
        assert up.order == 4
        assert list(up.coeffs) == [0, 1, 2, 3]

    def test_shift_down_requires_zero_head(self):
        s = Series([0, 1, 2], 3)
        assert list(s.shift_down(1).coeffs) == [1, 2]
        with pytest.raises(ValueError):
            Series([1, 1], 2).shift_down(1)

    def test_alternate_flips_odd_signs(self):
        s = Series([1, 2, 3, 4], 4)
        assert list(s.alternate().coeffs) == [1, -2, 3, -4]

    def test_scale_arg(self):
        s = Series([1, 1, 1], 3)
        assert list(s.scale_arg(2).coeffs) == [1, 2, 4]
        assert list(s.scale_arg(F(1, 2)).coeffs) == [1, F(1, 2), F(1, 4)]


class TestArithmeticOracles:
    def test_mul(self):
        one_plus = S([1, 1], 4)
        one_minus = S([1, -1], 4)
        assert list((one_plus * one_minus).coeffs) == [1, 0, -1, 0]

    def test_scalar_ops(self):
        s = S([1, 2], 3)
        assert list((s * 2).coeffs) == [2, 4, 0]
        assert list((2 * s).coeffs) == [2, 4, 0]
        assert list((s + 1).coeffs) == [2, 2, 0]
        assert list((1 - s).coeffs) == [0, -2, 0]
        assert list((s / 2).coeffs) == [F(1, 2), 1, 0]

    def test_div_geometric(self):
        assert one_series(6) / S([1, -1], 6) == geometric(6)

    def test_div_error_message(self):
        with pytest.raises(ZeroDivisionError, match="zero constant term"):
            one_series(4) / x_series(4)

    def test_rdiv(self):
        assert 1 / S([1, -1], 6) == geometric(6)

    def test_pow(self):
        g = geometric(5)
        assert list((g ** 2).coeffs) == [1, 2, 3, 4, 5]
        assert list((g ** 0).coeffs) == [1, 0, 0, 0, 0]
        assert g ** -1 == S([1, -1], 5)
        with pytest.raises(TypeError):
            g ** F(1, 2)

    def test_catalan_functional_equation(self):
        c = catalan(10)
        assert c == 1 + c * c * x_series(10)

    def test_catalan_closed_form_matches_square_root(self):
        for order in range(1, 65):
            got, want = catalan(order), catalan_oracle(order)
            assert (got.order, got.coeffs) == (want.order, want.coeffs)
        for order in (0, -3):
            with pytest.raises(ValueError):
                catalan(order)

    def test_compose(self):
        c = catalan(8)
        cx2 = c.compose(x_series(8).shift_up(1))  # C(x^2)
        assert list(cx2.coeffs) == [1, 0, 1, 0, 2, 0, 5, 0]

    def test_compose_rejects_nonzero_inner_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            geometric(4).compose(one_series(4))

    def test_revert(self):
        # x/(1-x) and x/(1+x) are compositional inverses.
        f = x_series(6) * geometric(6)
        finv = f.revert()
        assert list(finv.coeffs) == [0, 1, -1, 1, -1, 1]
        assert list(finv.compose(f).coeffs) == [0, 1, 0, 0, 0, 0]

    def test_revert_catalan(self):
        # x(1-x) reverts to xC(x).
        f = Series([0, 1, -1], 8)
        assert f.revert() == x_series(8) * catalan(8)

    def test_revert_requires_valuation_one(self):
        with pytest.raises(ValueError, match="zero constant term"):
            one_series(4).revert()
        with pytest.raises(ZeroDivisionError, match="invertible linear coefficient"):
            Series([0, 0, 1], 4).revert()


class TestCalculus:
    def test_derivative(self):
        s = S([5, 1, 3, 2], 4)
        assert list(s.derivative().coeffs) == [1, 6, 6]

    def test_integral(self):
        s = S([1, 1], 2)
        assert list(s.integral().coeffs) == [0, 1, F(1, 2)]

    def test_round_trip(self):
        s = S([3, 1, 4, 1], 4)
        assert s.integral().derivative() == s


class TestAnalyticOracles:
    def test_sqrt(self):
        r = Series([1, 1], 6).sqrt()
        assert list(r.coeffs) == [
            1, F(1, 2), F(-1, 8), F(1, 16), F(-5, 128), F(7, 256),
        ]
        assert r * r == Series([1, 1], 6)

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            S([4, 1], 3).sqrt()

    def test_log_exp(self):
        lg = geometric(6).log()
        assert list(lg.coeffs) == [0, 1, F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
        assert lg.exp() == geometric(6)
        assert x_series(6).exp() == exp_series(6)

    def test_log_exp_preconditions(self):
        with pytest.raises(ValueError, match="constant term 1"):
            x_series(3).log()
        with pytest.raises(ValueError, match="constant term 0"):
            geometric(3).exp()

    def test_pow_rat(self):
        # (1+x)^(1/2) agrees with exp(log(1+x)/2); (1-4x)^(-1/2) is
        # central binomials.
        s = Series([1, 1], 6)
        assert s.pow_rat(F(1, 2)) == pow_rat_oracle(s, F(1, 2))
        central = Series([1, -4], 6).pow_rat(F(-1, 2))
        assert list(central.coeffs) == [1, 2, 6, 20, 70, 252]

    def test_pow_rat_names_itself(self):
        with pytest.raises(ValueError, match="^pow_rat requires constant term 1$"):
            Series([2, 1], 4).pow_rat(F(1, 2))

    def test_pow_rat_param_exponent(self):
        # a symbolic exponent on a rational series gives g^phi
        g, phi = geometric(6), ParamPoly.param()
        assert g.pow_rat(phi) == pow_rat_oracle(g, phi)

    def test_pow_param_specializes(self):
        g = geometric(7)
        sym = g.pow_param()
        for e in (0, 1, 2, -1, F(1, 2), F(-3, 2)):
            assert sym.eval_param(e) == g.pow_rat(e)

    def test_pow_param_coefficients_are_binomials(self):
        # (1/(1-x))^phi has coefficients binom(phi+n-1, n).
        sym = geometric(5).pow_param()
        p2 = sym[2]
        assert isinstance(p2, ParamPoly)
        assert p2.coeffs == (0, F(1, 2), F(1, 2))  # phi(phi+1)/2


class TestParametricCoefficients:
    def test_param_series_arithmetic(self):
        t = ParamPoly.param()
        s = Series([1, t], 4)
        sq = s * s
        assert sq[1] == 2 * t
        assert sq[2] == t * t

    def test_eval_param(self):
        t = ParamPoly.param()
        s = Series([1, t, t * t], 3)
        assert s.eval_param(3) == S([1, 3, 9], 3)

    def test_is_rational_flag(self):
        assert geometric(3).is_rational()
        assert not Series([1, ParamPoly.param()], 2).is_rational()

    def test_ring_read_inside_the_window(self):
        mixed = Series([1, F(1, 2), ParamPoly.param("t")], 5)
        assert not mixed.is_rational()
        assert [type(c) for c in mixed.coeffs] == [F, F] + [ParamPoly] * 3
        assert mixed[4].symbol == "t"
        # truncation drops the one ParamPoly coefficient
        cut = Series([1, ParamPoly.param()], 1)
        assert cut.is_rational()
        assert [type(c) for c in cut.pad_zeros(3).coeffs] == [F] * 3

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda s: s.pad_zeros(5),
            lambda s: s.shift_up(2, extend=True),
            lambda s: s.integral(),
        ],
        ids=["pad_zeros", "shift_up", "integral"],
    )
    def test_padding_is_the_symbols_zero(self, reshape):
        s = Series([ParamPoly.param("t"), 1], 2)
        pads = [c for c in reshape(s).coeffs if not c]
        assert pads
        assert all(isinstance(c, ParamPoly) and c.symbol == "t" for c in pads)

    def test_param_division(self):
        t = ParamPoly.param()
        s = Series([1, t], 5)
        assert s / s == one_series(5)


class TestEqualityAndDisplay:
    def test_equality_on_common_window(self):
        assert Series([1, 1, 1], 3) == geometric(10)
        assert Series([1, 1, 2], 3) != geometric(10)

    def test_str(self):
        assert str(S([1, 0, F(1, 2)], 4)) == "1 + 1/2*x^2 + O(x^4)"
        assert str(zeros(2)) == "0 + O(x^2)"


class TestAlgebraicProperties:
    @given(series(), series(), series())
    @settings(max_examples=60)
    def test_mul_assoc_distrib(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series(), series())
    @settings(max_examples=60)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(series(unit_lead=True), series(unit_lead=True))
    @settings(max_examples=60)
    def test_div_round_trip(self, a, b):
        assert (a / b) * b == a

    @given(series(unit_lead=True))
    @settings(max_examples=60)
    def test_inverse_round_trip(self, a):
        assert a * a.inverse() == one_series(a.order)

    @given(series(), series(zero_lead=True), series(zero_lead=True))
    @settings(max_examples=40)
    def test_compose_associates(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(series(zero_lead=True, min_size=1).filter(lambda s: s[1] != 0))
    @settings(max_examples=40)
    def test_revert_round_trip(self, f):
        x = x_series(f.order)
        assert f.compose(f.revert()) == x
        assert f.revert().compose(f) == x

    @given(series(unit_lead=True))
    @settings(max_examples=40)
    def test_log_exp_round_trip(self, a):
        assert a.log().exp() == a

    @given(series(unit_lead=True))
    @settings(max_examples=40)
    def test_sqrt_squares_back(self, a):
        r = a.sqrt()
        assert r * r == a

    @given(series(), series(zero_lead=True))
    @settings(max_examples=40)
    def test_compose_is_ring_hom(self, f, g):
        # (f1*f2) o g == (f1 o g)(f2 o g) exercised via f and f+1
        lhs = (f * (f + 1)).compose(g)
        rhs = f.compose(g) * (f.compose(g) + 1)
        assert lhs == rhs


# s = 1 + s_1 x + ... with s_i = p/q, |p| <= 9, q <= 7 (zeros included)
UNIT_ENTRIES = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


class TestPowParamOracle:
    """``pow_param`` is the ``power`` kernel with the bare parameter as
    exponent; the oracle (``conftest``) runs ``exp`` on ``ParamPoly``
    coefficients.  ``test_backend`` also checks it against the columns
    (log s)^m / m! it replaced."""

    @given(
        cs=st.lists(UNIT_ENTRIES, max_size=23),
        order=st.integers(1, 24),
        symbol=st.sampled_from(["phi", "t"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exp_recurrence(self, cs, order, symbol):
        s = Series([1] + cs, order)
        got = s.pow_param(symbol)
        want = pow_param_oracle(s, symbol)
        assert got.order == want.order
        assert [(c.symbol, c.coeffs) for c in got.coeffs] == [
            (c.symbol, c.coeffs) for c in want.coeffs
        ]

    def test_rational_input_does_no_param_poly_arithmetic(self, monkeypatch):
        # pow_param, and pow_rat with a bare, an affine and a quadratic
        # symbolic exponent, all stay in the integer kernel
        exponents = [ParamPoly.param(), ParamPoly((1, F(1, 2))), ParamPoly((0, 0, 1))]
        calls = []
        for name in ("__mul__", "__add__", "__radd__", "__rmul__"):
            real = getattr(ParamPoly, name)

            def counted(self, other, _real=real, _name=name):
                calls.append(_name)
                return _real(self, other)

            monkeypatch.setattr(ParamPoly, name, counted)

        def refuse(*args, **kwargs):
            raise AssertionError("a symbolic power left the integer kernel")

        monkeypatch.setattr(Series, "exp", refuse)
        monkeypatch.setattr(Series, "log", refuse)
        monkeypatch.setattr(kernels, "columns", refuse)
        monkeypatch.setattr(kernels, "generic_power", refuse)
        s = Series([1, F(1, 2), -3, F(2, 7), 5, F(-1, 3)], 12)
        s.pow_param()
        for e in exponents:
            s.pow_rat(e)
        assert calls == []

    def test_pow_param_names_itself(self):
        with pytest.raises(ValueError, match="^pow_param requires constant term 1$"):
            Series([2, 1], 4).pow_param()
