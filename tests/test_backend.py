"""The kernel layer: one module, integer routines for ``Fraction``
coefficients, tested for exact equality against the generic loops."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import riordan
from riordan import ParamPoly, RiordanMatrix, Series, geometric
from riordan import _purekernels as kernels
from riordan._backend import backend_name

from conftest import (
    composition_columns_oracle,
    exp_oracle,
    pow_param_columns_oracle,
    pow_param_oracle,
    pow_rat_oracle,
    power_columns_oracle,
    sqrt_oracle,
)

F = Fraction
PZERO = ParamPoly(())

small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# numerators and denominators near 2^200, both signs
huge = st.builds(
    Fraction,
    st.integers(-(2**201), 2**201),
    st.integers(2**199, 2**201),
)
zero = st.just(F(0))
coeff = st.one_of(small, huge, zero)


def coeffs(n, elements=coeff):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def operands(draw):
    """A length from 1 to 40 and two coefficient lists of that length;
    the first may be all zeros, and zeros are drawn often in both."""
    n = draw(st.integers(1, 40))
    a, b = draw(coeffs(n)), draw(coeffs(n))
    if draw(st.booleans()) and draw(st.booleans()):
        a = [F(0)] * n
    return n, a, b


def nonzero(elements):
    return elements.filter(bool)


@st.composite
def inner_series(draw, max_len, elements, min_len=2):
    """Length n and a series with zero constant term and a nonzero x
    coefficient; in some draws it is zero beyond x."""
    n = draw(st.integers(min_len, max_len))
    f = [F(0), draw(nonzero(elements))] + draw(coeffs(max(n - 2, 0), elements))
    if draw(st.booleans()) and draw(st.booleans()):
        f[2:] = [F(0)] * (n - 2)
    return n, f[:n]


# one ParamPoly case per kernel: (arguments, length)
A_PARAM = [ParamPoly(c) for c in ((1, 1), (0, 2), (3,), (F(1, 2), 0, -1))]
B_PARAM = [ParamPoly(c) for c in ((2,), (1, -1), (0, 0, 1), (5,))]
X_PARAM = [ParamPoly(c) for c in ((), (-3,), (1, -1), (0, 0, 1))]
PARAM_CASES = {
    "mul": ((A_PARAM, B_PARAM), 4),
    "div": ((A_PARAM, B_PARAM), 4),
    "compose": ((A_PARAM, X_PARAM), 4),
    "revert": ((X_PARAM,), 4),
}


class TestSelection:
    def test_backend_name(self):
        assert backend_name() == "pure"
        assert riordan.backend_name is backend_name
        assert riordan._backend.kernels is kernels

    def test_pure_backend_computes_same_triangle(self):
        # Pascal's triangle through the integer kernels, and through the
        # generic loops on constant ParamPoly coefficients.
        rational = RiordanMatrix(geometric(8), geometric(8)).triangle()
        g = Series([ParamPoly((1,))] * 8, 8)
        generic = RiordanMatrix(g, g).triangle()
        assert [[p(0) for p in row] for row in generic.rows] == [
            list(row) for row in rational.rows
        ]


class TestKernelAgreement:
    """Each kernel on ``Fraction`` inputs equals the generic loop on the
    same inputs, and ``ParamPoly`` inputs still take the generic loop."""

    @given(operands())
    @settings(max_examples=40, deadline=None)
    def test_mul(self, case):
        n, a, b = case
        assert kernels.mul(a, b, n) == kernels.generic_mul(a, b, n)

    @given(operands(), st.one_of(st.just(F(1)), st.just(F(-1)), nonzero(coeff)))
    @settings(max_examples=40, deadline=None)
    def test_div(self, case, b0):
        # b0 ranges over +-1 and arbitrary units, huge ones included
        n, a, b = case
        b[0] = b0
        assert kernels.div(a, b, n) == kernels.generic_div(a, b, n)

    def test_div_by_zero_constant(self):
        for a, b, z in (
            ([F(1), F(2)], [F(0), F(1)], F(0)),
            (A_PARAM[:2], X_PARAM[:2], PZERO),
        ):
            with pytest.raises(ZeroDivisionError, match="zero constant term"):
                kernels.div(a, b, 2, z)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose(self, data):
        n, inner = data.draw(inner_series(12, coeff, min_len=1))
        a = data.draw(coeffs(n))
        assert kernels.compose(a, inner, n) == kernels.generic_compose(a, inner, n)

    def test_compose_huge_denominators(self):
        a = [F(3**k, 2**200 + k) * (-1) ** k for k in range(10)]
        inner = [F(0), F(-(2**200) + 7, 3)] + [F(k, 2**199 + 1) for k in range(8)]
        assert kernels.compose(a, inner, 10) == kernels.generic_compose(a, inner, 10)

    def test_compose_guard(self):
        for a, b, z in (
            ([F(1), F(2)], [F(1), F(1)], F(0)),
            (A_PARAM[:2], B_PARAM[:2], PZERO),
        ):
            with pytest.raises(ValueError, match="zero constant term"):
                kernels.compose(a, b, 2, z)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_revert(self, data):
        # f1 ranges over +-1 and arbitrary units
        n, f = data.draw(inner_series(14, st.one_of(small, zero)))
        f[1] = data.draw(st.one_of(st.just(F(1)), st.just(F(-1)), nonzero(small)))
        assert kernels.revert(f, n) == kernels.generic_revert(f, n)

    def test_revert_huge_denominators(self):
        f = [F(0), F(2**200 + 1, 3**90)] + [
            F((-1) ** k * k, 2**200 - k) for k in range(2, 12)
        ]
        assert kernels.revert(f, 12) == kernels.generic_revert(f, 12)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_revert_round_trip(self, data):
        n, f = data.draw(inner_series(16, coeff))
        x = [F(0), F(1)] + [F(0)] * (n - 2)
        assert kernels.compose(f, kernels.revert(f, n), n) == x

    @pytest.mark.parametrize("name", sorted(PARAM_CASES))
    def test_param_coefficients_take_generic_path(self, name):
        # evaluated at phi, the generic result equals the integer
        # routine's on the evaluated coefficients
        args, n = PARAM_CASES[name]
        fn = getattr(kernels, name)
        got = fn(*args, n, PZERO)
        for phi in (F(0), F(2), F(-1, 3)):
            at_phi = [[c(phi) for c in arg] for arg in args]
            assert [c(phi) for c in got] == fn(*at_phi, n)

    def test_revert_guards(self):
        for z, one, nil in ((F(0), F(1), F(0)), (PZERO, ParamPoly((1,)), PZERO)):
            with pytest.raises(ValueError, match="zero constant term"):
                kernels.revert([one, one], 2, z)
            with pytest.raises(
                ZeroDivisionError, match="invertible linear coefficient"
            ):
                kernels.revert([nil, nil, one], 3, z)


BETAS = st.sampled_from([None, 0, 1, F(-2, 3), F(3, 2)])


def exact(cols):
    """Columns with each coefficient's type and symbol, so that 1 and
    Fraction(1), or two symbols, tell apart."""
    return [[(type(c), getattr(c, "symbol", None), c) for c in col] for col in cols]


def assert_reduced_pairs(pairs, cols):
    """The integer pairs (nums, den) behind rational columns are reduced,
    over a positive denominator, and read as ``Fraction`` give ``cols``."""
    pairs = list(pairs)
    assert all(den > 0 and gcd(den, *nums) == 1 for nums, den in pairs)
    assert [[F(c, den) for c in nums] for nums, den in pairs] == cols


@st.composite
def column_operands(draw):
    """A length from 1 to 40, a coefficient list of that length (all
    zeros in some draws), a column count up to twice the length and a
    beta."""
    size = draw(st.integers(1, 40))
    a = draw(coeffs(size))
    if draw(st.booleans()) and draw(st.booleans()):
        a = [F(0)] * size
    return a, draw(st.integers(0, 2 * size)), draw(BETAS)


class TestColumns:
    """The packed ``columns`` kernel against ``generic_columns`` and
    against the two column loops it replaced (``conftest``)."""

    @given(column_operands())
    @settings(max_examples=40, deadline=None)
    def test_packed_equals_generic(self, case):
        a, n, beta = case
        got = kernels.columns(a, n, beta)
        assert len(got) == n
        want = kernels.generic_columns(a, n, beta)
        assert exact(got) == exact(want)
        assert_reduced_pairs(kernels._column_pairs(a, n, beta), want)

    @given(column_operands())
    @settings(max_examples=40, deadline=None)
    def test_powers_against_oracle(self, case):
        a, n, _ = case
        want = power_columns_oracle(Series(a), max(n, 1))[:n]
        assert exact(kernels.columns(a, n)) == exact(c.coeffs for c in want)

    @given(column_operands(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_zero_heads(self, case, v):
        # a of valuation >= v: column m vanishes below row m v, and only
        # its tail is multiplied
        a, n, beta = case
        a = ([F(0)] * v + a)[:len(a)]
        got = kernels.columns(a, n, beta)
        assert exact(got) == exact(kernels.generic_columns(a, n, beta))
        want = power_columns_oracle(Series(a), max(n, 1))[:n]
        assert exact(kernels.columns(a, n)) == exact(c.coeffs for c in want)

    @given(column_operands(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition_against_oracle(self, case, data):
        b, _, beta = case
        beta = 1 if beta is None else beta
        n = data.draw(st.integers(1, len(b) + 1))
        want = composition_columns_oracle(Series(b), n, beta)
        got = kernels.columns(([F(0)] + b)[:n], n, beta)
        assert exact(got) == exact(c.coeffs for c in want)
        pairs = kernels._column_pairs(([F(0)] + b)[:n], n, beta)
        assert_reduced_pairs(pairs, [list(c.coeffs) for c in want])

    @pytest.mark.parametrize("beta", [None, 1, F(-2, 3)])
    def test_param_coefficients(self, beta):
        # the ring route against the oracles' ring arithmetic
        b = Series(A_PARAM)
        if beta is None:
            got = kernels.columns(A_PARAM, 7, None, PZERO)
            want = power_columns_oracle(b, 7)
        else:
            got = kernels.columns([PZERO] + A_PARAM, 5, beta, PZERO)
            want = composition_columns_oracle(b, 5, beta)
        assert exact(got) == exact(c.coeffs for c in want)


# denominator of coefficient k, by family
PRIMES = (2, 3, 5, 7, 11, 13)
DENOMINATORS = {
    "integer": lambda k: 1,
    "bounded": lambda k: 1 + k % 16,
    "harmonic": lambda k: k,
    "dyadic": lambda k: 2**k,
    "mixed-prime": lambda k: PRIMES[k % 6] * PRIMES[k * k % 6] ** (k % 3),
}
EXPONENTS = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2), F(-1, 2), F(2, 3), F(-3), F(7, 5)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)


@st.composite
def graded(draw, head, max_len=40):
    """A length from 1 to ``max_len`` and a series with constant term
    ``head`` whose coefficient k is an integer from -9 to 9 (zero in about
    a third of the draws) over the denominator of a family drawn from
    ``DENOMINATORS``."""
    n = draw(st.integers(1, max_len))
    den = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    nums = draw(coeffs(n - 1, st.one_of(st.integers(-9, 9), st.just(0))))
    return n, [F(head)] + [F(c, den(k)) for k, c in enumerate(nums, 1)]


class TestMillerKernels:
    """The ``exp`` and ``power`` kernels against the ring loops they
    replaced (``conftest``): exp, sqrt, and pow_rat as exp(e log)."""

    @given(graded(0))
    @settings(max_examples=60, deadline=None)
    def test_exp_against_oracle(self, case):
        n, a = case
        assert exact([kernels.exp(a, n)]) == exact([exp_oracle(Series(a)).coeffs])

    @given(graded(1), EXPONENTS)
    @settings(max_examples=60, deadline=None)
    def test_power_against_oracle(self, case, e):
        n, a = case
        want = pow_rat_oracle(Series(a), e).coeffs
        assert exact([kernels.power(a, n, e)]) == exact([want])

    @given(graded(1))
    @settings(max_examples=40, deadline=None)
    def test_half_power_against_sqrt_oracle(self, case):
        n, a = case
        want = sqrt_oracle(Series(a)).coeffs
        assert exact([kernels.power(a, n, F(1, 2))]) == exact([want])

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_param_coefficients(self, n, data):
        # ParamPoly coefficients of degree up to 2, zero in some draws
        poly = st.lists(small, max_size=3).map(ParamPoly)
        tail = data.draw(st.lists(poly, min_size=n - 1, max_size=n - 1))
        x = [PZERO] + tail
        want = exp_oracle(Series(x)).coeffs
        assert exact([kernels.exp(x, n, PZERO)]) == exact([want])
        a, e = [ParamPoly((1,))] + tail, data.draw(EXPONENTS)
        want = pow_rat_oracle(Series(a), e).coeffs
        assert exact([kernels.power(a, n, e, PZERO)]) == exact([want])

    @given(graded(1, max_len=12))
    @settings(max_examples=30, deadline=None)
    def test_param_exponent(self, case):
        n, a = case
        phi = ParamPoly.param()
        want = pow_rat_oracle(Series(a), phi).coeffs
        assert exact([kernels.power(a, n, phi, PZERO)]) == exact([want])
        assert exact([Series(a).pow_rat(phi).coeffs]) == exact([want])

    def test_zero_exponent_and_order_one(self):
        a = [F(1), F(3, 2), F(0), F(-5, 7)]
        assert kernels.power(a, 4, F(0)) == [1, 0, 0, 0]
        assert exact([kernels.power(a[:1], 1, F(2, 3))]) == exact([[F(1)]])
        assert exact([kernels.exp([F(0)], 1)]) == exact([[F(1)]])
        assert exact([kernels.exp([PZERO], 1, PZERO)]) == exact([[ParamPoly((1,))]])

    def test_guards(self):
        with pytest.raises(ValueError, match="exp requires constant term 0"):
            kernels.exp([F(1), F(1)], 2)
        with pytest.raises(ValueError, match="power requires constant term 1"):
            kernels.power([F(2), F(1)], 2, F(1, 2))


PHI = ParamPoly.param()
# the bare parameter, an affine and a quadratic exponent
NAMED_PARAM_EXPONENTS = [PHI, ParamPoly((1, F(1, 2))), ParamPoly((0, 0, 1))]
PARAM_EXPONENTS = st.one_of(
    st.sampled_from(
        NAMED_PARAM_EXPONENTS
        + [ParamPoly(()), ParamPoly((-1,)), ParamPoly((F(-2, 3),))]
        + [ParamPoly((F(1, 3), -2, F(5, 7)), "t")]
    ),
    st.builds(ParamPoly, st.lists(small, max_size=3), st.sampled_from(["phi", "t"])),
)


def generic_param_power(a, n, e):
    return kernels.generic_power(a, n, e, ParamPoly((), e.symbol))


class TestParamExponent:
    """The ``power`` kernel with a ``ParamPoly`` exponent on a rational
    series, which runs on packed integer polynomials, against
    ``generic_power`` on a ``ParamPoly`` zero; ``Series.pow_param``
    against both of its oracles (``conftest``)."""

    @given(graded(1), PARAM_EXPONENTS)
    @settings(max_examples=80, deadline=None)
    def test_against_generic_power(self, case, e):
        n, a = case
        assert exact([kernels.power(a, n, e)]) == exact([generic_param_power(a, n, e)])

    @given(graded(1, max_len=24), st.sampled_from(["phi", "t"]))
    @settings(max_examples=40, deadline=None)
    def test_pow_param_against_oracles(self, case, symbol):
        n, a = case
        s = Series(a)
        got = exact([s.pow_param(symbol).coeffs])
        assert got == exact([pow_param_oracle(s, symbol).coeffs])
        assert got == exact([pow_param_columns_oracle(s, symbol).coeffs])

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=30, deadline=None)
    def test_huge_coefficients(self, n, data):
        # numerators and denominators near 2^200 outgrow the first digit
        # width at once
        a = [F(1)] + data.draw(coeffs(n - 1, st.one_of(small, huge, zero)))
        e = data.draw(st.sampled_from(NAMED_PARAM_EXPONENTS))
        assert exact([kernels.power(a, n, e)]) == exact([generic_param_power(a, n, e)])

    @pytest.mark.parametrize(
        "e", NAMED_PARAM_EXPONENTS, ids=["phi", "1+phi/2", "phi^2"]
    )
    def test_widens_mid_run(self, monkeypatch, e):
        # small terms first, then a coefficient near 2^200 at x^7: the
        # digit width grows after N_0 .. N_6 are stored, which are repacked
        a = [F(1), F(1, 2), F(-3), F(2, 5), F(0), F(1), F(-1, 7)]
        a += [F(2**200 + 1, 3**120), F(5), F(-(2**199), 7), F(0), F(1, 11)]
        want = generic_param_power(a, len(a), e)
        sizes = []
        real = kernels._pack

        def spy(v, size, half):
            sizes.append(size)
            return real(v, size, half)

        monkeypatch.setattr(kernels, "_pack", spy)
        got = kernels.power(a, len(a), e)
        assert exact([got]) == exact([want])
        # one width packed u and at least N_0 .. N_6
        assert max(sizes.count(size) for size in sizes) >= 8

    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 15, 16, 17, 63, 64, 200])
    def test_digit_width_holds_its_bound(self, bits):
        # digits up to 2^bits - 1 of either sign round-trip at the width
        # the kernels choose for them
        size = kernels._digit_size(bits)
        half = 1 << (8 * size - 1)
        top = (1 << bits) - 1
        digits = [top, -top, 0, -top, 1, top]
        packed = kernels._pack(digits, size, half)
        assert kernels._unpack(packed, len(digits), size, half) == digits

    def test_digit_bound_without_slack(self):
        # at e = -1, u = e + 1 = 0 and every term of step k has the factor
        # -k, so the digits of a step can reach the top bit of their
        # bound: a width that admits one bit fewer corrupts a digit here
        a = [F(1), F(63), F(0), F(0), F(-3, 16)]
        e = ParamPoly((-1,))
        assert exact([kernels.power(a, 5, e)]) == exact([generic_param_power(a, 5, e)])

    def test_orders_one_and_two(self):
        t = ParamPoly.param("t")
        assert exact([kernels.power([F(1)], 1, t)]) == exact([[ParamPoly((1,), "t")]])
        # (1 + 3x/2)^(1 + t/2) = 1 + (3/2 + 3t/4) x + O(x^2)
        got = kernels.power([F(1), F(3, 2)], 2, ParamPoly((1, F(1, 2)), "t"))
        want = [ParamPoly((1,), "t"), ParamPoly((F(3, 2), F(3, 4)), "t")]
        assert exact([got]) == exact([want])
        for order in (1, 2):
            s = Series([1, F(-2, 5)], order)
            assert exact([s.pow_param().coeffs]) == exact([pow_param_oracle(s).coeffs])
