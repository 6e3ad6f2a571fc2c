"""Matrix logarithms and parametric powers of Bell pairs (g, xg)."""

from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from riordan import (
    RiordanMatrix,
    ParamPoly,
    Series,
    Triangle,
    bell_log,
    bell_power,
    catalan,
    composition_matrix,
    composition_sum,
    from_b_sequence,
    geometric,
    log_generator,
    one_series,
    rna_series,
    x_series,
)
from conftest import (
    S,
    bell_log_oracle,
    bell_power_oracle,
    composition_matrix_oracle,
    composition_sum_oracle,
    generic_log_generator,
    integer_columns_oracle,
    log_generator_oracle,
    riordan_triangle_oracle,
    ring_series,
    rows_of,
    triangle_exp,
)
from riordan import matrixlog
from riordan._backend import kernels

F = Fraction

# Row-by-row fixture for the composition-polynomial matrix of the RNA
# series, reproduced independently from the closed partition formula.
L_RNA_ROWS = [
    [1],
    [0, 1],
    [0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 3, 0, 1],
    [0, 1, 0, 6, 0, 1],
    [0, 0, 6, 0, 10, 0, 1],
    [0, 1, 0, 20, 0, 15, 0, 1],
    [0, 0, 10, 0, 50, 0, 21, 0, 1],
    [0, 1, 0, 50, 0, 105, 0, 28, 0, 1],
    [0, 0, 15, 0, 175, 0, 196, 0, 36, 0, 1],
]


def legendre_generating_series(order, phi):
    """1/sqrt(1 - 2 phi x sqrt(1-x^2) + phi^2 x^2), exactly."""
    t = Series([1, 0, -1], order).sqrt()
    inner = 1 - 2 * phi * x_series(order) * t + phi * phi * x_series(order) ** 2
    return inner.pow_rat(F(-1, 2))


def legendre_pair(order):
    """The conjugated-Pascal pair whose powers share one closed form."""
    a = Series([1, 0, -1], order).pow_rat(F(-1, 2))
    ainv = Series([1, 0, 1], order).pow_rat(F(-1, 2))
    conj = RiordanMatrix(a, a)
    pascal = RiordanMatrix(geometric(order), geometric(order))
    return conj * pascal * RiordanMatrix(ainv, ainv)


class TestBellLog:
    def test_log_of_geometric_is_shifted_counting(self):
        # (1/(1-x), x/(1-x)) has logarithm with single subdiagonal 1,2,3,...
        log = bell_log(geometric(6))
        for n in range(6):
            for m in range(n + 1):
                want = m + 1 if n == m + 1 else 0
                assert log.entry(n, m) == want

    def test_log_is_strictly_lower_triangular(self):
        log = bell_log(catalan(8))
        assert all(log.entry(n, n) == 0 for n in range(8))

    def test_exp_undoes_log(self):
        for g in (catalan(9), rna_series(9)):
            assert triangle_exp(bell_log(g)) == RiordanMatrix(g, g).triangle()

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            bell_log(S([2, 1], 4))


class TestCompositionMatrix:
    def test_geometric_gives_identity(self):
        # Powers of the geometric pair have coefficients phi^n, so the
        # row polynomials are bare monomials.
        cm = composition_matrix(geometric(8))
        assert cm.triangle == Triangle.identity(8)

    def test_rna_rows(self):
        cm = composition_matrix(rna_series(11))
        assert rows_of(cm.triangle) == L_RNA_ROWS

    def test_columns_are_scaled_log_powers(self):
        g = rna_series(8)
        cm = composition_matrix(g)
        log = bell_log(g)
        vec = [F(1)] + [F(0)] * 7
        fact = 1
        for n in range(4):
            assert list(cm.triangle.column(n).coeffs) == [
                v / fact for v in vec
            ]
            vec = log.apply_vec(vec)
            fact *= n + 1

    def test_row_polys_interpolate_powers(self):
        g = rna_series(10)
        cm = composition_matrix(g)
        for phi in (2, 3, -1, F(1, 2)):
            p = bell_power(g, phi)
            for n in range(10):
                assert p[n] == cm.row_poly(n)(phi)

    def test_entry_accessor(self):
        cm = composition_matrix(rna_series(8))
        assert cm.entry(5, 3) == 6
        assert cm.nrows == 8


# Bell pairs for the oracle tests, by order; "even" is 1/(1-x^2), g_1 = 0.
ORACLE_PAIRS = {
    "rna": rna_series,
    "catalan": catalan,
    "catalan3": lambda n: catalan(n) ** 3,
    "motzkin": lambda n: from_b_sequence(S([1, 1]), n).g,
    "even": lambda n: Series([1 - k % 2 for k in range(n)], n),
}


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
class TestNilpotentSeriesOracle:
    """Exact agreement with the log as the nilpotent series of K^p."""

    def test_bell_log(self, name, order):
        g = ORACLE_PAIRS[name](order)
        assert bell_log(g).rows == bell_log_oracle(g).rows

    def test_log_generator(self, name, order):
        g = ORACLE_PAIRS[name](order)
        if order == 1:  # column 0 of the log divided by x is empty
            with pytest.raises(ValueError, match="order at least 2"):
                log_generator(g)
            return
        want = bell_log_oracle(g).column(0).shift_down(1)
        got = log_generator(g)
        assert (got.order, got.coeffs) == (want.order, want.coeffs)

    def test_composition_matrix(self, name, order):
        # Column m is (1/m!) L^m e_0 for the oracle log L.
        g = ORACLE_PAIRS[name](order)
        log = bell_log_oracle(g)
        vec = [F(1)] + [F(0)] * (order - 1)
        cols = []
        for m in range(order):
            cols.append([v / factorial(m) for v in vec])
            vec = log.apply_vec(vec)
        want = tuple(
            tuple(cols[m][i] for m in range(i + 1)) for i in range(order)
        )
        assert composition_matrix(g).triangle.rows == want

    def test_exp_undoes_log(self, name, order):
        g = ORACLE_PAIRS[name](order)
        assert triangle_exp(bell_log_oracle(g)) == RiordanMatrix(g, g).triangle()


@pytest.mark.parametrize("order", range(3, 17))
@pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
def test_log_generator_solves_julia_equation(name, order):
    # h = x^2 b solves h(xg) = (xg)' h, i.e. g^2 b(xg) = b (xg)'
    g = ORACLE_PAIRS[name](order)
    b = log_generator(g)
    m = b.order
    xg = g.truncate(m).shift_up(1, extend=True)
    assert g.truncate(m) ** 2 * b.compose(xg) == b * xg.derivative()


class TestBellPower:
    def test_identity_and_unit(self):
        g = rna_series(8)
        assert bell_power(g, 1) == g
        assert bell_power(g, 0) == one_series(8)

    def test_geometric_powers(self):
        g = geometric(8)
        assert bell_power(g, 3) == 1 / S([1, -3], 8)
        assert bell_power(g, -1) == S([1, 1], 8).inverse()
        assert bell_power(g, F(1, 2)) == 1 / S([1, F(-1, 2)], 8)

    def test_negative_power_flips_argument(self):
        # Pseudo-involution law: the (-1)-power is g(-x).
        for g in (rna_series(16), legendre_generating_series(16, F(1))):
            assert bell_power(g, -1) == g.alternate()

    def test_matrix_product_consistency(self):
        g = rna_series(9)
        sq = bell_power(g, 2)
        prod = RiordanMatrix(g, g) * RiordanMatrix(g, g)
        assert prod.f == sq and prod.g == sq

    def test_homomorphism(self):
        g = rna_series(9)
        assert bell_power(bell_power(g, 2), 3) == bell_power(g, 6)
        half = bell_power(g, F(1, 2))
        assert bell_power(half, 2) == g

    def test_symbolic_power_specializes(self):
        g = rna_series(8)
        sym = bell_power(g, "phi")
        for phi in (1, 4, F(-3, 2)):
            assert sym.eval_param(phi) == bell_power(g, phi)

    def test_rna_negative_rows(self):
        got = bell_power(rna_series(8), -1)
        assert list(got.coeffs) == [1, -1, 1, -2, 4, -8, 17, -37]


class TestLogGenerator:
    def test_geometric_generator_is_one(self):
        assert log_generator(geometric(8)) == one_series(7)

    def test_conjugated_pascal_generator(self):
        # The generator for the conjugated-Pascal pair is sqrt(1-x^2).
        order = 12
        g = legendre_generating_series(order, F(1))
        b = log_generator(g)
        assert b == Series([1, 0, -1], order).sqrt()

    def test_even_for_sign_symmetric_pairs(self):
        b = log_generator(rna_series(12))
        assert all(b[k] == 0 for k in range(1, b.order, 2))

    def test_recurrence_rebuilds_columns(self):
        # col_n = (1/n) b D^T col_{n-1} with D^T: x^k -> (k+1) x^{k+1}.
        g = rna_series(9)
        b = log_generator(g).pad_zeros(9)
        cm = composition_matrix(g)
        for n in range(1, 5):
            prev = cm.triangle.column(n - 1)
            lifted = Series(
                [F(0)] + [(k + 1) * prev[k] for k in range(8)], 9
            )
            assert cm.triangle.column(n) == b * lifted / n


class TestCompositionSum:
    def test_single_part_compositions(self):
        # b = (1): only all-ones compositions survive, giving phi^n.
        b = one_series(9)
        for n in range(9):
            want = [0] * n + [1]
            assert list(composition_sum(b, n).coeffs) == [F(v) for v in want]

    def test_matches_row_polynomials(self):
        g = rna_series(10)
        b = log_generator(g).pad_zeros(10)
        cm = composition_matrix(g)
        for n in range(9):
            got = composition_sum(b, n)
            assert got.coeffs == cm.row_poly(n, "phi").coeffs

    def test_beta_generalization(self):
        # With a beta prefix the formula gives [x^n] (g^(phi))^beta.
        g = rna_series(9)
        b = log_generator(g).pad_zeros(9)
        cubed = bell_power(g, 2) ** 3
        for n in range(8):
            assert composition_sum(b, n, beta=3)(2) == cubed[n]

    def test_guards(self):
        b = one_series(30)
        with pytest.raises(ValueError, match="non-negative"):
            composition_sum(b, -1)
        with pytest.raises(ValueError, match="order"):
            composition_sum(one_series(3), 5)

    def test_zero_generator(self):
        # b = 0 is the log generator of g = 1: [x^n] 1^beta vanishes.
        assert composition_sum(Series([0] * 6), 5, beta=3).coeffs == ()

    def test_large_n_matches_composition_matrix(self):
        # Far past 2^(n-1) enumeration: row 40 of the composition matrix.
        g = rna_series(41)
        b = log_generator(g)
        got = composition_sum(b, 40)
        assert got.coeffs == composition_matrix(g).row_poly(40, "phi").coeffs


# g = 1 + g_1 x + ... with g_i = p/q, |p| <= 4, q <= 3 (zeros included)
G_ENTRIES = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
# denominators that stress a single lcm: a large power of two, 2*3, 7*11
WIDE_ENTRIES = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2**20, 6, 7 * 11])
)


def unit_series(order, entries=G_ENTRIES):
    """Strategy for series with constant term 1 and the given order."""
    return st.lists(entries, max_size=order - 1).map(
        lambda cs: Series([1] + cs, order)
    )


def _same_series(got, want):
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


def _typed(series):
    """Order and coefficients as (type, value) pairs, so that equal
    values of different types differ."""
    return series.order, [(type(c), c) for c in series.coeffs]


class TestLogGeneratorOracle:
    """``log_generator`` on the strictly lower rows against the full
    ring-arithmetic mat-vecs of ``generic_log_generator``, on
    ``Fraction`` and on ``ParamPoly`` entries: same coefficients, same
    order."""

    @given(
        data=st.data(),
        order=st.integers(2, 24),
        entries=st.sampled_from([G_ENTRIES, WIDE_ENTRIES]),
        graded=st.booleans(),
        flat=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_series(self, data, order, entries, graded, flat):
        cs = list(data.draw(unit_series(order, entries)).coeffs)
        if flat:  # g_1 = 0
            cs[1] = F(0)
        if graded:  # coefficient k over 16^k, as in sqrt(1 + x)
            cs = [c / 16**k for k, c in enumerate(cs)]
        g = Series(cs, order)
        _same_series(log_generator(g), generic_log_generator(g))

    @pytest.mark.parametrize("order", [2, 3, 9, 24])
    def test_unit_series_stops_at_first_power(self, order):
        # g = 1: K = 0, so the sum stops at p = 1 with b = 0
        g = one_series(order)
        _same_series(log_generator(g), generic_log_generator(g))
        assert not any(log_generator(g).coeffs)

    @pytest.mark.parametrize(
        "make",
        [
            rna_series,
            lambda n: Series([1, 1], n).sqrt(),
            lambda n: Series([1 - k % 2 for k in range(n)], n),
        ],
        ids=["rna", "sqrt1px", "even"],
    )
    def test_order_48(self, make):
        g = make(48)
        _same_series(log_generator(g), generic_log_generator(g))

    def test_symbolic_unit_series_stops_at_first_power(self):
        # the partial sum never leaves its integer zeros
        g = Series([ParamPoly.const(1)], 9)
        _same_series(log_generator(g), generic_log_generator(g))

    @given(
        order=st.integers(2, 10),
        b=st.lists(G_ENTRIES, min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_b_composition_power(self, order, b):
        # g^[phi] from the B-sequence phi B: ParamPoly coefficients
        phi = ParamPoly.param()
        g = from_b_sequence(Series([phi * c for c in b], len(b)), order).g
        assert not g.is_rational()
        got = _typed(log_generator(g))
        assert got == _typed(generic_log_generator(g))
        assert got == _typed(log_generator_oracle(g))

    def test_truncated_window(self):
        g = catalan(20).truncate(9)
        _same_series(log_generator(g), generic_log_generator(g))
        with pytest.raises(ValueError, match="needs g to order at least 2"):
            log_generator(rna_series(5).truncate(1))


def kernel_integer_columns(g):
    """The columns (P_m, e_m) of (g, xg) as ``log_generator`` reads them
    off ``_column_pairs`` on x g: (m+1)! c_(m+1) = tail (m+1)!/r over
    e/r with r = gcd((m+1)!, e), under the zero rows above lo."""
    n = g.order
    out = []
    for j, (lo, tail, e) in enumerate(kernels._column_pairs([F(0), *g.coeffs], n + 1)):
        if j:
            f = factorial(j)
            r = gcd(f, e)
            out.append(([0] * (lo - j) + [c * (f // r) for c in tail], e // r))
    return out


class TestLogGeneratorColumns:
    """``log_generator``, whose K reads the ``columns`` kernel on x g,
    against the former body on the ``Fraction`` triangle and against
    ``generic_log_generator``: equal coefficients of equal types, to the
    same order (``ParamPoly`` g is
    ``TestLogGeneratorOracle.test_b_composition_power``)."""

    @given(data=st.data(), order=st.integers(2, 20))
    @settings(max_examples=150, deadline=None)
    def test_rational_rings(self, data, order):
        g = data.draw(ring_series(order, head=1))
        got = _typed(log_generator(g))
        assert got == _typed(log_generator_oracle(g))
        assert got == _typed(generic_log_generator(g))

    @given(data=st.data(), order=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_column_denominators_are_graded(self, data, order):
        # (m+1)! c_(m+1) off the kernel is the former column loop's
        # pair (P_m, e_m), pair for pair; e_m is the lcm of the reduced
        # denominators of column m alone, not one shared by every column
        g = data.draw(ring_series(order))
        cols = kernel_integer_columns(g)
        assert cols == integer_columns_oracle(g)
        tri = riordan_triangle_oracle(RiordanMatrix(g, g))
        assert len(cols) == order
        for m, (nums, e) in enumerate(cols):
            assert len(nums) == order - m
            assert e == lcm(*[tri.entry(i, m).denominator for i in range(m, order)])

    def test_geometric_denominators_fall_by_column(self):
        # column m of (1/(1-x/3), x/(1-x/3)) to 8 rows reads
        # C(m+k, k)/3^k for k < 8 - m, so its denominator divides
        # 3^(7-m); one shared denominator would be 3^7 on every column
        g = 1 / S([1, F(-1, 3)], 8)
        cols = kernel_integer_columns(g)
        assert cols == integer_columns_oracle(g)
        dens = [e for _, e in cols]
        assert dens[0] == 3**7 and dens[-1] == 1
        assert all(3 ** (7 - m) % e == 0 for m, e in enumerate(dens))

    def test_rational_g_builds_no_triangle_and_no_series_product(self, monkeypatch):
        # nor does a ParamPoly g: its K comes off the same kernel
        gs = [
            rna_series(24),
            1 / S([1, F(-1, 1000)], 24),
            Series([1, 1], 24).sqrt(),
            symbolic_g(12),
        ]
        want = [log_generator_oracle(g) for g in gs]

        def refuse(*args, **kwargs):
            raise AssertionError("log_generator left the kernel columns")

        monkeypatch.setattr(RiordanMatrix, "triangle", refuse)
        monkeypatch.setattr(Triangle, "__init__", refuse)
        monkeypatch.setattr(kernels, "mul", refuse)
        for g, b in zip(gs, want):
            assert _typed(log_generator(g)) == _typed(b)

    @pytest.mark.parametrize(
        "cs",
        [[1, F(1, 2), "t", F(1, 3)], [1, 0, "t"], [1, 0, 2, "t", 0, F(1, 3)]],
        ids=["half", "flat", "sparse"],
    )
    def test_param_g_keeps_rational_coefficient_types(self, cs):
        # a ParamPoly g may hold Fraction coefficients; K's column 0 is
        # g itself, so b_0 = g_1 keeps its type, as in the former body
        t = ParamPoly.param("t")
        g = Series([t if c == "t" else F(c) for c in cs], len(cs))
        got = _typed(log_generator(g))
        assert got == _typed(log_generator_oracle(g))
        assert log_generator(g) == generic_log_generator(g)


# rational phi, a bool among them: phi = True is phi = 1
PHIS = [0, 1, -1, 2, F(1, 2), F(-2, 3), F(7, 5), True]


def _typed_symbols(series):
    """``_typed``, with the symbol of each ``ParamPoly`` coefficient."""
    return series.order, [
        (type(c), c, getattr(c, "symbol", None)) for c in series.coeffs
    ]


class TestBellPowerOracle:
    """``bell_power`` against ``bell_power_oracle``, the former body that
    evaluates the composition polynomials row by row: equal values of
    equal types, to the same order."""

    @given(
        data=st.data(),
        order=st.integers(1, 24),
        phi=st.sampled_from(PHIS),
        rings=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rational_phi(self, data, order, phi, rings):
        strategy = ring_series(order, head=1) if rings else unit_series(order)
        g = data.draw(strategy)
        assert _typed(bell_power(g, phi)) == _typed(bell_power_oracle(g, phi))

    @pytest.mark.parametrize(
        "phi", ["t", "phi", ParamPoly.param("t"), ParamPoly([F(1, 2), 3], "s")],
        ids=["str-t", "str-phi", "param", "param-affine"],
    )
    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_symbolic_phi(self, phi, order):
        g = catalan(order)
        got = _typed_symbols(bell_power(g, phi))
        assert got == _typed_symbols(bell_power_oracle(g, phi))

    def test_builds_no_composition_matrix_and_no_row_polynomial(self, monkeypatch):
        gs = [rna_series(24), Series([1, F(1, 3)], 16).sqrt(), 1 / S([1, F(-1, 7)], 12)]
        cases = [(g, phi) for g in gs for phi in PHIS]
        want = [bell_power_oracle(g, phi) for g, phi in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a rational bell_power left the integer columns")

        monkeypatch.setattr(matrixlog, "composition_matrix", refuse)
        monkeypatch.setattr(Triangle, "row_poly", refuse)
        monkeypatch.setattr(Series, "eval_param", refuse)
        for (g, phi), power in zip(cases, want):
            assert _typed(bell_power(g, phi)) == _typed(power)

    def test_call_chain(self, monkeypatch):
        # bell_power reads x b off bell_log; composition_matrix does not
        calls = []
        log = matrixlog.bell_log

        def counted(g):
            calls.append(g.order)
            return log(g)

        monkeypatch.setattr(matrixlog, "bell_log", counted)
        g = rna_series(12)
        composition_matrix(g)
        assert calls == []
        bell_power(g, F(1, 2))
        assert calls == [12]

    def test_order_one(self):
        assert bell_power(S([1], 1), F(7, 5)) == S([1], 1)
        assert composition_matrix(S([1], 1)).triangle.rows == ((F(1),),)
        for fn in (composition_matrix, bell_log, lambda g: bell_power(g, 2)):
            with pytest.raises(ValueError, match="constant term 1"):
                fn(S([2], 1))
            with pytest.raises(ValueError, match="constant term 1"):
                fn(S([2, 1], 4))


def symbolic_g(order):
    """1 + t x + x^2 + x^3/2 + ..., coefficient k >= 2 equal to 1/(k-1)."""
    t = ParamPoly.param("t")
    return Series([F(1), t] + [F(1, k - 1) for k in range(2, order)], order)


T0 = [0, 1, -2, F(1, 3)]  # values of t; t = 0 gives g_1 = 0


def specialized_rows(tri, t0):
    """The rows of a triangle with ``ParamPoly`` entries at t = t0."""
    return tuple(
        tuple(c(t0) if isinstance(c, ParamPoly) else c for c in row)
        for row in tri.rows
    )


@pytest.mark.parametrize("order", [2, 3, 5, 7, 12])
class TestSymbolicG:
    """g with ``ParamPoly`` coefficients, as ``from_b_sequence`` builds
    for a symbolic B, takes ring arithmetic; its b is symbolic too.
    Setting t = t0 after the log gives what the integer route gives for
    g at t = t0."""

    def test_log_generator(self, order):
        g = symbolic_g(order)
        b = log_generator(g)
        for t0 in T0:
            _same_series(b.eval_param(t0), log_generator(g.eval_param(t0)))
        assert bell_log(g).rows == bell_log_oracle(g).rows

    @pytest.mark.parametrize("phi", PHIS)
    def test_bell_power(self, order, phi):
        g = symbolic_g(order)
        got = bell_power(g, phi)
        for t0 in T0:
            want = bell_power(g.eval_param(t0), phi)
            assert _typed(got.eval_param(t0)) == _typed(want)

    @pytest.mark.parametrize("phi", ["phi", ParamPoly.param("phi")])
    def test_bell_power_symbolic_phi(self, order, phi):
        # the polynomials in phi would need coefficients in t
        with pytest.raises(TypeError, match="cannot nest"):
            bell_power(symbolic_g(order), phi)

    def test_composition_matrix(self, order):
        g = symbolic_g(order)
        got = composition_matrix(g).triangle
        assert got.rows == composition_matrix_oracle(g).rows
        for t0 in T0:
            want = composition_matrix(g.eval_param(t0)).triangle
            assert specialized_rows(got, t0) == want.rows


@pytest.mark.parametrize(
    "b, beta",
    [
        (Series([ParamPoly.param("t"), 1, 2], 3), 1),
        (Series([ParamPoly.param("t"), 1, 2], 3), F(-2, 3)),
        (S([1, F(1, 2), 2]), 0.5),
    ],
    ids=["symbolic-b", "symbolic-b-beta", "float-beta"],
)
def test_composition_sum_outside_the_rationals(b, beta):
    # ParamPoly coefficients cannot nest, and a float is no coefficient
    with pytest.raises(TypeError):
        composition_sum(b, 3, beta=beta)


class TestCompositionOracles:
    """The column recurrence against the routes it replaced
    (``conftest``), coefficient for coefficient."""

    @given(
        data=st.data(),
        n=st.integers(0, 12),
        beta=st.sampled_from([1, F(3, 2), 3, F(-1, 2)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition_sum(self, data, n, beta):
        g = data.draw(unit_series(n + 1))
        b = log_generator(g) if n else one_series(1)
        got = composition_sum(b, n, beta=beta)
        try:
            want = composition_sum_oracle(b, n, beta=beta)
        except ValueError:  # no composition of n has only parts with b != 0
            assert got.coeffs == ()
            return
        assert (got.symbol, got.coeffs) == (want.symbol, want.coeffs)

    @given(data=st.data(), order=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_composition_matrix(self, data, order):
        g = data.draw(unit_series(order))
        got = composition_matrix(g).triangle
        assert got.rows == composition_matrix_oracle(g).rows


class TestConjugatedPascalFamily:
    def test_pair_matches_closed_form(self):
        m = legendre_pair(12)
        assert m.g == legendre_generating_series(12, F(1))

    def test_pair_is_pseudo_involution(self):
        assert legendre_pair(10).is_pseudo_involution()

    def test_closed_form_at_other_exponents(self):
        g = legendre_pair(10).g
        for phi in (2, 3, F(1, 2)):
            assert bell_power(g, phi) == legendre_generating_series(10, F(phi))

    def test_columns_follow_three_term_recurrence(self):
        # Column n equals x^n P_n(sqrt(1-x^2)) where the P_n satisfy
        # (n+1) P_{n+1}(t) = (2n+1) t P_n(t) - n P_{n-1}(t).
        order = 9
        g = legendre_pair(order).g
        cm = composition_matrix(g)
        t = Series([1, 0, -1], order).sqrt()
        p_prev, p_cur = one_series(order), t
        assert cm.triangle.column(0) == p_prev
        assert cm.triangle.column(1) == p_cur.shift_up(1)
        for n in range(1, 7):
            p_next = ((2 * n + 1) * t * p_cur - n * p_prev) / (n + 1)
            p_prev, p_cur = p_cur, p_next
            assert cm.triangle.column(n + 1) == p_cur.shift_up(n + 1)


class TestParity:
    def test_sign_conjugation_forces_row_parity(self):
        # For pairs with g^(-1) = g(-x), even rows are even polynomials
        # and odd rows are odd polynomials.
        for g in (rna_series(14), legendre_pair(12).g):
            cm = composition_matrix(g)
            for n in range(cm.nrows):
                poly = cm.row_poly(n)
                for k in range(len(poly.coeffs)):
                    if (n - k) % 2 == 1:
                        assert poly.coeff(k) == 0

    def test_parity_fails_without_sign_symmetry(self):
        cm = composition_matrix(catalan(8))
        bad = [
            (n, k)
            for n in range(cm.nrows)
            for k in range(n + 1)
            if (n - k) % 2 == 1 and cm.entry(n, k) != 0
        ]
        assert bad  # the Catalan pair is not sign-symmetric
