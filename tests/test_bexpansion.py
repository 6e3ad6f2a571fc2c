"""Tests for the partition-formula engines and B-composition matrices.

Fixtures are frozen displays and closed forms reproduced independently;
the heavier checks cross two unrelated construction routes (partition
formula vs. functional-equation solver, convolution polynomials vs.
direct rows) so that neither can silently drift.
"""

from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    B1_TABLE,
    CATALAN_BCOMP_ROWS,
    DISSECTION_ROWS,
    NARAYANA_ROWS,
    ONE_PLUS_X_ROWS,
    RNA_BCOMP_ROWS,
    S,
    _bcomp_row,
    a_expand_oracle,
    b_expand_oracle,
    bcomp_row_from_convolutions_oracle,
    bcomp_row_oracle,
    convolution_rows_oracle,
    exp_lagrange_diagonal_oracle,
    poly_coeffs,
    power_poly_oracle,
    rows_of,
)
from riordan import (
    EXPONENTIAL,
    BCOMP_ROWS_LIMIT,
    PARTITION_N_LIMIT,
    ParamPoly,
    RiordanMatrix,
    Series,
    a_expand,
    b_expand,
    b_expand_symbolic,
    bcomp_entry_catalan,
    bcomp_entry_one_plus_x,
    bcomp_matrix,
    bcomp_row_from_convolutions,
    binomial,
    binomial_series,
    catalan,
    catalan_number,
    composition_matrix,
    convolution_rows,
    dissection_matrix,
    dissection_poly,
    exp_lagrange_diagonal,
    falling_factorial,
    from_b_sequence,
    generalized_binomial,
    geometric,
    is_appell_type,
    narayana,
    narayana_triangle,
    odd_partitions,
    one_series,
    power_poly,
    rna_row_closed,
    rna_series,
)
from riordan.bexpansion import _odd_mults, _odd_mults_cached, _sums_by_parts, _weight
from riordan.series import _power_columns
from conftest import power_table_oracle as _power_table

# B-sequences used repeatedly; padded with explicit zeros so the
# coefficient window covers everything the formulas ask for.
B_GEOM = geometric(10)
B_ONE_PLUS_X = S([1, 1] + [0] * 8)
B_CATALAN = catalan(10)
B_MIXED = S([1, 2, 0, 1] + [0] * 6)
ALL_BS = [B_GEOM, B_ONE_PLUS_X, B_CATALAN, B_MIXED]


def scaled(b, c):
    """The series c * B(x) (B-function scaled by a constant)."""
    return Series([c * v for v in b.coeffs], b.order)


def series_at(s, value):
    """Specialize a series with ParamPoly coefficients at a parameter."""
    return Series([c(value) for c in s.coeffs], s.order)


class TestOddPartitions:
    def test_counts(self):
        # Number of partitions into odd parts for n = 0..12.
        expected = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]
        assert [len(odd_partitions(n)) for n in range(13)] == expected

    def test_partitions_are_valid_and_unique(self):
        for n in range(13):
            parts = odd_partitions(n)
            seen = set()
            for p in parts:
                assert p.n == n
                assert sum(p.parts()) == n
                assert all(part % 2 == 1 for part in p.parts())
                assert p.q == len(p.parts())
                assert 2 * p.k == n + p.q
                assert p.multiplicities not in seen
                seen.add(p.multiplicities)
                if p.multiplicities:
                    assert p.multiplicities[-1] != 0  # canonical: no tail zeros

    def test_lexicographic_order(self):
        for n in (7, 10, 12):
            mults = [p.multiplicities for p in odd_partitions(n)]
            assert mults == sorted(mults)

    def test_small_cases_explicit(self):
        assert [p.multiplicities for p in odd_partitions(0)] == [()]
        assert [p.multiplicities for p in odd_partitions(1)] == [(1,)]
        assert [p.multiplicities for p in odd_partitions(4)] == [(1, 1), (4,)]
        assert [p.multiplicities for p in odd_partitions(6)] == [
            (0, 2),
            (1, 0, 1),
            (3, 1),
            (6,),
        ]

    def test_parts_sorted_descending(self):
        for p in odd_partitions(9):
            assert p.parts() == sorted(p.parts(), reverse=True)

    def test_guards(self):
        with pytest.raises(ValueError, match="non-negative"):
            odd_partitions(-1)
        with pytest.raises(ValueError, match=str(PARTITION_N_LIMIT)):
            odd_partitions(PARTITION_N_LIMIT + 1)

    def test_limit_covers_the_64_row_matrix(self):
        # b_expand at n = 63 enumerates partitions of 63; a 64-row <B>
        # enumerates none and meets its own ceiling.
        assert PARTITION_N_LIMIT >= 63
        assert BCOMP_ROWS_LIMIT >= 64

    def test_catalan_number(self):
        assert [catalan_number(n) for n in range(8)] == [
            1, 1, 2, 5, 14, 42, 132, 429,
        ]


class TestBExpand:
    def test_constant_b_gives_binomial_coefficients(self):
        # B = 1 forces g = 1/(1-x); [x^n] g^phi = binom(phi+n-1, n).
        b = S([1] + [0] * 5)
        phi = ParamPoly.param("phi")
        for n in range(1, 9):
            expected = falling_factorial(phi + (n - 1), n) / factorial(n)
            assert b_expand(b, n) == expected

    @pytest.mark.parametrize("b", ALL_BS, ids=["geom", "1+x", "catalan", "mixed"])
    def test_matches_parametric_power_to_order_16(self, b):
        # Independent oracle: solve the functional equation for g, then
        # expand g^phi with the exact log/exp route.
        g = from_b_sequence(b.pad_zeros(17), 17).g
        p = g.pow_param("phi")
        for n in range(17):
            assert b_expand(b, n) == p[n]

    def test_degree_in_phi(self):
        # The all-ones partition contributes the top power phi^n.
        for n in range(1, 8):
            assert b_expand(B_GEOM, n).degree == n

    def test_symbol_is_propagated(self):
        assert b_expand(B_GEOM, 3, symbol="t").symbol == "t"

    def test_window_guard(self):
        with pytest.raises(ValueError, match="only known to order"):
            b_expand(S([1, 1]), 6)

    def test_partition_ceiling(self):
        with pytest.raises(ValueError, match=f"n <= {PARTITION_N_LIMIT}$"):
            b_expand(geometric(41), PARTITION_N_LIMIT + 1)

    def test_n_zero(self):
        # The empty partition weighs 1, under the requested symbol.
        for symbol in ("phi", "t"):
            for got in (
                b_expand(B_CATALAN, 0, symbol),
                b_expand_symbolic(0, symbol)[()],
                generalized_binomial(3, 1, symbol)[0],
            ):
                assert (got.symbol, got.coeffs) == (symbol, (1,))
        assert list(b_expand_symbolic(0)) == [()]


class TestWeight:
    @given(k=st.integers(1, 60), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_falling_factorial(self, k, data):
        # phi (phi+k-1)_{q-1}, whose value at phi = 1 is the <B> weight.
        q = data.draw(st.integers(1, k))
        phi = ParamPoly.param("phi")
        w = ParamPoly(_weight(k, q))
        assert w == phi * falling_factorial(phi + (k - 1), q - 1)
        assert w(1) == perm(k, q - 1)


class TestBExpandSymbolic:
    def test_phi_one_table(self):
        # The coefficient of each monomial prod b_i^{m_i} at phi = 1,
        # for n = 0..10.
        for n, expected in B1_TABLE.items():
            table = b_expand_symbolic(n)
            assert set(table) == set(expected)
            for mults, poly in table.items():
                assert poly(1) == expected[mults], (n, mults)

    def test_coefficient_polynomial_shape(self):
        # Each coefficient is phi (phi+k-1)_{q-1} / prod m_i!.
        phi = ParamPoly.param("phi")
        for n in (5, 8):
            for part in odd_partitions(n):
                denom = 1
                for m in part.multiplicities:
                    denom *= factorial(m)
                expected = phi * falling_factorial(phi + part.k - 1, part.q - 1)
                got = b_expand_symbolic(n)[part.multiplicities]
                assert got == expected / denom

    def test_recombines_to_b_expand(self):
        # Substituting concrete b_i into the symbolic table reproduces
        # b_expand.
        b = B_MIXED
        for n in range(11):
            total = ParamPoly((), "phi")
            for mults, poly in b_expand_symbolic(n).items():
                factor = Fraction(1)
                for i, m in enumerate(mults):
                    factor *= b[i] ** m
                total = total + poly * factor
            assert total == b_expand(b, n)


class TestAExpand:
    def test_pascal(self):
        # A = 1+x pairs with g = 1/(1-x).
        a = S([1, 1] + [0] * 9)
        p = geometric(11).pow_param("phi")
        for n in range(11):
            assert a_expand(a, n) == p[n]

    def test_motzkin(self):
        from riordan import from_a_sequence

        a = S([1, 1, 1] + [0] * 8)
        g = from_a_sequence(a, 11).g
        p = g.pow_param("phi")
        for n in range(11):
            assert a_expand(a, n) == p[n]

    def test_quadratic_closed_form(self):
        # A = 1 + a1 x + a2 x^2 solves a quadratic for g; check the
        # phi = 1 column against the explicit root.
        for a1, a2 in [(1, 1), (2, 1), (1, 3)]:
            order = 10
            a = S([1, a1, a2] + [0] * (order - 3))
            lin = S([1, -a1], order + 2)
            disc = lin * lin - S([0, 0, 4 * a2], order + 2)
            g = (lin - disc.sqrt()).shift_down(2) / (2 * a2)
            for n in range(order):
                assert a_expand(a, n)(1) == g[n]

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            a_expand(S([2, 1, 0, 0]), 2)

    def test_n_zero(self):
        assert a_expand(S([1, 1, 0]), 0) == ParamPoly.const(1, "phi")


class TestBinomialSeries:
    def test_degree_one_and_two(self):
        assert binomial_series(1, 10) == geometric(10)
        assert binomial_series(2, 10) == catalan(10)

    def test_degree_three_frozen(self):
        assert list(binomial_series(3, 7).coeffs) == [1, 1, 3, 12, 55, 273, 1428]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_functional_equation(self, r):
        b = binomial_series(r, 10)
        assert b == one_series(10) + (b ** r).shift_up()

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            binomial_series(0, 5)
        with pytest.raises(ValueError, match="at least 1"):
            generalized_binomial(0, 5)

    def test_generalized_specializes(self):
        for r in (1, 2, 3):
            gb = generalized_binomial(r, 9)
            base = binomial_series(r, 9)
            assert series_at(gb, 1) == base
            assert series_at(gb, 2) == base * base
            assert series_at(gb, 3) == base ** 3
            assert series_at(gb, 0) == one_series(9)
            assert series_at(gb, Fraction(1, 2)) == base.pow_rat(Fraction(1, 2))

    def test_generalized_equals_parametric_power(self):
        for r in (1, 2, 3):
            assert generalized_binomial(r, 9) == binomial_series(r, 9).pow_param("phi")

    def test_generalized_coefficient_formula(self):
        # [x^n] B_r^phi = phi/(phi+rn) binom(phi+rn, n) at integer phi.
        for r in (2, 3):
            gb = generalized_binomial(r, 8)
            for phi in (1, 2, 5):
                for n in range(1, 8):
                    expected = Fraction(phi, phi + r * n) * comb(phi + r * n, n)
                    assert gb[n](phi) == expected


class TestBCompMatrix:
    def test_one_plus_x_display(self):
        mat = bcomp_matrix(B_ONE_PLUS_X, 11)
        assert rows_of(mat.triangle) == ONE_PLUS_X_ROWS

    def test_catalan_display(self):
        mat = bcomp_matrix(B_CATALAN, 11)
        assert rows_of(mat.triangle) == CATALAN_BCOMP_ROWS

    def test_geometric_display(self):
        mat = bcomp_matrix(B_GEOM, 11)
        assert rows_of(mat.triangle) == RNA_BCOMP_ROWS

    def test_geometric_equals_rna_matrix_logarithm(self):
        # <1/(1-x)> coincides with the composition triangle obtained
        # from the matrix logarithm of the RNA element.
        cm = composition_matrix(rna_series(11))
        mat = bcomp_matrix(B_GEOM, 11)
        assert mat.triangle == cm.triangle

    @pytest.mark.parametrize("phi", [2, -1, Fraction(1, 2)])
    def test_rows_interpolate_scaled_b(self, phi):
        # Row n evaluated at phi gives [x^n] g where g has B-function
        # phi * B.
        mat = bcomp_matrix(B_MIXED, 11)
        g = from_b_sequence(scaled(B_MIXED, Fraction(phi)), 11).g
        for n in range(11):
            assert mat.row_poly(n)(Fraction(phi)) == g[n]

    def test_column_one_is_aerated_b(self):
        # Column 1 carries x B(x^2): entry (2i+1, 1) = b_i.
        mat = bcomp_matrix(B_MIXED, 11)
        col = mat.triangle.column(1)
        assert col[0] == 0
        for i in range(11):
            if i >= 1 and i % 2:
                assert col[i] == B_MIXED[(i - 1) // 2]
            else:
                assert col[i] == 0

    def test_checkerboard_zeros(self):
        mat = bcomp_matrix(B_MIXED, 12)
        for n in range(12):
            for m in range(n + 1):
                if (n - m) % 2:
                    assert mat.entry(n, m) == 0

    def test_argument_scaling(self):
        # Replacing B(x) by B(cx) scales entry (n, m) by c^{(n-m)/2}.
        c = Fraction(4)
        base = bcomp_matrix(B_MIXED, 10)
        scaled_mat = bcomp_matrix(B_MIXED.scale_arg(c), 10)
        for n in range(10):
            for m in range(n + 1):
                if (n - m) % 2 == 0:
                    assert scaled_mat.entry(n, m) == c ** ((n - m) // 2) * base.entry(n, m)

    def test_accessors(self):
        mat = bcomp_matrix(B_GEOM, 6)
        assert mat.nrows == 6
        assert mat.source == B_GEOM
        assert mat.entry(5, 3) == 6
        assert poly_coeffs(mat.row_poly(4)) == [0, 0, 3, 0, 1]

    def test_window_guard(self):
        with pytest.raises(ValueError, match="only known to order"):
            bcomp_matrix(S([1, 1]), 11)

    def test_row_ceiling(self):
        # The ceiling is checked before the B window is looked at.
        with pytest.raises(ValueError, match=f"limited to {BCOMP_ROWS_LIMIT} rows$"):
            bcomp_matrix(S([1, 1]), BCOMP_ROWS_LIMIT + 1)

    @pytest.mark.parametrize("order", [0, -1])
    def test_row_floor(self, order):
        # below one row is a ValueError, as every sized entry point raises
        with pytest.raises(ValueError, match="needs at least 1 row"):
            bcomp_matrix(B_CATALAN, order)
        with pytest.raises(ValueError, match="needs at least 1 row"):
            is_appell_type(B_CATALAN, order)

    def test_enumerates_no_partitions(self):
        before = _odd_mults_cached.cache_info()
        bcomp_matrix(B_MIXED.pad_zeros(20), 41)
        assert _odd_mults_cached.cache_info() == before

    @pytest.mark.parametrize(
        "b, rows",
        [(catalan(60), 81), (S([1, 0, Fraction(-3, 4), 2, 0, Fraction(5, 7)], 60), 121)],
        ids=["catalan-81", "rational-121"],
    )
    def test_rows_above_the_old_ceiling_match_convolutions(self, b, rows):
        # Above 81 rows the partition oracles cannot follow; the columns
        # B^m / m! of (1, xB)_E are the independent route.
        mat = bcomp_matrix(b, rows)
        for n in range(rows):
            assert mat.row_poly(n) == bcomp_row_from_convolutions(b, n)


# B of length 1-8, entries p/q with |p| <= 5 and q <= 4 (zeros included);
# the window is padded with zeros to 16 terms, enough for n <= 31.
B_ENTRIES = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
B_WINDOWS = st.lists(B_ENTRIES, min_size=1, max_size=8).map(lambda cs: Series(cs, 16))
# zero about half the time, else p/q with |p| <= 9 and q <= 12, so the
# denominators of the <B> table meet several primes and powers
TABLE_TERMS = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
)


class TestPartitionSumOracles:
    """The by-q partition sums against the per-partition formulas they
    replaced (``conftest``), coefficient for coefficient."""

    @given(b=B_WINDOWS, n=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_b_expand(self, b, n):
        got, want = b_expand(b, n), b_expand_oracle(b, n)
        assert (got.symbol, got.coeffs) == (want.symbol, want.coeffs)

    @given(
        rest=st.lists(B_ENTRIES, min_size=0, max_size=7),
        n=st.integers(0, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_expand(self, rest, n):
        a = Series([1] + rest)
        got, want = a_expand(a, n), a_expand_oracle(a, n)
        assert (got.symbol, got.coeffs) == (want.symbol, want.coeffs)

    @given(b=B_WINDOWS, order=st.integers(1, 31))
    @settings(max_examples=100, deadline=None)
    def test_bcomp_rows(self, b, order):
        tri = bcomp_matrix(b, order).triangle
        bs = list(b.coeffs)
        assert [list(tri.row(n)) for n in range(order)] == [
            bcomp_row_oracle(bs, n) for n in range(order)
        ]

    @given(
        head=TABLE_TERMS,
        rest=st.lists(TABLE_TERMS, max_size=20),
        order=st.integers(1, 41),
        spare=st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_bcomp_table_by_q(self, head, rest, order, spare):
        # The table against the enumeration grouped by q that it
        # replaced, on a window with ``spare`` terms more than it needs.
        window = max(order // 2, 1) + spare
        b = Series(([head] + rest)[:window], window)
        tri = bcomp_matrix(b, order).triangle
        assert [list(tri.row(n)) for n in range(order)] == [
            _bcomp_row(list(b.coeffs), n) for n in range(order)
        ]

    @given(b=B_WINDOWS, n=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_sums_are_power_coefficients(self, b, n):
        # S_q(n) = [x^{(n-q)/2}] B^q / q!
        sums = _sums_by_parts(b.coeffs, _odd_mults(n))
        table = _power_table(b, n // 2, n)
        for q in range(n % 2, n + 1, 2):
            assert sums.get(q, 0) == table[q][(n - q) // 2] / factorial(q)
        assert all((n - q) % 2 == 0 for q in sums)


class TestConvolutionRowsOracle:
    @given(
        cs=st.lists(B_ENTRIES, max_size=15),
        order=st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_parametric_power_rows(self, cs, order):
        b = Series([1] + cs, len(cs) + 1)
        got = convolution_rows(b, order)
        assert got.rows == convolution_rows_oracle(b, order).rows


class TestPowerColumnReaders:
    """The readers of the columns B^m / m! against the bodies they
    replaced (``conftest``), which divide a table of plain powers by m!."""

    @given(b=B_WINDOWS, n=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_bcomp_row_from_convolutions(self, b, n):
        got = bcomp_row_from_convolutions(b, n)
        want = bcomp_row_from_convolutions_oracle(b, n)
        assert (got.symbol, got.coeffs) == (want.symbol, want.coeffs)

    @given(b=B_WINDOWS, n=st.integers(0, 20), phi=B_ENTRIES)
    @settings(max_examples=60, deadline=None)
    def test_power_poly(self, b, n, phi):
        got, want = power_poly(b, n, phi), power_poly_oracle(b, n, phi)
        assert (got.symbol, got.coeffs) == (want.symbol, want.coeffs)

    @given(b=B_WINDOWS, n=st.integers(0, 20), order=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_exp_lagrange_diagonal(self, b, n, order):
        b = b.pad_zeros(n + 1)  # B_WINDOWS are polynomials
        got = exp_lagrange_diagonal(b, n, order)
        want = exp_lagrange_diagonal_oracle(b, n, order)
        assert (got.order, got.coeffs) == (want.order, want.coeffs)

    @given(b=B_WINDOWS, m=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_columns_are_scaled_powers(self, b, m):
        col = _power_columns(b, m + 1)[m]
        table = _power_table(b, b.order - 1, m)
        assert [c * factorial(m) for c in col] == table[m]

    def test_short_window_refused(self):
        # catalan(3) knows 3 coefficients; row n reads (n + 1)//2 and
        # diagonal n reads n + 1, as the partition route does.
        b = catalan(3)
        with pytest.raises(ValueError, match="only known to order 3; need 5"):
            bcomp_row_from_convolutions(b, 10)
        with pytest.raises(ValueError, match="only known to order 3; need 5"):
            power_poly(b, 10)
        with pytest.raises(ValueError, match="only known to order 3; need 6"):
            exp_lagrange_diagonal(b, 5, 4)
        mat = bcomp_matrix(b, 7)
        for n in range(7):
            assert bcomp_row_from_convolutions(b, n) == mat.row_poly(n)
        assert exp_lagrange_diagonal(b, 2, 4) == exp_lagrange_diagonal_oracle(b, 2, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: a_expand(geometric(5), -1), "n must be non-negative"),
        (lambda: power_poly(catalan(5), -1), "n must be non-negative"),
        (lambda: bcomp_row_from_convolutions(catalan(5), -1), "n must be non-negative"),
        (lambda: exp_lagrange_diagonal(catalan(5), -1, 3), "n must be non-negative"),
        (lambda: rna_series(0), "series order must be at least 1"),
        (lambda: narayana(-1), "n must be non-negative"),
        (lambda: rna_row_closed(-1), "n must be non-negative"),
        (lambda: dissection_poly(-1), "n must be non-negative"),
    ],
    ids=["a_expand", "power_poly", "bcomp_row_from_convolutions",
         "exp_lagrange_diagonal", "rna_series", "narayana", "rna_row_closed",
         "dissection_poly"],
)
def test_out_of_range_size_names_the_input(call, message):
    # the messages b_expand(b, -1) and catalan(0) give
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestClosedFormEntries:
    def test_one_plus_x_entries(self):
        mat = bcomp_matrix(B_ONE_PLUS_X, 13)
        for n in range(13):
            for m in range(n + 1):
                assert bcomp_entry_one_plus_x(n, m) == mat.entry(n, m), (n, m)

    def test_one_plus_x_even_columns(self):
        # Column 2n carries x^{2n} sum_m C_m binom(2n+m, 2n-m) x^{2m}.
        mat = bcomp_matrix(B_ONE_PLUS_X, 13)
        for n in (1, 2):
            col = mat.triangle.column(2 * n)
            for idx in range(13 - 2 * n):
                expected = 0
                if idx % 2 == 0:
                    m = idx // 2
                    expected = catalan_number(m) * binomial(2 * n + m, 2 * n - m)
                assert col[2 * n + idx] == expected

    def test_catalan_entries(self):
        mat = bcomp_matrix(B_CATALAN, 13)
        for n in range(13):
            for m in range(n + 1):
                assert bcomp_entry_catalan(n, m) == mat.entry(n, m), (n, m)

    def test_catalan_row_closed_forms(self):
        # Even rows: sum C_{n-m} binom(2n-1, 2m-1) x^{2m};
        # odd rows:  sum C_{n-m} binom(2n, 2m) x^{2m+1}.
        mat = bcomp_matrix(B_CATALAN, 13)
        for n in range(1, 6):
            even = [0] * (2 * n + 1)
            for m in range(1, n + 1):
                even[2 * m] = catalan_number(n - m) * comb(2 * n - 1, 2 * m - 1)
            assert poly_coeffs(mat.row_poly(2 * n)) == [
                int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
                for v in even
            ]
            odd = [0] * (2 * n + 2)
            for m in range(n + 1):
                odd[2 * m + 1] = catalan_number(n - m) * comb(2 * n, 2 * m)
            assert list(mat.row_poly(2 * n + 1).coeffs) == odd

    def test_out_of_range_entries_are_zero(self):
        assert bcomp_entry_one_plus_x(4, 1) == 0  # (3m-n)/2 < 0
        assert bcomp_entry_one_plus_x(5, 2) == 0  # parity
        assert bcomp_entry_catalan(3, 0) == 0  # m = 0, n > 0
        assert bcomp_entry_catalan(2, 5) == 0  # above diagonal
        assert bcomp_entry_one_plus_x(0, 0) == 1
        assert bcomp_entry_catalan(0, 0) == 1

    def test_rna_row_closed(self):
        mat = bcomp_matrix(B_GEOM, 13)
        for n in range(13):
            assert rna_row_closed(n) == mat.row_poly(n)

    def test_rna_rows_display(self):
        for n, row in enumerate(RNA_BCOMP_ROWS):
            got = list(rna_row_closed(n).coeffs)
            got += [0] * (len(row) - len(got))
            assert got == row


class TestNarayanaAndDissection:
    def test_narayana_polynomials(self):
        assert poly_coeffs(narayana(0)) == [1]
        assert poly_coeffs(narayana(3)) == [0, 1, 3, 1]
        assert rows_of(narayana_triangle(7)) == NARAYANA_ROWS

    def test_narayana_symmetry_and_sum(self):
        # Coefficients are symmetric; N_n(1) is the Catalan number.
        for n in range(1, 9):
            cs = list(narayana(n).coeffs)[1:]
            assert cs == cs[::-1]
            assert narayana(n)(1) == catalan_number(n)

    def test_dissection_polynomials_frozen(self):
        assert poly_coeffs(dissection_poly(0)) == [1]
        assert poly_coeffs(dissection_poly(1)) == [1, 2]
        assert poly_coeffs(dissection_poly(2)) == [1, 5, 5]
        assert poly_coeffs(dissection_poly(3)) == [1, 9, 21, 14]
        assert poly_coeffs(dissection_poly(4)) == [1, 14, 56, 84, 42]

    def test_dissection_from_narayana(self):
        # T_n(x) = (1+x)^n N~_{n+1}(x/(1+x)) with N~ the Narayana
        # polynomial divided by x.
        order = 12
        inner = (S([0, 1], order) / S([1, 1], order))
        for n in range(6):
            tilde = S(list(narayana(n + 1).coeffs)[1:], order)
            rhs = tilde.compose(inner) * (S([1, 1], order) ** n)
            expected = S(poly_coeffs(dissection_poly(n)), order)
            assert rhs == expected

    def test_dissection_matrix_display(self):
        assert rows_of(dissection_matrix(8)) == DISSECTION_ROWS

    @pytest.mark.parametrize("order", [0, 1])
    def test_dissection_matrix_has_order_rows(self, order):
        # as many rows as narayana_triangle: none at order 0
        assert dissection_matrix(order).nrows == narayana_triangle(order).nrows == order

    def test_dissection_columns(self):
        # Column m+1 holds x^{m+1} (1+x) T_m(x).
        tri = dissection_matrix(12)
        for m in range(5):
            col = tri.column(m + 1)
            expected = S(poly_coeffs(dissection_poly(m)), 12) * S([1, 1], 12)
            for idx in range(12):
                want = expected[idx - m - 1] if idx >= m + 1 else 0
                assert col[idx] == want

    def test_one_plus_x_columns_are_aerated_dissection(self):
        # Column n+1 of <1+x> holds x^{n+1} T_n(x^2) (1+x^2).
        mat = bcomp_matrix(B_ONE_PLUS_X, 13)
        x2 = S([0, 0, 1], 13)
        for n in range(4):
            col = mat.triangle.column(n + 1)
            expected = S(poly_coeffs(dissection_poly(n)), 13).compose(x2) * S(
                [1, 0, 1], 13
            )
            for idx in range(13):
                want = expected[idx - n - 1] if idx >= n + 1 else 0
                assert col[idx] == want, (n, idx)

    def test_catalan_rows_from_dissection_rows(self):
        # Row n+1 of <C(x)> equals x^{1-n} F_n(x^2) with F_n the row-n
        # polynomial of the dissection triangle.
        cat = bcomp_matrix(B_CATALAN, 13)
        dis = dissection_matrix(12)
        for n in range(1, 12):
            f = list(dis.row_poly(n).coeffs)
            lhs = list(cat.row_poly(n + 1).coeffs)
            rhs = [0] * (n + 2)
            for k, c in enumerate(f):
                pos = 2 * k - (n - 1)
                if c:
                    rhs[pos] = c
            lhs += [0] * (n + 2 - len(lhs))
            assert lhs == rhs, n

    @pytest.mark.parametrize("t", [2, 3, Fraction(1, 2)])
    def test_dissection_row_generating_function(self, t):
        # sum_n F_n(t) x^n = (1 - xt - sqrt(1 - 2xt(1+2x) + x^2 t^2))
        #                    / (2 x^2 t).
        order = 12
        t = Fraction(t)
        dis = dissection_matrix(order)
        lin = S([1, -t], order + 2)
        disc = S([1, -2 * t, t * t - 4 * t], order + 2)
        gf = (lin - disc.sqrt()).shift_down(2) / (2 * t)
        for n in range(order):
            assert dis.row_poly(n)(t) == gf[n]


class TestConvolutionMachinery:
    def test_convolution_rows_interpolate_powers(self):
        tri = convolution_rows(B_MIXED, 8)
        for m in range(6):
            p = B_MIXED.pad_zeros(8) ** m
            for n in range(8):
                assert tri.row_poly(n)(Fraction(m)) == p[n]

    def test_convolution_rows_guard(self):
        with pytest.raises(ValueError, match="constant term 1"):
            convolution_rows(S([2, 1]), 4)

    @pytest.mark.parametrize(
        "b", ALL_BS, ids=["geom", "1+x", "catalan", "mixed"]
    )
    def test_rows_rebuilt_from_convolutions(self, b):
        mat = bcomp_matrix(b, 13)
        for n in range(13):
            assert bcomp_row_from_convolutions(b, n) == mat.row_poly(n)

    def test_power_poly_interpolates_powers(self):
        # power_poly(b, n, phi) at beta = j gives [x^n] (g^[phi])^j.
        phi = 2
        g = from_b_sequence(scaled(B_ONE_PLUS_X, Fraction(phi)), 11).g
        for n in range(11):
            u = power_poly(B_ONE_PLUS_X, n, phi=phi)
            assert u.symbol == "beta"
            for j in (1, 2, 3, -1):
                assert u(Fraction(j)) == (g ** j)[n], (n, j)

    @pytest.mark.parametrize("phi", [0.5, ParamPoly.param("phi"), "2"])
    def test_power_poly_rejects_inexact_phi(self, phi):
        for n in (0, 4):
            with pytest.raises(TypeError, match="phi must be an int or a Fraction"):
                power_poly(B_CATALAN, n, phi)

    def test_power_poly_beta_one_matches_row(self):
        mat = bcomp_matrix(B_MIXED, 11)
        for n in range(11):
            for phi in (1, 3):
                assert power_poly(B_MIXED, n, phi=phi)(1) == mat.row_poly(n)(phi)

    def test_power_poly_rna_closed_form(self):
        # For B = 1/(1-x):
        #   [x^{2n}]   R^beta = sum_m beta (beta+n+m-1)_{2m-1}
        #                       binom(n+m-1, n-m) / (2m)!,
        #   [x^{2n+1}] R^beta = sum_m beta (beta+n+m)_{2m}
        #                       binom(n+m, n-m) / (2m+1)!.
        beta = ParamPoly.param("beta")
        for n in range(1, 6):
            even = ParamPoly((), "beta")
            for m in range(1, n + 1):
                term = beta * falling_factorial(beta + n + m - 1, 2 * m - 1)
                even = even + term * Fraction(
                    comb(n + m - 1, n - m), factorial(2 * m)
                )
            assert power_poly(B_GEOM, 2 * n) == even
            odd = ParamPoly((), "beta")
            for m in range(n + 1):
                term = beta * falling_factorial(beta + n + m, 2 * m)
                odd = odd + term * Fraction(comb(n + m, n - m), factorial(2 * m + 1))
            assert power_poly(B_GEOM, 2 * n + 1) == odd

    def test_exp_lagrange_diagonal_values(self):
        # Entry m is (n+m)!/m! [x^n] B^m.
        b = B_MIXED
        for n in range(4):
            diag = exp_lagrange_diagonal(b, n, 6)
            for m in range(6):
                p = b.pad_zeros(n + 1) ** m
                assert diag[m] == Fraction(factorial(n + m), factorial(m)) * p[n]

    def test_exp_lagrange_diagonal_matches_matrix(self):
        # Same numbers read off the exponential matrix (1, xB)_E.
        b = B_CATALAN.pad_zeros(12)
        tri = RiordanMatrix(1, b, kind=EXPONENTIAL).triangle()
        for n in range(4):
            expected = tri.diag_down(n)
            got = exp_lagrange_diagonal(b, n, 12 - n)
            assert got == expected


class TestConnectionTheorem:
    @pytest.mark.parametrize(
        "b", ALL_BS, ids=["geom", "1+x", "catalan", "mixed"]
    )
    def test_bcomp_diagonal_vs_exponential_diagonal(self, b):
        # [2n, down-right] of <B>, scaled by (n+1)!, equals
        # [n, down-right] of (1, xB)_E.
        mat = bcomp_matrix(b, 14)
        for n in range(4):
            width = 14 - 2 * n
            diag = exp_lagrange_diagonal(b, n, width)
            for m in range(width):
                assert mat.entry(2 * n + m, m) * factorial(n + 1) == diag[m], (n, m)

    def test_geometric_diagonal_closed_form(self):
        # [n, down-right] (1, x/(1-x))_E = (n+1)! N_n(x) / (1-x)^{2n+1}.
        order = 12
        for n in range(5):
            diag = exp_lagrange_diagonal(B_GEOM, n, order)
            dens = S([1, -1], order) ** (-(2 * n + 1))
            num = S(poly_coeffs(narayana(n)), order)
            assert diag == num * dens * factorial(n + 1)

    def test_one_plus_x_diagonal_closed_form(self):
        # [n, down-right] (1, x(1+x))_E = ((2n)!/n!) x^n / (1-x)^{2n+1}.
        order = 12
        for n in range(5):
            diag = exp_lagrange_diagonal(B_ONE_PLUS_X, n, order)
            dens = S([1, -1], order) ** (-(2 * n + 1))
            xn = S([0] * n + [1], order)
            assert diag == xn * dens * Fraction(factorial(2 * n), factorial(n))

    def test_catalan_diagonal_closed_form(self):
        # [n, down-right] (1, xC)_E = ((2n)!/n!) x / (1-x)^{2n+1}, n > 0.
        order = 12
        for n in range(1, 5):
            diag = exp_lagrange_diagonal(B_CATALAN, n, order)
            dens = S([1, -1], order) ** (-(2 * n + 1))
            x = S([0, 1], order)
            assert diag == x * dens * Fraction(factorial(2 * n), factorial(n))


class TestAppellType:
    def test_catalan_is_appell(self):
        assert is_appell_type(B_CATALAN, 12)

    def test_scaled_catalan_is_appell(self):
        # b_n = C_n b_1^n with b_1 = 1/2.
        b = S([catalan_number(k) * Fraction(1, 2) ** k for k in range(8)])
        assert is_appell_type(b, 12)

    def test_non_examples(self):
        assert not is_appell_type(B_GEOM, 12)
        assert not is_appell_type(B_ONE_PLUS_X, 12)
        assert not is_appell_type(B_MIXED, 12)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="b_0 = 1"):
            is_appell_type(S([2, 1, 0, 0]), 6)

    def test_conjugated_catalan_matrix(self):
        # Shifting <C> one step down the diagonal gives the exponential
        # Appell matrix of C~(x) = sum C_k x^{2k} / (2k)!.
        order = 11
        mat = bcomp_matrix(B_CATALAN, order + 1)
        ctilde = Series(
            [
                catalan_number(k // 2) / factorial(k) if k % 2 == 0 else 0
                for k in range(order)
            ],
            order,
        )
        tri = RiordanMatrix(ctilde, 1, kind=EXPONENTIAL).triangle()
        for n in range(order):
            for m in range(n + 1):
                assert mat.entry(n + 1, m + 1) == tri.entry(n, m), (n, m)

    @pytest.mark.parametrize("phi", [2, 3])
    def test_appell_power_identity(self, phi):
        # [x^n] g = phi (n-1)! [x^{n-1}] C~(x) e^{phi x} when g has
        # B-function phi C(x).
        order = 12
        g = from_b_sequence(scaled(B_CATALAN, Fraction(phi)), order).g
        ctilde = Series(
            [
                catalan_number(k // 2) / factorial(k) if k % 2 == 0 else 0
                for k in range(order)
            ],
            order,
        )
        rhs = ctilde * Series(
            [Fraction(phi) ** k / factorial(k) for k in range(order)], order
        )
        for n in range(1, order):
            assert g[n] == phi * factorial(n - 1) * rhs[n - 1]


class TestRnaSeriesFamily:
    def test_base_series(self):
        assert list(rna_series(7).coeffs) == [1, 1, 1, 2, 4, 8, 17]
        assert rna_series(12) == from_b_sequence(geometric(12), 12).g

    @pytest.mark.parametrize(
        "beta,phi",
        [(1, 1), (2, 1), (1, 2), (3, 2), (1, Fraction(1, 2))],
    )
    def test_functional_equation(self, beta, phi):
        # g = 1 + x g phi / (1 - beta x^2 g).
        order = 12
        g = rna_series(order, beta=beta, phi=phi)
        denom = one_series(order) - g.shift_up(2, extend=False) * beta
        rhs = one_series(order) + (g * Fraction(phi) / denom).shift_up()
        assert g.truncate(order - 1) == rhs.truncate(order - 1)

    def test_beta_zero_degenerates_to_geometric(self):
        assert rna_series(10, beta=0, phi=1) == geometric(10)
        assert rna_series(10, beta=0, phi=3) == geometric(10).scale_arg(3)

    @pytest.mark.parametrize("order", [1, 2, 8])
    @pytest.mark.parametrize("phi", [0, 3, Fraction(-1, 2)])
    def test_beta_zero_matches_b_solver(self, order, phi):
        got = rna_series(order, beta=0, phi=phi)
        want = from_b_sequence(Series([phi], 1), order).g
        assert (got.order, got.coeffs) == (want.order, want.coeffs)

    def test_coefficients_interpolate_bcomp_rows(self):
        # R(beta, x) with B-function phi/(1 - beta x) matches the rows
        # of <B> for B = sum beta^k x^k.
        beta, phi = Fraction(2), Fraction(3)
        b = geometric(10).scale_arg(beta)
        mat = bcomp_matrix(b, 11)
        g = rna_series(11, beta=beta, phi=phi)
        for n in range(11):
            assert mat.row_poly(n)(phi) == g[n]

    def test_negative_phi_parity(self):
        assert rna_series(16, 1, -1) == rna_series(16, 1, 1).alternate()
