"""Matrix logarithms and parametric powers of Bell pairs (g, xg)."""

from fractions import Fraction
from math import factorial

import pytest

from riordan import (
    COMPOSITION_N_LIMIT,
    RiordanMatrix,
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
    triangle_exp,
    x_series,
)
from conftest import S, bell_log_oracle, rows_of

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

    def test_order_restriction(self):
        assert bell_log(catalan(9), order=4).nrows == 4
        with pytest.raises(ValueError, match="only known to order"):
            bell_log(catalan(4), order=9)


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
            with pytest.raises(ValueError, match="empty series"):
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
        with pytest.raises(ValueError, match=str(COMPOSITION_N_LIMIT)):
            composition_sum(b, COMPOSITION_N_LIMIT + 1)
        with pytest.raises(ValueError, match="order"):
            composition_sum(one_series(3), 5)


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
