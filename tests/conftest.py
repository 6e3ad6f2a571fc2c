"""Shared helpers for the test suite.

All expected values in these tests are exact rationals.  Helpers here
convert integer/fraction literals into the package types so fixtures can
be written as plain Python lists.
"""

from fractions import Fraction

import pytest

from riordan import RiordanMatrix, Series, Triangle


def S(values, order=None):
    """Series from a literal coefficient list (ints/fractions/strings)."""
    coeffs = [Fraction(v) for v in values]
    return Series(coeffs, order if order is not None else len(coeffs))


def T(rows):
    """Triangle from literal row lists."""
    return Triangle([[Fraction(v) for v in row] for row in rows])


def rows_of(tri, count=None):
    """Triangle rows as plain int/Fraction lists for literal comparison."""
    n = tri.nrows if count is None else count
    out = []
    for i in range(n):
        out.append([int(v) if v.denominator == 1 else v for v in tri.row(i)])
    return out


def poly_coeffs(p):
    """ParamPoly coefficients as a plain list (degree-indexed)."""
    return [int(c) if c.denominator == 1 else c for c in p.coeffs]


def bell_log_oracle(g):
    """log(g, xg) by its definition, the nilpotent series
    sum_{p>=1} (-1)^(p-1)/p K^p with K = (g, xg) - I, in full triangle
    products (O(n^4)).  Reference for the library's ``bell_log``,
    ``log_generator`` and ``composition_matrix``, which derive the log
    from its generator series instead."""
    n = g.order
    k = RiordanMatrix(g, g).triangle().add(Triangle.identity(n).scale(-1))
    acc = term = k
    for p in range(2, n):
        term = term.matmul(k)
        if term.is_zero():
            break
        acc = acc.add(term.scale(Fraction((-1) ** (p - 1), p)))
    return acc


@pytest.fixture
def fr():
    return Fraction


# -- shared frozen fixtures ---------------------------------------------
#
# Display triangles and coefficient tables used by several test modules
# (including the acceptance gate).  Reproduced independently by hand.

# <1+x>: B-composition matrix of B = 1 + x, rows 0..10.
ONE_PLUS_X_ROWS = [
    [1],
    [0, 1],
    [0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 3, 0, 1],
    [0, 0, 0, 6, 0, 1],
    [0, 0, 2, 0, 10, 0, 1],
    [0, 0, 0, 10, 0, 15, 0, 1],
    [0, 0, 0, 0, 30, 0, 21, 0, 1],
    [0, 0, 0, 5, 0, 70, 0, 28, 0, 1],
    [0, 0, 0, 0, 35, 0, 140, 0, 36, 0, 1],
]

# <C(x)>: B-composition matrix of the Catalan series, rows 0..10.
CATALAN_BCOMP_ROWS = [
    [1],
    [0, 1],
    [0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 3, 0, 1],
    [0, 2, 0, 6, 0, 1],
    [0, 0, 10, 0, 10, 0, 1],
    [0, 5, 0, 30, 0, 15, 0, 1],
    [0, 0, 35, 0, 70, 0, 21, 0, 1],
    [0, 14, 0, 140, 0, 140, 0, 28, 0, 1],
    [0, 0, 126, 0, 420, 0, 252, 0, 36, 0, 1],
]

# Polygon-dissection triangle: column m+1 holds x^{m+1} (1+x) T_m(x),
# rows 0..7.
DISSECTION_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 0, 3, 1],
    [0, 0, 2, 6, 1],
    [0, 0, 0, 10, 10, 1],
    [0, 0, 0, 5, 30, 15, 1],
    [0, 0, 0, 0, 35, 70, 21, 1],
]

# <1/(1-x)>: B-composition matrix of the geometric series, rows 0..10.
# Identical to the matrix-logarithm composition triangle of the RNA
# series.
RNA_BCOMP_ROWS = [
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

# RNA matrix (R(x), x R(x)), rows 0..6.
RNA_MATRIX_ROWS = [
    [1],
    [1, 1],
    [1, 2, 1],
    [2, 3, 3, 1],
    [4, 6, 6, 4, 1],
    [8, 13, 13, 10, 5, 1],
    [17, 28, 30, 24, 15, 6, 1],
]

# Narayana triangle rows 0..6 (row n lists the coefficients of N_n).
NARAYANA_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 1, 3, 1],
    [0, 1, 6, 6, 1],
    [0, 1, 10, 20, 10, 1],
    [0, 1, 15, 50, 50, 15, 1],
]

# B-sequences of (1, x B_{m+1}^{2m+1}(x)) for m = 1, 2, 3: rows 1..3 of
# ((1+x)/(1-x)^2, x/(1-x)^2).
ODD_POWER_B_ROWS = {
    1: [3, 1],
    2: [5, 5, 1],
    3: [7, 14, 7, 1],
}

# Coefficient of each monomial prod b_i^{m_i} in [x^n] g at phi = 1,
# keyed by multiplicity tuple (m_0, m_1, ...), for n = 0..10.
B1_TABLE = {
    0: {(): 1},
    1: {(1,): 1},
    2: {(2,): 1},
    3: {(3,): 1, (0, 1): 1},
    4: {(4,): 1, (1, 1): 3},
    5: {(5,): 1, (2, 1): 6, (0, 0, 1): 1},
    6: {(6,): 1, (3, 1): 10, (1, 0, 1): 4, (0, 2): 2},
    7: {(7,): 1, (4, 1): 15, (2, 0, 1): 10, (1, 2): 10, (0, 0, 0, 1): 1},
    8: {
        (8,): 1,
        (5, 1): 21,
        (3, 0, 1): 20,
        (2, 2): 30,
        (1, 0, 0, 1): 5,
        (0, 1, 1): 5,
    },
    9: {
        (9,): 1,
        (6, 1): 28,
        (4, 0, 1): 35,
        (3, 2): 70,
        (2, 0, 0, 1): 15,
        (1, 1, 1): 30,
        (0, 3): 5,
        (0, 0, 0, 0, 1): 1,
    },
    10: {
        (10,): 1,
        (7, 1): 36,
        (5, 0, 1): 56,
        (4, 2): 140,
        (3, 0, 0, 1): 35,
        (1, 3): 35,
        (2, 1, 1): 105,
        (1, 0, 0, 0, 1): 6,
        (0, 1, 0, 1): 6,
        (0, 0, 2): 3,
    },
}
