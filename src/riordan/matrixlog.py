"""Logarithms and parametric powers of Bell-pair matrices (g, xg).

For g with g(0) = 1, K = (g, xg) - I is nilpotent at any finite
truncation.  Everything here derives, in one direction, from the log
generator b: ``log_generator`` checks g(0) = 1, sums column 0 of
log(g, xg) as sum_{p>=1} (-1)^(p-1)/p K^p e_0 over g's full order and
divides it by x, in one loop for both coefficient rings (K read off
integer columns of (g, xg) for rational g, with no triangle).
``bell_log`` fills log(g, xg) = (b(x), x) D^T, entry
(i, m) = (m+1) b_(i-m-1) (Jabotinsky, "Analytic iteration", Trans. AMS
1963); and ``composition_matrix`` has column
m = (1/m!) log(g, xg)^m e_0, whose rows, read as polynomials,
interpolate the coefficients of g^(phi).  Applying (b, x) D^T to a
column v is x b (xv)', so the columns follow
c_m = x b ((beta + xD) c_{m-1}) / m with beta = 1, the ``columns``
kernel on x b; ``composition_sum`` reads [x^n] (g^(phi))^beta off the
same recurrence for any beta, from b alone.

So two chains run from ``log_generator``: log_generator ->
composition_matrix, and log_generator -> bell_log -> bell_power.  At a
rational phi, ``bell_power`` needs only exp(phi log(g, xg)) e_0 =
sum_m phi^m c_m, summed on the kernel's integer columns, with no
composition matrix and no polynomial in phi.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._purekernels import _column_pairs, _integers, _kronecker_mul
from .core import RiordanMatrix
from .rings import ONE, ZERO, ParamPoly
from .series import Series, _power_columns
from .triangle import CompositionMatrix, Triangle


def _integer_columns(g: Series) -> list[tuple[list, int]]:
    """The n = g.order columns of (g, xg) for rational g as reduced
    integer pairs (P_m, e_m), g^(m+1) = P_m / e_m to n - m terms: column
    m - 1 times g's numerators, one Kronecker product, then one gcd.  So
    e_m is the lcm of column m's own denominators, not one for all."""
    n = g.order
    y, dy = _integers(g.coeffs)
    nums, den = y, dy
    cols = [(y, dy)]
    for m in range(1, n):
        nums, den = _kronecker_mul(nums, y, n - m), den * dy
        r = gcd(den, *nums)
        nums, den = [c // r for c in nums], den // r
        cols.append((nums, den))
    return cols


def log_generator(g: Series) -> Series:
    """The series b with log(g, xg) = (b(x), x) D^T: column 0 of the log
    divided by x, so b(0) = g'(0).  It also solves
    g^2 b(xg) = b (xg)' (Julia's equation for h = x^2 b).

    Column 0 of the log is sum_{p>=1} (-1)^(p-1)/p K^p e_0 with
    K = (g, xg) - I.  The diagonal of (g, xg) is 1 and cancels, so K is
    the strictly lower part of the triangle, and the entries of K^p e_0
    below index p vanish and are skipped.  K^p e_0 and the partial sum
    are each a vector over one integer denominator.  For rational g, K
    is P_m[i - m] (den / e_m) over den = lcm(e_m), read off the columns
    P_m / e_m of ``_integer_columns`` with no ``Fraction``, and both
    vectors are reduced by one gcd each per p; for ``ParamPoly`` g the
    rows are the triangle's ring elements over denominator 1.  b has
    order n - 1, so g needs g(0) = 1 and order n >= 2."""
    if g[0] != 1:
        raise ValueError("requires g with constant term 1")
    n = g.order
    if n < 2:
        raise ValueError(f"log_generator needs g to order at least 2, got order {n}")
    rational = g.is_rational()
    if rational:
        cols = _integer_columns(g)
        den = lcm(*[e for _, e in cols])
        k = [[cols[m][0][i - m] * (den // cols[m][1]) for m in range(i)] for i in range(n)]
    else:
        den, k = 1, [row[:-1] for row in RiordanMatrix(g, g).triangle().rows]
    vec, vden = [1] + [0] * (n - 1), 1  # K^p e_0 = vec / vden
    col, cden = [0] * n, 1  # the partial sum, col / cden
    for p in range(1, n):
        vec = [0] * p + [sum(map(mul, row[p - 1:], vec[p - 1:])) for row in k[p:]]
        if not any(vec):
            break
        vden *= den
        if rational:
            r = gcd(vden, *vec)
            vec, vden = [v // r for v in vec], vden // r
        tden = p * vden
        full = lcm(cden, tden)
        a, t = full // cden, (full // tden) * (-1) ** (p - 1)
        col, cden = [c * a + v * t for c, v in zip(col, vec)], full
        if rational:
            r = gcd(cden, *col)
            col, cden = [c // r for c in col], cden // r
    if rational:
        return Series([Fraction(c, cden) for c in col[1:]], n - 1)
    return Series([c * Fraction(1, cden) for c in col[1:]], n - 1)


def _log_column(g: Series) -> Series:
    """x b, column 0 of log(g, xg), to g's order; 0 at order 1."""
    if g.order == 1:
        if g[0] != 1:
            raise ValueError("requires g with constant term 1")
        return Series([ZERO], 1)
    return log_generator(g).shift_up(1, extend=True)


def bell_log(g: Series) -> Triangle:
    """Matrix logarithm of (g, xg): entry (i, m) is (m+1) b_(i-m-1)."""
    xb = _log_column(g)
    return Triangle(
        [[(m + 1) * xb[i - m] if i > m else ZERO for m in range(i + 1)]
         for i in range(g.order)]
    )


def composition_matrix(g: Series) -> CompositionMatrix:
    """The matrix of composition polynomials of g.

    Column m is (1/m!) log(g, xg)^m e_0: the ``columns`` kernel with
    beta = 1 on x b, from ``log_generator``.
    """
    cols = _power_columns(_log_column(g), g.order, 1)
    return CompositionMatrix(Triangle.from_columns(cols), g)


def bell_power(g: Series, phi) -> Series:
    """The series g^(phi) with (g, xg)^phi = (g^(phi), x g^(phi)).

    ``phi`` may be an exact rational or a symbol name (str), in which
    case coefficients are polynomials in that parameter, and g rational.

    At a rational phi the result is sum_m phi^m c_m over the columns c_m
    of ``composition_matrix``, read off x b, column 0 of ``bell_log``.
    For rational g the sum runs on the integer columns of the kernel
    over one running lcm, with one ``Fraction`` per coefficient.
    """
    if not isinstance(phi, (int, Fraction)):
        if not g.is_rational():
            raise TypeError(
                "bell_power with a symbolic phi needs rational g: ParamPoly"
                " coefficients cannot nest"
            )
        tri = composition_matrix(g).triangle
        symbol = phi if isinstance(phi, str) else "phi"
        power = Series([tri.row_poly(i, symbol) for i in range(tri.nrows)], tri.nrows)
        return power if isinstance(phi, str) else power.eval_param(phi)
    n = g.order
    xb = bell_log(g).column(0)
    if not g.is_rational():
        power, scale = [ZERO] * n, ONE
        for col in _power_columns(xb, n, 1):
            power = [s + scale * c for s, c in zip(power, col)]
            scale *= phi
        return Series(power, n)
    p, q = phi.numerator, phi.denominator
    acc, den = [0] * n, 1  # the partial sum, acc / den
    pm, qm = 1, 1  # p^m, q^m
    for nums, e in _column_pairs(xb.coeffs, n, 1):
        d = e * qm  # phi^m c_m = pm nums / d
        full = lcm(den, d)
        a, t = full // den, pm * (full // d)
        acc, den = [c * a + v * t for c, v in zip(acc, nums)], full
        pm, qm = pm * p, qm * q
    return Series([Fraction(c, den) for c in acc], n)


def composition_sum(
    b: Series, n: int, symbol: str = "phi", beta=1
) -> ParamPoly:
    """Closed composition-sum formula for [x^n] (g^(phi))^beta.

    The coefficient of phi^m sums, over the ordered compositions
    n = i_1 + ... + i_m, the product b_{i_1-1} ... b_{i_m-1} with the
    rising prefix factors beta (beta+i_1) (beta+i_1+i_2) ..., over m!.
    The sum is accumulated by the column recurrence of
    ``composition_matrix`` (n column products, no ceiling on n).
    With beta = 1 this is the composition polynomial c_n(phi); beta is
    an ``int`` or a ``Fraction``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not isinstance(beta, (int, Fraction)):
        raise TypeError(f"beta must be an int or a Fraction, got {beta!r}")
    if b.order < n:
        raise ValueError(f"b needs order >= {n}, has {b.order}")
    xb = b.shift_up(1, extend=True).truncate(n + 1)
    return ParamPoly([c[n] for c in _power_columns(xb, n + 1, beta)], symbol)
