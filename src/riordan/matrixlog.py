"""Logarithms and parametric powers of Bell-pair matrices (g, xg).

For g with g(0) = 1, K = (g, xg) - I is nilpotent at any finite
truncation.  Everything here derives, in one direction, from the log
generator b: ``log_generator`` sums column 0 of log(g, xg) as
sum_{p>=1} (-1)^(p-1)/p K^p e_0 and divides it by x; ``bell_log``
fills log(g, xg) = (b(x), x) D^T, entry (i, m) = (m+1) b_(i-m-1)
(Jabotinsky, "Analytic iteration", Trans. AMS 1963); and
``composition_matrix`` has column m = (1/m!) log(g, xg)^m e_0, whose
rows, read as polynomials, interpolate the coefficients of g^(phi).
The closed composition-sum formula rebuilds those rows from b alone.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core import ConsistencyError, RiordanMatrix
from .rings import ONE, ZERO, ParamPoly
from .series import Series
from .triangle import Triangle

COMPOSITION_N_LIMIT = 24  # 2^(n-1) compositions; documented practical ceiling


def _prepare(g: Series, order: int | None) -> Series:
    if order is not None:
        if order > g.order:
            raise ValueError(
                f"g is only known to order {g.order}, cannot use {order}"
            )
        g = g.truncate(order)
    if g[0] != 1:
        raise ValueError("requires g with constant term 1")
    return g


def _scaled_powers(tri: Triangle, j: int = 0) -> list:
    """tri^p e_j / p! for p = 0 .. n-1-j, for strictly lower-triangular
    tri (higher powers vanish), one mat-vec product each."""
    vecs = [[ONE if i == j else ZERO for i in range(tri.nrows)]]
    for p in range(1, tri.nrows - j):
        vecs.append([v / p for v in tri.apply_vec(vecs[-1])])
    return vecs


def _from_columns(cols: list) -> Triangle:
    n = len(cols)
    return Triangle([[cols[m][i] for m in range(i + 1)] for i in range(n)])


def log_generator(g: Series, order: int | None = None) -> Series:
    """The series b with log(g, xg) = (b(x), x) D^T: column 0 of the log
    divided by x, verified by b(0) = g'(0) and g^2 b(xg) = b (xg)'."""
    g = _prepare(g, order)
    n = g.order
    k = RiordanMatrix(g, g).triangle().add(Triangle.identity(n).scale(-1))
    col, vec = [ZERO] * n, [ONE] + [ZERO] * (n - 1)
    for p in range(1, n):
        vec = k.apply_vec(vec)
        if not any(vec):
            break
        col = [c + Fraction((-1) ** (p - 1), p) * v for c, v in zip(col, vec)]
    b = Series(col, n).shift_down(1)
    if n >= 2 and b[0] != g[1]:
        raise ConsistencyError("log generator: b(0) != g'(0)")
    if n >= 3:
        m = b.order  # n - 1
        xg = g.truncate(m).shift_up(1, extend=True)
        lhs = g.truncate(m) ** 2 * b.compose(xg)
        rhs = b * xg.derivative()
        if lhs != rhs:
            raise ConsistencyError(
                "log generator fails g^2 b(xg) = b (xg)'"
            )
    return b


def bell_log(g: Series, order: int | None = None) -> Triangle:
    """Matrix logarithm of (g, xg): entry (i, m) is (m+1) b_(i-m-1)."""
    g = _prepare(g, order)
    n = g.order
    if n == 1:
        return Triangle([[0]])
    b = log_generator(g)
    return Triangle(
        [[(m + 1) * b[i - m - 1] if i > m else ZERO for m in range(i + 1)]
         for i in range(n)]
    )


def triangle_exp(tri: Triangle) -> Triangle:
    """Matrix exponential of a strictly lower-triangular array."""
    terms = [_scaled_powers(tri, j) for j in range(tri.nrows)]
    return _from_columns([[sum(t) for t in zip(*vecs)] for vecs in terms])


@dataclass(frozen=True)
class CompositionMatrix:
    """Rows are the composition polynomials of the source series.

    Column n of ``triangle`` holds (1/n!) log(g, xg)^n applied to the
    unit column; row n read as a polynomial c_n satisfies
    sum_n c_n(phi) x^n = bell_power(g, phi).
    """

    triangle: Triangle
    source: Series

    def entry(self, n: int, m: int):
        return self.triangle.entry(n, m)

    def row_poly(self, n: int, symbol: str = "x") -> ParamPoly:
        return self.triangle.row_poly(n, symbol)

    @property
    def nrows(self) -> int:
        return self.triangle.nrows


def composition_matrix(
    g: Series, order: int | None = None
) -> CompositionMatrix:
    """The matrix of composition polynomials of g.

    Column m is (1/m!) log(g, xg)^m e_0, computed as (1/m) log(g, xg)
    applied to column m-1.
    """
    g = _prepare(g, order)
    return CompositionMatrix(_from_columns(_scaled_powers(bell_log(g))), g)


def bell_power(g: Series, phi, order: int | None = None) -> Series:
    """The series g^(phi) with (g, xg)^phi = (g^(phi), x g^(phi)).

    ``phi`` may be an exact rational or a symbol name (str), in which
    case coefficients are polynomials in that parameter.
    """
    cm = composition_matrix(g, order)
    tri = cm.triangle
    n = tri.nrows
    if isinstance(phi, str):
        return Series([ParamPoly(tri.row(i), phi) for i in range(n)], n)
    phi = Fraction(phi) if isinstance(phi, int) else phi
    return Series(
        [ParamPoly(tri.row(i), "phi")(phi) for i in range(n)], n
    )


def _compositions(n: int, parts: tuple[int, ...]):
    """Ordered compositions of n from the allowed part sizes."""
    if n == 0:
        yield ()
        return
    for p in parts:
        if p <= n:
            for rest in _compositions(n - p, parts):
                yield (p,) + rest


def composition_sum(
    b: Series, n: int, symbol: str = "phi", beta=1
) -> ParamPoly:
    """Closed composition-sum formula for [x^n] (g^(phi))^beta.

    Sums over ordered compositions n = i_1 + ... + i_m the product
    b_{i_1-1} ... b_{i_m-1} with the rising prefix factors
    beta (beta+i_1) (beta+i_1+i_2) ... ; the phi^m weight is 1/m!.
    With beta = 1 this is the composition polynomial c_n(phi).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > COMPOSITION_N_LIMIT:
        raise ValueError(
            f"composition enumeration is limited to n <= {COMPOSITION_N_LIMIT}"
        )
    beta = Fraction(beta) if isinstance(beta, int) else beta
    if n == 0:
        return ParamPoly.const(1, symbol)
    if b.order < n:
        raise ValueError(f"b needs order >= {n}, has {b.order}")
    parts = tuple(p for p in range(1, n + 1) if b[p - 1])
    by_m: dict[int, Fraction] = defaultdict(lambda: Fraction(0))
    for comp in _compositions(n, parts):
        prod = beta
        partial = 0
        for part in comp[:-1]:
            partial += part
            prod *= beta + partial
        for part in comp:
            prod *= b[part - 1]
        by_m[len(comp)] += prod
    top = max(by_m)
    return ParamPoly(
        [by_m.get(m, Fraction(0)) / factorial(m) for m in range(top + 1)],
        symbol,
    )
