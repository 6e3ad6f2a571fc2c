"""Lower-triangular arrays of exact values.

A :class:`Triangle` stores rows 0..N-1, row n having n+1 entries.
Besides entry access it provides the four standard reading directions:
rows (as coefficient lists or polynomials), columns (as power series in
the row index), descending diagonals (series along n-m = const read by
column), and ascending diagonals (polynomials along n+m = const).

Triangles also support a little linear algebra: addition, scaling,
triangular matrix product, and application to a coefficient vector.
:class:`CompositionMatrix` reads a triangle's rows as the polynomials
of a power family of its source series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rings import ParamPoly, ZERO
from .series import Series


class Triangle:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = []
        for n, row in enumerate(rows):
            row = tuple(
                c if isinstance(c, (Fraction, ParamPoly)) else Fraction(c)
                for c in row
            )
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            rs.append(row)
        self.rows = tuple(rs)

    @classmethod
    def identity(cls, n: int) -> "Triangle":
        return cls([[int(i == m) for m in range(i + 1)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "Triangle":
        """The triangle whose column m is ``cols[m]``, one row per column."""
        n = len(cols)
        return cls([[cols[m][i] for m in range(i + 1)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, n: int, m: int):
        """Entry at row n, column m; zero above the diagonal."""
        if n < 0 or m < 0 or n >= self.nrows:
            raise IndexError(f"entry ({n}, {m}) outside stored rows")
        if m > n:
            return ZERO
        return self.rows[n][m]

    def row(self, n: int) -> tuple:
        return self.rows[n]

    def row_poly(self, n: int, symbol: str = "x") -> ParamPoly:
        """Row n as a polynomial in the column index variable."""
        return ParamPoly(self.rows[n], symbol)

    def column(self, m: int) -> Series:
        """Column m as a power series in x (rows beyond storage unknown)."""
        if m >= self.nrows:
            raise IndexError(f"column {m} outside stored rows")
        return Series([self.entry(n, m) for n in range(self.nrows)], self.nrows)

    def diag_down(self, n: int) -> Series:
        """Descending diagonal starting at (n, 0): sum_m entry(n+m, m) x^m."""
        if n >= self.nrows:
            raise IndexError(f"diagonal {n} outside stored rows")
        k = self.nrows - n
        return Series([self.entry(n + m, m) for m in range(k)], k)

    def diag_up(self, n: int, symbol: str = "x") -> ParamPoly:
        """Ascending diagonal of index n: sum_k entry(n-k, k) x^k.

        Entries with k > n-k vanish by triangularity, so this is a
        polynomial of degree at most n/2.
        """
        if n >= self.nrows:
            raise IndexError(f"diagonal {n} outside stored rows")
        return ParamPoly(
            [self.entry(n - k, k) for k in range(n // 2 + 1)], symbol
        )

    # -- linear algebra --------------------------------------------------

    def matmul(self, other: "Triangle") -> "Triangle":
        n = min(self.nrows, other.nrows)
        out = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                acc = ZERO
                for k in range(j, i + 1):
                    a = self.rows[i][k]
                    if a:
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Triangle(out)

    def add(self, other: "Triangle") -> "Triangle":
        n = min(self.nrows, other.nrows)
        return Triangle(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(i + 1)]
                for i in range(n)
            ]
        )

    def scale(self, c) -> "Triangle":
        return Triangle([[e * c for e in row] for row in self.rows])

    def apply_vec(self, vec) -> list:
        """Matrix-vector product against a column vector (list, padded
        with zeros beyond its length)."""
        out = []
        for i in range(self.nrows):
            acc = ZERO
            for j in range(min(i + 1, len(vec))):
                v = vec[j]
                if v:
                    acc = acc + self.rows[i][j] * v
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def truncate(self, n: int) -> "Triangle":
        return Triangle(self.rows[:n])

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"Triangle({self.nrows} rows)"

    def __str__(self):
        return "\n".join(
            " ".join(str(e) for e in row) for row in self.rows
        )


@dataclass(frozen=True)
class CompositionMatrix:
    """A triangle whose row n, read as a polynomial in the column index,
    interpolates [x^n] of a power family of ``source``.

    ``composition_matrix(g)`` gives the composition polynomials,
    sum_n c_n(phi) x^n = bell_power(g, phi); ``bcomp_matrix(B, n)``
    (also named ``BCompMatrix``) gives <B>, whose row n interpolates
    [x^n] g^[phi].
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
