"""Riordan matrices: construction, group operations, A- and B-sequences.

A :class:`RiordanMatrix` is the pair ``(f, g)`` describing the
lower-triangular matrix whose column m has generating function
``f(x) * (x g(x))^m`` (ordinary kind).  The exponential kind scales
entry (n, m) by ``n!/m!``.  Both components are truncated series with a
common order, which bounds every derived object.

The distinguished subgroups appear as shapes of the pair: ``(g, g)``
(column-0 equals the defining series), ``(1, g)``, and ``(f, 1)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .rings import ONE, ZERO
from .series import Series, one_series
from .triangle import Triangle

ORDINARY = "ordinary"
EXPONENTIAL = "exponential"


class RiordanError(Exception):
    """Base class for structural errors on Riordan matrices."""


class NoBSequenceError(RiordanError):
    """Raised when no consistent B-sequence exists for the input."""


class FactorizationError(RiordanError):
    """Raised when the square-root factorization fails its checks."""


class ConsistencyError(RiordanError):
    """Raised when two independent computations of one object disagree."""


def _as_series(v, order=None):
    if isinstance(v, Series):
        return v
    if isinstance(v, (list, tuple)):
        return Series(v, order)
    if isinstance(v, (int, Fraction)):
        if order is None:
            raise ValueError("scalar series needs an explicit order")
        return Series([v], order)
    raise TypeError(f"cannot interpret {type(v).__name__} as a series")


class RiordanMatrix:
    """The matrix ``(f(x), x g(x))`` truncated to a common order."""

    __slots__ = ("f", "g", "kind", "_tri")

    def __init__(self, f, g, kind: str = ORDINARY):
        # A scalar component borrows its order from the series component.
        hint = None
        if isinstance(f, Series):
            hint = f.order
        elif isinstance(g, Series):
            hint = g.order
        f = _as_series(f, hint)
        g = _as_series(g, hint)
        if kind not in (ORDINARY, EXPONENTIAL):
            raise ValueError(f"unknown kind {kind!r}")
        n = min(f.order, g.order)
        self.f = f.truncate(n)
        self.g = g.truncate(n)
        self.kind = kind
        self._tri = None

    @property
    def order(self) -> int:
        return self.f.order

    @classmethod
    def identity(cls, order: int, kind: str = ORDINARY) -> "RiordanMatrix":
        return cls(one_series(order), one_series(order), kind)

    def xg(self, extend: bool = False) -> Series:
        """The second component ``x g(x)`` as a series."""
        return self.g.shift_up(1, extend=extend)

    # -- materialization -------------------------------------------------

    def triangle(self) -> Triangle:
        """The explicit lower-triangular array, one row per order."""
        if self._tri is not None:
            return self._tri
        n = self.order
        w = self.xg()
        col = self.f
        columns = []
        for m in range(n):
            columns.append(col.coeffs)
            if m + 1 < n:
                col = col * w
        rows = []
        for i in range(n):
            if self.kind == EXPONENTIAL:
                fi = factorial(i)
                row = [
                    columns[m][i] * Fraction(fi, factorial(m))
                    for m in range(i + 1)
                ]
            else:
                row = [columns[m][i] for m in range(i + 1)]
            rows.append(row)
        self._tri = Triangle(rows)
        return self._tri

    # -- group structure -------------------------------------------------

    def multiply(self, other: "RiordanMatrix") -> "RiordanMatrix":
        """Matrix product; composes the second components."""
        if self.kind != other.kind:
            raise ValueError("cannot multiply matrices of different kinds")
        w = self.xg(extend=True)
        f = self.f * other.f.compose(w)
        g = self.g * other.g.compose(w)
        return RiordanMatrix(f, g, self.kind)

    def __mul__(self, other):
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self.multiply(other)

    def inverse(self) -> "RiordanMatrix":
        """Group inverse; requires invertible f(0) and g(0)."""
        wbar = self.xg(extend=True).revert()
        f = 1 / self.f.compose(wbar)
        ginv = 1 / self.g.compose(wbar)
        # second component of the inverse is revert(xg) = x * (1/g(wbar))
        return RiordanMatrix(f, ginv, self.kind)

    def apply(self, s: Series) -> Series:
        """Apply the matrix to the coefficient vector of ``s``."""
        tri = self.triangle()
        vec = list(s.coeffs[: min(s.order, self.order)])
        out = tri.apply_vec(vec)
        k = min(self.order, s.order)
        return Series(out[:k], k)

    def __eq__(self, other):
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self.kind == other.kind and self.f == other.f and self.g == other.g

    __hash__ = None

    def __repr__(self):
        return (
            f"RiordanMatrix(f={self.f!r}, g={self.g!r}, "
            f"kind={self.kind!r})"
        )

    # -- kind conversion -------------------------------------------------

    def to_exponential(self) -> "RiordanMatrix":
        """Same pair read with exponential entry scaling n!/m!."""
        if self.kind != ORDINARY:
            raise ValueError("already exponential")
        return RiordanMatrix(self.f, self.g, EXPONENTIAL)

    # -- A-sequence ------------------------------------------------------

    def a_sequence(self) -> Series:
        """The series A with g = A(x g): the row-building rule."""
        wbar = self.xg(extend=True).revert()
        return self.g.compose(wbar)

    # -- pseudo-involution and B-sequence --------------------------------

    def is_pseudo_involution(self) -> bool:
        """Whether the inverse equals the sign-conjugated matrix.

        Conjugation by the diagonal sign matrix sends (f, g) to
        (f(-x), g(-x)); equality with the inverse is checked to the
        stored order.
        """
        inv = self.inverse()
        return inv.f == self.f.alternate() and inv.g == self.g.alternate()

    def b_sequence(self) -> Series:
        """Extract the B-sequence: g = 1 + x g * B(x^2 g).

        The coefficients come from the column-0 recurrence of the
        triangle of ``(g, xg)`` and are then verified against every
        recurrence instance the truncation window can see, both on the
        companion triangle and (for the crossed entries) on this
        matrix's own triangle.
        """
        if self.kind != ORDINARY:
            raise ValueError("B-sequences are defined for ordinary matrices")
        if self.g[0] != 1:
            raise NoBSequenceError(
                "no consistent B-sequence: g must have constant term 1"
            )
        if not self.is_pseudo_involution():
            raise NoBSequenceError(
                "no consistent B-sequence: the matrix is not a "
                f"pseudo-involution to order {self.order}"
            )
        bell = RiordanMatrix(self.g, self.g).triangle()
        nrows = bell.nrows
        terms: list[Fraction] = []
        for t in range(0, (nrows - 2) // 2 + 1):
            acc = bell.entry(2 * t + 1, 0)
            for i in range(t):
                acc -= terms[i] * bell.entry(2 * t - i, i)
            diag = bell.entry(t, t)
            terms.append(acc / diag)
        self._verify_b(bell, terms, min_col=0)
        if self.f != self.g:
            self._verify_b(self.triangle(), terms, min_col=1)
        return Series(terms, len(terms))

    def _verify_b(self, tri: Triangle, terms, min_col: int) -> None:
        for n in range(tri.nrows - 1):
            for m in range(min_col, n + 2):
                lhs = tri.entry(n + 1, m)
                acc = tri.entry(n, m - 1) if m >= 1 else ZERO
                for i, b in enumerate(terms):
                    if n - i < m + i:
                        break
                    if b:
                        acc += b * tri.entry(n - i, m + i)
                if lhs != acc:
                    raise NoBSequenceError(
                        "no consistent B-sequence: recurrence fails at "
                        f"entry ({n + 1}, {m})"
                    )

    # -- square-root factorization ---------------------------------------

    def sqrt_factorization(self) -> tuple[Series, Series]:
        """Split ``(1, xg)`` as ``(1, x sqrt(g)) (1, x h)``.

        Returns ``(h, s)`` where ``h = s + sqrt(s^2 + 1)`` and ``s`` is
        the odd series ``(h - 1/h)/2``.  The input must be a
        pseudo-involution of the form ``(1, xg)`` with ``g(0) = 1``.
        """
        if self.f != one_series(self.order):
            raise FactorizationError(
                "factorization inconsistency: first component must be 1"
            )
        if self.g[0] != 1:
            raise FactorizationError(
                "factorization inconsistency: g must have constant term 1"
            )
        if not self.is_pseudo_involution():
            raise FactorizationError(
                "factorization inconsistency: input is not a "
                f"pseudo-involution to order {self.order}"
            )
        r = self.g.sqrt()
        w = r.shift_up(1, extend=True).revert()
        h = r.compose(w)
        if h * h.alternate() != one_series(h.order):
            raise FactorizationError(
                "factorization inconsistency: h(x) h(-x) != 1"
            )
        s = (h - 1 / h) / 2
        if s.alternate() != -s:
            raise FactorizationError(
                "factorization inconsistency: odd part is not odd"
            )
        return h, s


# -- constructions from defining sequences ------------------------------


def from_a_sequence(a, order: int) -> RiordanMatrix:
    """Matrix ``(1, xg)`` whose rows obey the rule encoded by ``a``.

    ``a`` is a finite coefficient list or series, read as a polynomial
    (zero beyond its window); its constant term must be invertible.
    The defining relation is g = a(x g).
    """
    a = _as_series(a)
    if not a[0]:
        raise ValueError("the A-sequence needs a nonzero constant term")
    apad = a.pad_zeros(order)
    xinv = (1 / apad).shift_up(1, extend=True)
    g = xinv.revert().shift_down(1)
    return RiordanMatrix(one_series(order), g)


def from_b_sequence(b, order: int, bell: bool = False) -> RiordanMatrix:
    """Pseudo-involution ``(1, xg)`` (or ``(g, xg)``) with B-sequence ``b``.

    Solves g = 1 + x g * b(x^2 g) by iteration; ``b`` is read as a
    polynomial (zero beyond its window).
    """
    b = _as_series(b)
    bpad = b.pad_zeros(order)
    g = one_series(order)
    x = Series([ZERO, ONE], order)
    x2 = Series([ZERO, ZERO, ONE], order) if order > 2 else None
    for _ in range(order):
        arg = (x2 * g) if x2 is not None else Series([ZERO], order)
        g = one_series(order) + x * g * bpad.compose(arg)
    f = g if bell else one_series(order)
    return RiordanMatrix(f, g)
