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

from .rings import ZERO
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

    __slots__ = ("f", "g", "kind")

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
        w = self.xg()
        columns = [self.f]
        for _ in range(1, self.order):
            columns.append(columns[-1] * w)
        if self.kind == EXPONENTIAL:
            columns = [
                [c * Fraction(factorial(i), factorial(m)) if c else c
                 for i, c in enumerate(col.coeffs)]
                for m, col in enumerate(columns)
            ]
        return Triangle.from_columns(columns)

    # -- group structure -------------------------------------------------

    def multiply(self, other: "RiordanMatrix") -> "RiordanMatrix":
        """Matrix product; a product of Bell pairs is one, so composes once."""
        if self.kind != other.kind:
            raise ValueError("cannot multiply matrices of different kinds")
        w = self.xg(extend=True)
        g = self.g * other.g.compose(w)
        bell = self.f == self.g and other.f == other.g
        f = g if bell else self.f * other.f.compose(w)
        return RiordanMatrix(f, g, self.kind)

    def __mul__(self, other):
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self.multiply(other)

    def inverse(self) -> "RiordanMatrix":
        """Group inverse; requires invertible f(0) and g(0)."""
        if not self.f[0]:
            raise ValueError("the inverse needs f(0) != 0")
        if not self.g[0]:
            raise ValueError("the inverse needs g(0) != 0")
        # wbar g(wbar) = x for wbar = revert(xg), so 1/g(wbar) = wbar/x
        wbar = self.xg(extend=True).revert()
        ginv = wbar.shift_down(1)
        f = ginv if self.f == self.g else 1 / self.f.compose(wbar)
        return RiordanMatrix(f, ginv, self.kind)

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
        if not self.g[0]:
            raise ValueError("the A-sequence needs g(0) != 0")
        # g(wbar) = x/wbar, as wbar g(wbar) = x for wbar = revert(xg)
        return 1 / self.xg(extend=True).revert().shift_down(1)

    # -- pseudo-involution and B-sequence --------------------------------

    def is_pseudo_involution(self) -> bool:
        """Whether ``M^-1 = D M D`` with D = (1, -x): D M D = (f(-x), x g(-x)).

        The diagonal of M (D M D) is f(0)^2 g(0)^(2m), so f(0)^2 = g(0)^2 = 1
        is checked first; a singular input (f(0) = 0 or g(0) = 0) fails it.
        """
        if self.f[0] ** 2 != 1 or self.g[0] ** 2 != 1:
            return False
        dmd = RiordanMatrix(self.f.alternate(), self.g.alternate(), self.kind)
        return self.inverse() == dmd

    def b_sequence(self) -> Series:
        """Extract the B-sequence: g = 1 + x g * B(x^2 g).

        Such a B exists exactly for pseudo-involutions (Cheon, Kim &
        Shapiro 2008), and then every column of (f, xg) obeys the B
        recurrence.  B(u) = (g - 1)/(x g) with u = x^2 g: b_0 is its
        constant term, and (B(u) - b_0)/u = b_1 + b_2 u + ... repeats.
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
        if self.order < 2:
            raise NoBSequenceError(
                "no consistent B-sequence: a B-sequence needs order at least 2"
            )
        ginv = 1 / self.g
        rest = (self.g - 1).shift_down(1) * ginv
        terms = [rest[0]]
        while rest.order > 2:
            rest = (rest - terms[-1]).shift_down(2) * ginv
            terms.append(rest[0])
        return Series(terms, len(terms))

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
        # h = r(w) = x/w, as w r(w) = x for w = revert(x r), r = sqrt(g)
        w_x = self.g.sqrt().shift_up(1, extend=True).revert().shift_down(1)
        h = 1 / w_x
        if h * h.alternate() != one_series(h.order):
            raise FactorizationError(
                "factorization inconsistency: h(x) h(-x) != 1"
            )
        return h, (h - w_x) / 2


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

    ``b`` is read as a polynomial (zero beyond its window).  The
    factorization (1, xg) = (1, x sqrt(g)) (1, xh) read backwards: the
    odd series s = x b(x^2)/2 gives h = s + sqrt(1 + s^2), and then
    x sqrt(g) = revert(x/h).
    """
    b = _as_series(b)
    odd = [ZERO] * order
    for k, c in zip(range(1, order, 2), b.coeffs):
        odd[k] = c / 2
    s = Series(odd, order)
    h = s + (1 + s * s).sqrt()
    root = (1 / h).shift_up(1, extend=True).revert().shift_down(1)
    g = root * root
    f = g if bell else one_series(order)
    return RiordanMatrix(f, g)
