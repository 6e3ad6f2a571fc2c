"""Exact coefficient arithmetic: rationals and one-parameter polynomials.

Two coefficient rings are supported everywhere in this package:

* ``Rational`` -- an alias for :class:`fractions.Fraction`.  Always kept
  in lowest terms; integers print without a denominator.
* :class:`ParamPoly` -- a dense univariate polynomial over ``Rational``
  in a single formal parameter.  The parameter has no value; ``symbol``,
  an identifier, only affects rendering, so polynomials produced under
  different display names (``phi``, ``beta``, ``x``) compare by
  coefficients.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class ParamPoly:
    """Polynomial in one formal parameter with exact rational coefficients.

    Coefficients are stored densely by ascending degree with trailing
    zeros stripped, so equal polynomials are structurally identical.
    Supports ring arithmetic with other polynomials and with
    ``int``/``Fraction`` scalars, evaluation, and parameter shift.
    """

    __slots__ = ("coeffs", "symbol")

    def __init__(self, coeffs=(), symbol: str = "phi"):
        if not symbol.isidentifier():
            raise ValueError(f"parameter symbol must be an identifier, got {symbol!r}")
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "symbol", symbol)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, v, symbol: str = "phi") -> "ParamPoly":
        return cls((_as_fraction(v),), symbol)

    @classmethod
    def param(cls, symbol: str = "phi") -> "ParamPoly":
        """The polynomial consisting of the bare parameter."""
        return cls((ZERO, ONE), symbol)

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a ``Fraction``."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[0] if self.coeffs else ZERO

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the parameter to the ``k``-th power."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def _join_symbol(self, other: "ParamPoly") -> str:
        """Symbol for the result of a binary operation.

        Non-constant operands must agree on the display symbol; a
        constant adopts the other side's symbol.
        """
        if self.symbol == other.symbol:
            return self.symbol
        if self.is_constant():
            return other.symbol
        if other.is_constant():
            return self.symbol
        raise ValueError(
            f"mixed parameter symbols {self.symbol!r} and {other.symbol!r}"
        )

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other, self.symbol)
        return None

    # -- ring arithmetic ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        symbol = self._join_symbol(o)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ParamPoly(out, symbol)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly([-c for c in self.coeffs], self.symbol)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        symbol = self._join_symbol(o)
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return ParamPoly((), symbol)
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return ParamPoly(out, symbol)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by an invertible (constant, nonzero) element."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.constant_value()
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        return ParamPoly([c / d for c in self.coeffs], self._join_symbol(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = ParamPoly.const(1, self.symbol)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison (symbol is display-only) ----------------------------

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.coeffs)

    # -- evaluation and substitution ------------------------------------

    def __call__(self, value):
        """Evaluate at an exact value (Horner)."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shift(self, delta) -> "ParamPoly":
        """Substitute ``parameter + delta`` for the parameter."""
        t = ParamPoly.param(self.symbol) + _as_fraction(delta)
        acc = ParamPoly.const(0, self.symbol)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def with_symbol(self, symbol: str) -> "ParamPoly":
        return ParamPoly(self.coeffs, symbol)

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = self.symbol if k == 1 else f"{self.symbol}^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({list(self.coeffs)!r}, symbol={self.symbol!r})"


def falling_factorial(t, q: int):
    """``t (t-1) (t-2) ... (t-q+1)`` with ``q`` factors.

    ``t`` may be an ``int``, ``Fraction``, or :class:`ParamPoly`; the
    result has the same type (``q = 0`` gives the multiplicative unit).
    """
    if q < 0:
        raise ValueError("falling factorial needs q >= 0")
    if isinstance(t, int):
        t = Fraction(t)
    result = t ** 0
    for i in range(q):
        result = result * (t - i)
    return result


def binomial(n: int, m: int) -> Fraction:
    """Binomial coefficient for integer arguments, as a ``Fraction``."""
    if m < 0 or m > n:
        return ZERO
    return Fraction(comb(n, m))


def format_rational(v: Fraction) -> str:
    """Canonical text form: lowest terms, integers without ``/1``."""
    return str(v)
