"""Truncated formal power series over exact coefficient rings.

A :class:`Series` is a fixed-length window of coefficients: indices
``0 .. order-1`` are known exactly, anything beyond is unknown (not
zero).  Binary operations truncate to the shorter operand; asking for a
coefficient past the order is an error rather than a silent zero.

Coefficients are ``Fraction`` or :class:`~riordan.rings.ParamPoly`.
Products, quotients, composition, reversion, ``exp``, ``sqrt``,
``pow_rat`` and ``pow_param`` make one kernel call each, passing the
zero of the coefficient ring: the kernels run rational series on
integers and polynomial coefficients on generic loops (see
:mod:`riordan._purekernels`).  ``sqrt``, ``pow_rat`` and ``pow_param``
are the ``power`` kernel, Miller's recurrence a w' = e a' w (Knuth,
TAOCP Vol. 2, section 4.7), so a power needs no log or exp, even with
a symbolic exponent.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._backend import kernels
from .rings import ONE, ZERO, ParamPoly


def _normalize(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, ParamPoly):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _ring_zero(*series):
    """The zero of the coefficient ring the series share."""
    for s in series:
        if not isinstance(s._zero, Fraction):
            return s._zero
    return ZERO


class Series:
    """Truncated power series with exact coefficients.

    ``order`` is the number of known coefficients; it is explicit in
    every result.  Equality compares coefficients up to the common
    order.  ``_zero`` is the zero of the coefficient ring, fixed once
    from the coefficients inside the window: a ``ParamPoly`` zero in the
    symbol of the first ``ParamPoly`` coefficient, else ``Fraction(0)``.
    """

    __slots__ = ("coeffs", "order", "_zero")

    def __init__(self, coeffs=(), order: int | None = None):
        cs = [_normalize(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 1:
            raise ValueError("series order must be at least 1")
        del cs[order:]
        zero = ZERO
        for c in cs:
            if not isinstance(c, Fraction):  # a ParamPoly, by _normalize
                zero = ParamPoly((), c.symbol)
                break
        cs.extend([zero] * (order - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order
        self._zero = zero

    def _one(self):
        return self._zero + 1

    # -- basic access ---------------------------------------------------

    def __getitem__(self, k: int):
        if not 0 <= k < self.order:
            raise IndexError(
                f"coefficient {k} beyond truncation order {self.order}"
            )
        return self.coeffs[k]

    def __len__(self):
        return self.order

    def valuation(self) -> int:
        """Index of the first nonzero coefficient (= order if none)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order

    def is_rational(self) -> bool:
        return isinstance(self._zero, Fraction)

    def eval_param(self, value) -> "Series":
        """Substitute an exact value for the formal parameter."""
        return Series(
            [c(value) if isinstance(c, ParamPoly) else c for c in self.coeffs],
            self.order,
        )

    # -- reshaping ------------------------------------------------------

    def truncate(self, m: int) -> "Series":
        if m > self.order:
            raise ValueError(f"cannot extend order {self.order} to {m}")
        return Series(self.coeffs[:m], m)

    def pad_zeros(self, m: int) -> "Series":
        """Extend the order with zero coefficients.

        This asserts the series is polynomial beyond the stored window;
        use only when that is known (e.g. finite coefficient lists).
        """
        if m < self.order:
            return self.truncate(m)
        return Series(self.coeffs + (self._zero,) * (m - self.order), m)

    def shift_up(self, k: int = 1, extend: bool = False) -> "Series":
        """Multiply by x^k.  With ``extend`` the order grows by ``k``
        (no information is lost); otherwise the top coefficients fall
        off the truncation window."""
        z = (self._zero,) * k
        if extend:
            return Series(z + self.coeffs, self.order + k)
        return Series(z + self.coeffs[: self.order - k], self.order)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by x^k; the first ``k`` coefficients must vanish."""
        if any(self.coeffs[i] for i in range(min(k, self.order))):
            raise ValueError(f"series is not divisible by x^{k}")
        if self.order - k < 1:
            raise ValueError("shift_down would leave an empty series")
        return Series(self.coeffs[k:], self.order - k)

    def alternate(self) -> "Series":
        """Substitute -x for x."""
        return Series(
            [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)],
            self.order,
        )

    def scale_arg(self, c) -> "Series":
        """Substitute c*x for x."""
        c = _normalize(c)
        out, p = [], self._one()
        for a in self.coeffs:
            out.append(a * p)
            p = p * c
        return Series(out, self.order)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return Series([_normalize(other)], self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self.coeffs[k] + o.coeffs[k] for k in range(n)], n)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self.coeffs[k] - o.coeffs[k] for k in range(n)], n)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            c = _normalize(other)
            return Series([a * c for a in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = list(self.coeffs[:n]), list(other.coeffs[:n])
        return Series(kernels.mul(a, b, n, _ring_zero(self, other)), n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            c = _normalize(other)
            return Series([a / c for a in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = list(self.coeffs[:n]), list(other.coeffs[:n])
        return Series(kernels.div(a, b, n, _ring_zero(self, other)), n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "Series":
        """Multiplicative inverse 1/self."""
        return 1 / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("use pow_rat for non-integer exponents")
        if k < 0:
            return self.inverse() ** (-k)
        result = Series([self._one()], self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- composition ----------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); the inner constant term must vanish."""
        n = min(self.order, inner.order)
        a, b = list(self.coeffs[:n]), list(inner.coeffs[:n])
        return Series(kernels.compose(a, b, n, _ring_zero(self, inner)), n)

    def revert(self) -> "Series":
        """Compositional inverse: g with self(g(x)) = x."""
        n = self.order
        return Series(kernels.revert(list(self.coeffs), n, _ring_zero(self)), n)

    # -- calculus -------------------------------------------------------

    def derivative(self) -> "Series":
        if self.order < 2:
            raise ValueError("derivative of an order-1 series is unknown")
        return Series(
            [k * self.coeffs[k] for k in range(1, self.order)], self.order - 1
        )

    def integral(self) -> "Series":
        """Term-by-term antiderivative with zero constant term."""
        out = [self._zero]
        for k, c in enumerate(self.coeffs):
            out.append(c / (k + 1))
        return Series(out, self.order + 1)

    # -- analytic-style operations (exact recurrences) ------------------

    def sqrt(self) -> "Series":
        """Square root of a series with constant term exactly 1: the
        ``power`` kernel at e = 1/2."""
        return self._power(Fraction(1, 2), "sqrt")

    def log(self) -> "Series":
        """Logarithm of a series with constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        if self.order == 1:
            return Series([self._zero], 1)
        return (self.derivative() / self.truncate(self.order - 1)).integral()

    def exp(self) -> "Series":
        """Exponential of a series with constant term exactly 0: the
        ``exp`` kernel."""
        n = self.order
        return Series(kernels.exp(list(self.coeffs), n, self._zero), n)

    def pow_rat(self, e) -> "Series":
        """Power with a rational (or ``ParamPoly``) exponent; constant term
        must be 1.  One ``power`` kernel call, by J. C. P. Miller's
        recurrence a w' = e a' w, with no log or exp; a ``ParamPoly``
        exponent gives ``ParamPoly`` coefficients in its symbol."""
        return self._power(_normalize(e), "pow_rat")

    def _power(self, e, name: str) -> "Series":
        if self.coeffs[0] != 1:
            raise ValueError(f"{name} requires constant term 1")
        n = self.order
        return Series(kernels.power(list(self.coeffs), n, e, self._zero), n)

    def pow_param(self, symbol: str = "phi") -> "Series":
        """Formal power: coefficients become polynomials in a parameter.

        The ``power`` kernel with the bare parameter as exponent, which
        runs Miller's recurrence on integer polynomials in it, with no
        log.  Specializing the parameter to any rational value gives the
        same result as :meth:`pow_rat` with that exponent.
        """
        if not self.is_rational():
            raise ValueError("pow_param needs purely rational coefficients")
        return self._power(ParamPoly.param(symbol), "pow_param")

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[:n] == other.coeffs[:n]

    __hash__ = None

    def __repr__(self):
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if isinstance(c, ParamPoly) and not c.is_constant():
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                parts.append(xk if cs == "1" else f"{cs}*{xk}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order})"


def _power_columns(a: Series, n: int, beta=None) -> list[list]:
    """The ``columns`` kernel on a in a's ring, n columns to the order of
    a.  Without beta, c_m = a^m / m!: [x^j] c_m is s_j(m) / m! with
    s_j(m) = [x^j] B^m for a = B."""
    return kernels.columns(list(a.coeffs), n, beta, _ring_zero(a))


# -- named constructors -------------------------------------------------


def zeros(order: int) -> Series:
    return Series((), order)


def one_series(order: int) -> Series:
    return Series([ONE], order)


def x_series(order: int) -> Series:
    return Series([ZERO, ONE], order) if order > 1 else Series([ZERO], 1)


def constant_series(c, order: int) -> Series:
    return Series([_normalize(c)], order)


def geometric(order: int) -> Series:
    """1/(1-x): all coefficients 1."""
    return Series([ONE] * order, order)


def exp_series(order: int) -> Series:
    """e^x: coefficients 1/k!."""
    out, f = [], ONE
    for k in range(order):
        out.append(f)
        f /= k + 1
    return Series(out, order)


def catalan(order: int) -> Series:
    """Catalan generating function (1 - sqrt(1-4x)) / (2x): C(2k, k)/(k+1)."""
    return Series([comb(2 * k, k) // (k + 1) for k in range(order)], order)


def from_coeffs(values, order: int) -> Series:
    """Series from a finite coefficient list, zero beyond the list."""
    vals = [_normalize(v) for v in values]
    if len(vals) > order:
        vals = vals[:order]
    return Series(vals, order)
