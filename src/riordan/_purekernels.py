"""Kernels for truncated power-series arithmetic.

Each function operates on plain lists of coefficients of one fixed
truncation length (``n``, or the input's length for ``columns``) and
returns new lists of that length.  ``zero`` is the ring's additive
identity, and its type picks the method:

* ``Fraction`` coefficients run on integers.  Each input is put over one
  common denominator, the lcm of its denominators, and the kernels work
  on its integer numerators; a ``Fraction`` is built once per output
  coefficient.  A product of integer vectors is one big-integer product
  by Kronecker substitution: each vector is packed into one int, a
  coefficient per digit, at a digit width that holds every coefficient
  of the product, and the digits of the product are read back
  (Schoenhage 1982; D. Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", J. Symbolic Comput. 2009).
  ``exp`` and ``power`` run one first-order recurrence, J. C. P.
  Miller's formula for a power of a power series (Knuth, TAOCP Vol. 2,
  section 4.7), and keep each output as its own reduced integer pair:
  step k sums over the lcm of the denominators it reads, not over one
  denominator for the whole series, which would grow as k! D^k.
* Any other exact ring (``ParamPoly`` coefficients) runs on the generic
  loops of the same names (``generic_mul`` and so on), which need only
  ``+``, ``-``, ``*`` and division by an invertible element.  They are
  also the reference the integer routines are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times

ZERO = Fraction(0)


def mul(a: list, b: list, n: int, zero=ZERO) -> list:
    """Product of two series truncated to length ``n``."""
    if type(zero) is not Fraction:
        return generic_mul(a, b, n, zero)
    (x, dx), (y, dy) = _integers(a[:n]), _integers(b[:n])
    return _fractions(_kronecker_mul(x, y, n), dx * dy)


def div(a: list, b: list, n: int, zero=ZERO) -> list:
    """Quotient ``a / b``; requires an invertible leading coefficient."""
    if not b[0]:
        raise ZeroDivisionError("division by a series with zero constant term")
    if type(zero) is not Fraction:
        return generic_div(a, b, n, zero)
    (x, dx), (y, dy) = _integers(a[:n]), _integers(b[:n])
    # a/b = (dy/dx) (x/y), and [x^k] x/y = num_k / y0^(k+1) with
    # num_k = x_k y0^k - sum_{i=1..k} (y_i y0^(i-1)) num_(k-i)
    y0 = y[0]
    scaled, p = [], 1
    for yi in y[1:]:
        scaled.append(yi * p)
        p *= y0
    num, p = [], 1
    for k in range(n):
        num.append(x[k] * p - sum(map(_times, scaled, reversed(num))))
        p *= y0
    out, den = [], dx * y0
    for v in num:
        out.append(Fraction(v * dy, den))
        den *= y0
    return out


def compose(a: list, b: list, n: int, zero=ZERO) -> list:
    """Composition ``a(b(x))``; requires ``b[0] == 0``."""
    if b[0]:
        raise ValueError("composition requires an inner series with zero constant term")
    if type(zero) is not Fraction:
        return generic_compose(a, b, n, zero)
    (x, dx), (y, dy) = _integers(a[:n]), _integers(b[:n])
    # Horner from the top coefficient down.  out = sum_{i>=k} a_i b^(i-k)
    # is held as integers over dx * dy^(n-1-k); b has valuation 1, so
    # only its first n-k terms reach the result.
    out, p = [x[-1]], 1
    for k in range(n - 2, -1, -1):
        p *= dy
        out = _kronecker_mul(out, y, n - k)
        out[0] += x[k] * p
    return _fractions(out, dx * p)


def revert(f: list, n: int, zero=ZERO) -> list:
    """Compositional inverse: the series ``g`` with ``f(g(x)) = x``.

    Requires ``f[0] == 0`` and ``f[1]`` invertible.
    """
    if f[0]:
        raise ValueError("reversion requires zero constant term")
    if not f[1]:
        raise ZeroDivisionError("reversion requires an invertible linear coefficient")
    if type(zero) is not Fraction:
        return generic_revert(f, n, zero)
    y, dy = _integers(f[:n])
    y1 = y[1]
    # powers[k][j] = [x^(j+k)] y^k, from the powers of y/x
    shifted = y[1:]
    powers = [None, shifted]
    for k in range(2, n):
        powers.append(_kronecker_mul(powers[-1], shifted, n - k))
    # v = revert(y / y1) has x^m coefficient v_m = V_m / y1^(m-1) with V_m
    # an integer (reversion coefficients are integer polynomials in the
    # y_i / y1), and x = sum_k v_k (y / y1)^k gives
    # V_m = -(sum_{k<m} V_k [x^m] y^k y1^(2(m-1-k))) / y1^(m-2).
    # Then g(x) = v(x dy / y1).
    out = [ZERO] * n
    big_v = [None, 1]
    square = y1 * y1
    num, den, scale = dy, y1, 1  # dy^m, y1^(2m-1), y1^(m-2)
    if n > 1:
        out[1] = Fraction(num, den)
    for m in range(2, n):
        acc = 0
        for k in range(1, m):
            acc = acc * square + big_v[k] * powers[k][m - k]
        big_v.append(-acc // scale)
        scale *= y1
        num *= dy
        den *= square
        out[m] = Fraction(big_v[m] * num, den)
    return out


def columns(a: list, n: int, beta=None, zero=ZERO) -> list:
    """The first ``n`` columns of c_0 = 1, c_m = a (w c_(m-1)) / m, as long
    as ``a``: w_s = 1 without ``beta`` (c_m = a^m / m!), w_s = beta + s with
    it (a = x b gives c_m = x b ((beta + xD) c_(m-1)) / m).  Rational
    columns stay integers over one denominator, one gcd per column."""
    if type(zero) is not Fraction:
        return generic_columns(a, n, beta, zero)
    x, dx = _integers(a)
    p, q = (1, 1) if beta is None else (beta.numerator, beta.denominator)
    nums, den = [1] + [0] * (len(a) - 1), 1
    cols = [_fractions(nums, den)]
    for m in range(1, n):
        if beta is not None:
            nums = [(p + s * q) * c for s, c in enumerate(nums)]
        nums = _kronecker_mul(x, nums, len(a))
        den *= dx * q * m
        r = gcd(den, *nums)
        nums, den = [c // r for c in nums], den // r
        cols.append(_fractions(nums, den))
    return cols[:n]


def exp(a: list, n: int, zero=ZERO) -> list:
    """Exponential of a series with ``a[0] == 0``, truncated to length ``n``:
    w_0 = 1, w_k = (1/k) sum_(j=1..k) j a_j w_(k-j), from w' = a' w."""
    if a[0]:
        raise ValueError("exp requires constant term 0")
    if type(zero) is not Fraction:
        return generic_exp(a, n, zero)
    x, dx = _integers(a[:n])
    return _miller(x, dx, n, 1, 0, 1)


def power(a: list, n: int, e, zero=ZERO) -> list:
    """The power a^e of a series with ``a[0] == 1``, truncated to length
    ``n``: w_0 = 1, w_k = (1/k) sum_(j=1..k) ((e+1) j - k) a_j w_(k-j),
    from a w' = e a' w (J. C. P. Miller's formula, Knuth, TAOCP Vol. 2,
    section 4.7).  A ``ParamPoly`` exponent needs a ``ParamPoly`` zero."""
    if a[0] != 1:
        raise ValueError("power requires constant term 1")
    if type(zero) is not Fraction:
        return generic_power(a, n, e, zero)
    x, dx = _integers(a[:n])
    p, q = e.numerator, e.denominator
    return _miller(x, dx, n, p + q, q, q)


# -- integer vectors ------------------------------------------------------


def _integers(a: list) -> tuple[list, int]:
    """Integer numerators of ``a`` over the lcm of its denominators."""
    den = lcm(*[c.denominator for c in a])
    if den == 1:
        return [c.numerator for c in a], 1
    return [c.numerator * (den // c.denominator) for c in a], den


def _fractions(nums: list, den: int) -> list:
    if den == 1:
        return [Fraction(v) for v in nums]
    return [Fraction(v, den) for v in nums]


def _miller(x: list, dx: int, n: int, u: int, v: int, q: int) -> list:
    """w_0 = 1, w_k = sum_(j=1..k) (u j - v k) x_j w_(k-j) / (dx q k) for
    an integer vector x over dx.  Each w_k is a reduced pair N_k / Q_k;
    step k sums over the lcm L of the Q_(k-j) with x_j != 0, so
    w_k = sum (u j - v k) x_j N_(k-j) (L / Q_(k-j)) / (L dx q k), one
    gcd per step."""
    support = [j for j in range(1, n) if x[j]]
    nums, dens, out = [1], [1], [Fraction(1)]
    top = 0  # support[:top] holds the j <= k
    for k in range(1, n):
        if top < len(support) and support[top] == k:
            top += 1
        js = support[:top]
        den = lcm(*[dens[k - j] for j in js])
        acc = 0
        for j in js:
            c = u * j - v * k
            if c:
                acc += c * x[j] * nums[k - j] * (den // dens[k - j])
        w = Fraction(acc, den * dx * q * k)
        nums.append(w.numerator)
        dens.append(w.denominator)
        out.append(w)
    return out


def _kronecker_mul(x: list, y: list, n: int) -> list:
    """First ``n`` coefficients of the product of two integer vectors."""
    x, y = x[:n], y[:n]
    while x and not x[-1]:
        x.pop()
    while y and not y[-1]:
        y.pop()
    if not x or not y:
        return [0] * n
    # digits of ``size`` bytes hold any |coefficient| <= bound below half
    bound = min(len(x), len(y)) * max(map(abs, x)) * max(map(abs, y))
    size = bound.bit_length() // 8 + 1
    half = 1 << (8 * size - 1)
    product = _pack(x, size, half) * _pack(y, size, half)
    # biased by half, every digit is in [0, 2 half), so no digit borrows
    raw = (product + _bias(n, size, half)) & ((1 << (8 * size * n)) - 1)
    raw = raw.to_bytes(size * n, "little")
    return [
        int.from_bytes(raw[i:i + size], "little") - half
        for i in range(0, size * n, size)
    ]


def _pack(v: list, size: int, half: int) -> int:
    """sum_i v[i] 256^(size i) for |v[i]| < half."""
    raw = b"".join([(c + half).to_bytes(size, "little") for c in v])
    return int.from_bytes(raw, "little") - _bias(len(v), size, half)


def _bias(count: int, size: int, half: int) -> int:
    """sum_i half 256^(size i) over ``count`` digits."""
    return int.from_bytes(half.to_bytes(size, "little") * count, "little")


# -- generic loops --------------------------------------------------------


def generic_mul(a: list, b: list, n: int, zero=ZERO) -> list:
    """Product of two series truncated to length ``n``."""
    out = []
    for k in range(n):
        acc = zero
        for i in range(k + 1):
            ai = a[i]
            if ai:
                acc = acc + ai * b[k - i]
        out.append(acc)
    return out


def generic_div(a: list, b: list, n: int, zero=ZERO) -> list:
    """Quotient ``a / b`` for ``b[0]`` invertible."""
    b0 = b[0]
    out = []
    for k in range(n):
        acc = a[k]
        for i in range(1, k + 1):
            bi = b[i]
            if bi:
                acc = acc - bi * out[k - i]
        out.append(acc / b0)
    return out


def generic_compose(a: list, b: list, n: int, zero=ZERO) -> list:
    """Composition ``a(b(x))`` for ``b[0] == 0``.

    Horner evaluation from the top coefficient down: n series products
    of length n each.
    """
    out = [zero] * n
    for k in range(n - 1, -1, -1):
        out = generic_mul(out, b, n, zero)
        out[0] = out[0] + a[k]
    return out


def generic_revert(f: list, n: int, zero=ZERO) -> list:
    """Compositional inverse for ``f[0] == 0`` and ``f[1]`` invertible.

    Solves the triangular system  x = sum_k g_k f(x)^k  coefficient by
    coefficient against precomputed powers of ``f``.
    """
    f1 = f[1]
    one = f1 / f1
    # powers[k] = f(x)^k truncated to length n
    powers = [None] * n
    if n > 0:
        p = [zero] * n
        p[0] = one
        for k in range(1, n):
            p = generic_mul(p, f, n, zero)
            powers[k] = p
    out = [zero] * n
    diag = one  # f1 ** m
    for m in range(1, n):
        diag = diag * f1
        acc = one if m == 1 else zero
        for k in range(1, m):
            c = out[k]
            if c:
                acc = acc - c * powers[k][m]
        out[m] = acc / diag
    return out


def generic_columns(a: list, n: int, beta=None, zero=ZERO) -> list:
    """``columns`` in ring arithmetic: one series product per column."""
    cols = [[Fraction(1)] + [ZERO] * (len(a) - 1)]
    for m in range(1, n):
        w = cols[-1]
        if beta is not None:
            w = [(beta + s) * c for s, c in enumerate(w)]
        cols.append([c / m for c in generic_mul(a, w, len(a), zero)])
    return cols[:n]


def generic_exp(a: list, n: int, zero=ZERO) -> list:
    """``exp`` in ring arithmetic."""
    out = [zero + 1]
    for k in range(1, n):
        acc = zero
        for j in range(1, k + 1):
            aj = a[j]
            if aj:
                acc = acc + (j * aj) * out[k - j]
        out.append(acc / k)
    return out


def generic_power(a: list, n: int, e, zero=ZERO) -> list:
    """``power`` in ring arithmetic; ``e`` may be a ``ParamPoly``."""
    e1 = e + 1
    out = [zero + 1]
    for k in range(1, n):
        acc = zero
        for j in range(1, k + 1):
            aj = a[j]
            if aj:
                acc = acc + (e1 * j - k) * aj * out[k - j]
        out.append(acc / k)
    return out
