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
  denominator for the whole series, which would grow as k! D^k.  A
  ``ParamPoly`` exponent on a rational series runs the same recurrence
  on integer polynomials in the parameter, each packed into one int of
  signed digits with the routines of the Kronecker product.
* Any other exact ring (``ParamPoly`` coefficients) runs on the generic
  loops of the same names (``generic_mul`` and so on), which need only
  ``+``, ``-``, ``*`` and division by an invertible element.  They are
  also the reference the integer routines are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times

from .rings import ParamPoly

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
    columns are the integer pairs of ``_column_pairs``."""
    if type(zero) is not Fraction:
        return generic_columns(a, n, beta, zero)
    return [_fractions(nums, den) for nums, den in _column_pairs(a, n, beta)]


def _column_pairs(a: list, n: int, beta=None):
    """The first ``n`` columns of ``columns`` on rational ``a``, each
    yielded as a reduced integer pair (nums, den), one gcd per column; for
    a of valuation v, column m vanishes below row m v, so only its tail
    is multiplied."""
    if n < 1:
        return
    x, dx = _integers(a)
    size = len(a)
    v = 0  # the valuation of a
    while v < size and not x[v]:
        v += 1
    if v:
        x = x[v:]
    p, q = (1, 1) if beta is None else (beta.numerator, beta.denominator)
    nums, den = [1] + [0] * (size - 1), 1
    yield nums, den
    for m in range(1, n):
        lo = m * v
        if lo >= size:
            nums = [0] * size
        else:
            tail = nums[lo - v:] if v else nums
            if beta is not None:
                tail = [(p + s * q) * c for s, c in enumerate(tail, lo - v)]
            nums = _kronecker_mul(x, tail, size - lo)
            if lo:
                nums = [0] * lo + nums
        den *= dx * q * m
        r = gcd(den, *nums)
        nums, den = [c // r for c in nums], den // r
        yield nums, den


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
    section 4.7).  ``e`` is rational or a ``ParamPoly``; with a
    ``ParamPoly`` exponent the outputs are ``ParamPoly`` in its symbol,
    and a rational series still runs on integers."""
    if a[0] != 1:
        raise ValueError("power requires constant term 1")
    if type(zero) is not Fraction:
        return generic_power(a, n, e, zero)
    x, dx = _integers(a[:n])
    if isinstance(e, ParamPoly):
        nums, q = _integers(e.coeffs or [ZERO])
        nums[0] += q
        return _miller(x, dx, n, nums, q, q, e.symbol)
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


def _miller(x: list, dx: int, n: int, u, v: int, q: int, symbol=None) -> list:
    """w_0 = 1, w_k = sum_(j=1..k) (u j - v k) x_j w_(k-j) / (dx q k) for
    an integer vector x over dx.  Each w_k is a reduced pair N_k / Q_k;
    step k sums over the lcm L of the Q_(k-j) with x_j != 0, so
    w_k = sum (u j - v k) x_j N_(k-j) (L / Q_(k-j)) / (L dx q k), one
    gcd per step.

    With a ``symbol``, u is the integer coefficient list of a polynomial
    in the parameter, and so is each N_k, held packed as the int
    sum_i N_k,i 2^(B i) of signed digits (``_pack``): the sum of step k
    is u S_1 - v k S_0 with S_t = sum j^t x_j N_(k-j) (L / Q_(k-j)), one
    scalar product per j.  B comes from a bound on the digits of step
    k's sum; when the bound outgrows it, B widens and the stored N are
    repacked."""
    support = [j for j in range(1, n) if x[j]]
    nums, dens = [1], [1]
    if symbol is None:
        out = [Fraction(1)]
    else:
        deg = len(u) - 1
        norm = sum(map(abs, u)) + v
        bits = [1]  # bit length of the largest digit of each N_k
        size = _digit_size(norm.bit_length())  # B = 8 size bits per digit
        half = 1 << (8 * size - 1)
        packed_u = _pack(u, size, half)
        out = [ParamPoly((1,), symbol)]
    top = 0  # support[:top] holds the j <= k
    for k in range(1, n):
        if top < len(support) and support[top] == k:
            top += 1
        js = support[:top]
        den = lcm(*[dens[k - j] for j in js])
        if symbol is None:
            acc = 0
            for j in js:
                c = u * j - v * k
                if c:
                    acc += c * x[j] * nums[k - j] * (den // dens[k - j])
            w = Fraction(acc, den * dx * q * k)
            nums.append(w.numerator)
            dens.append(w.denominator)
            out.append(w)
            continue
        cs = [x[j] * (den // dens[k - j]) for j in js]
        need = max([c.bit_length() + bits[k - j] for c, j in zip(cs, js)], default=0)
        need += (len(js) * k * norm).bit_length()
        if _digit_size(need) > size:
            old, old_half = size, half
            size = _digit_size(need + need // 2)
            half = 1 << (8 * size - 1)
            nums = [
                _pack(_unpack(p, i * deg + 1, old, old_half), size, half)
                for i, p in enumerate(nums)
            ]
            packed_u = _pack(u, size, half)
        s0 = s1 = 0
        for c, j in zip(cs, js):
            t = c * nums[k - j]
            s0 += t
            s1 += j * t
        acc = packed_u * s1 - v * k * s0
        digits = _unpack(acc, k * deg + 1, size, half)
        d = den * dx * q * k
        r = gcd(d, *digits)
        nums.append(acc // r)
        dens.append(d // r)
        bits.append((max(map(abs, digits)) // r).bit_length())
        out.append(ParamPoly([Fraction(c, d) for c in digits], symbol))
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
    bound = min(len(x), len(y)) * max(map(abs, x)) * max(map(abs, y))
    size = _digit_size(bound.bit_length())
    half = 1 << (8 * size - 1)
    return _unpack(_pack(x, size, half) * _pack(y, size, half), n, size, half)


def _pack(v: list, size: int, half: int) -> int:
    """sum_i v[i] 256^(size i) for |v[i]| < half."""
    raw = b"".join([(c + half).to_bytes(size, "little") for c in v])
    return int.from_bytes(raw, "little") - _bias(len(v), size, half)


def _digit_size(bits: int) -> int:
    """Bytes per digit for digits below 2^bits in absolute value: the
    least ``size`` with half = 2^(8 size - 1) >= 2^bits."""
    return bits // 8 + 1


def _unpack(v: int, count: int, size: int, half: int) -> list:
    """The first ``count`` digits d_i of v = sum_i d_i 256^(size i), for
    |d_i| < half."""
    # biased by half, every digit is in [0, 2 half), so no digit borrows
    raw = (v + _bias(count, size, half)) & ((1 << (8 * size * count)) - 1)
    raw = raw.to_bytes(size * count, "little")
    return [
        int.from_bytes(raw[i:i + size], "little") - half
        for i in range(0, size * count, size)
    ]


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
