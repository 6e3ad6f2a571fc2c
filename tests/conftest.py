"""Shared helpers for the test suite.

All expected values in these tests are exact rationals.  Helpers here
convert integer/fraction literals into the package types so fixtures can
be written as plain Python lists.
"""

from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd, lcm, perm
from operator import mul

import pytest
from hypothesis import strategies as st

from riordan import (
    EXPONENTIAL,
    ORDINARY,
    FactorizationError,
    NoBSequenceError,
    ParamPoly,
    RiordanMatrix,
    Series,
    Triangle,
    falling_factorial,
    odd_partitions,
    one_series,
)
from riordan._purekernels import _integers
from riordan.bexpansion import _b_coeffs, _odd_mults, _odd_mults_cached, _sums_by_parts
from riordan.core import _as_series
from riordan.matrixlog import bell_log, composition_matrix
from riordan.series import _power_columns
from riordan.rings import ONE, ZERO


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


def generic_log_generator(g: Series) -> Series:
    """``log_generator`` as n ``Triangle.apply_vec`` products on
    K = (g, xg) - I in ring arithmetic, the full mat-vec on every row.
    Reference for ``log_generator``, which runs the strictly lower rows
    on integers over one denominator, or on ring elements over
    denominator 1 for ``ParamPoly`` g."""
    n = g.order
    k = RiordanMatrix(g, g).triangle().add(Triangle.identity(n).scale(-1))
    col, vec = [ZERO] * n, [ONE] + [ZERO] * (n - 1)
    for p in range(1, n):
        vec = k.apply_vec(vec)
        if not any(vec):
            break
        col = [c + Fraction((-1) ** (p - 1), p) * v for c, v in zip(col, vec)]
    return Series(col[1:], n - 1)


def log_generator_oracle(g: Series) -> Series:
    """The former ``log_generator``: the integer mat-vec loop on K read
    off the ``Fraction`` triangle of (g, g), every entry turned back
    into an integer over the lcm of its denominators.  Reference for
    ``log_generator``, which reads K's rows off ``_integer_columns``
    for rational g."""
    if g[0] != 1:
        raise ValueError("requires g with constant term 1")
    n = g.order
    if n < 2:
        raise ValueError(f"log_generator needs g to order at least 2, got order {n}")
    lower = [row[:-1] for row in RiordanMatrix(g, g).triangle().rows]
    rational = g.is_rational()
    if rational:
        den = lcm(*[c.denominator for row in lower for c in row])
        k = [[c.numerator * (den // c.denominator) for c in row] for row in lower]
    else:
        den, k = 1, lower
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


# denominator of coefficient k in each rational ring that
# ``ring_series`` draws from: integers, powers of 2 and of 3,
# harmonic, and the coefficients of 1/(1 - x/1000)
RING_DENOMINATORS = {
    "integer": lambda k: 1,
    "dyadic": lambda k: 2**k,
    "3-adic": lambda k: 3**k,
    "harmonic": lambda k: k + 1,
    "geometric-1000": lambda k: 1000**k,
}


@st.composite
def ring_series(draw, order, head=None):
    """A series of the given order over one of ``RING_DENOMINATORS``,
    numerator k from -5..5 and zero about half the time, so interior
    terms vanish; ``head`` fixes the constant term."""
    den = RING_DENOMINATORS[draw(st.sampled_from(sorted(RING_DENOMINATORS)))]
    nums = draw(st.lists(
        st.one_of(st.just(0), st.integers(-5, 5)), min_size=order, max_size=order
    ))
    if head is not None:
        nums[0] = head
    return Series([Fraction(c, den(k)) for k, c in enumerate(nums)], order)


def sqrt_oracle(s: Series) -> Series:
    """The square root by out_k = (s_k - sum_(0<i<k) out_i out_(k-i)) / 2,
    in ring arithmetic.  Reference for ``Series.sqrt``, which runs the
    ``power`` kernel at e = 1/2."""
    if s.coeffs[0] != 1:
        raise ValueError("sqrt requires constant term 1")
    one = s._one()
    out = [one]
    for k in range(1, s.order):
        acc = s.coeffs[k]
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(acc / 2)
    return Series(out, s.order)


def exp_oracle(s: Series) -> Series:
    """The exponential by out_k = (1/k) sum_(j=1..k) j s_j out_(k-j), in
    ring arithmetic.  Reference for the ``exp`` kernel, which runs the
    same recurrence on integers for rational s."""
    if s.coeffs[0] != 0:
        raise ValueError("exp requires constant term 0")
    one = s._one()
    out = [one]
    for k in range(1, s.order):
        acc = s._zero
        for j in range(1, k + 1):
            aj = s.coeffs[j]
            if aj:
                acc = acc + (j * aj) * out[k - j]
        out.append(acc / k)
    return Series(out, s.order)


def pow_rat_oracle(s: Series, e) -> Series:
    """s^e as exp(e log s), through ``exp_oracle``.  Reference for
    ``Series.pow_rat``, which runs the ``power`` kernel (Miller's
    recurrence) with no log or exp."""
    e = Fraction(e) if isinstance(e, int) else e
    return exp_oracle(s.log() * e)


def _scaled_powers(tri: Triangle, j: int = 0) -> list:
    """tri^p e_j / p! for p = 0 .. n-1-j, for strictly lower-triangular
    tri (higher powers vanish), one mat-vec product each."""
    vecs = [[ONE if i == j else ZERO for i in range(tri.nrows)]]
    for p in range(1, tri.nrows - j):
        vecs.append([v / p for v in tri.apply_vec(vecs[-1])])
    return vecs


def composition_matrix_oracle(g):
    """The composition triangle of g as n mat-vecs on the ``bell_log``
    triangle, column m = (1/m) log(g, xg) applied to column m-1.
    Reference for ``composition_matrix``, which applies the log to a
    column as one series product."""
    return Triangle.from_columns(_scaled_powers(bell_log(g)))


def bell_power_oracle(g, phi):
    """g^(phi) as the rows of the composition matrix, each read as a
    polynomial in phi and evaluated at phi by ``Fraction`` Horner (a
    symbol name keeps the polynomials).  Reference for ``bell_power``,
    which sums phi^m c_m over the integer columns c_m at a rational phi."""
    tri = composition_matrix(g).triangle
    symbol = phi if isinstance(phi, str) else "phi"
    power = Series([tri.row_poly(i, symbol) for i in range(tri.nrows)], tri.nrows)
    return power if isinstance(phi, str) else power.eval_param(phi)


def pow_param_oracle(s, symbol="phi"):
    """The formal power s^phi as exp(phi log s), the ``Series.exp``
    recurrence run on ``ParamPoly`` coefficients.  Reference for
    ``Series.pow_param``, which runs the ``power`` kernel (Miller's
    recurrence) on integer polynomials in phi instead."""
    if not s.is_rational():
        raise ValueError("pow_param needs purely rational coefficients")
    t = ParamPoly.param(symbol)
    scaled = Series([c * t for c in s.log().coeffs], s.order)
    return scaled.exp()


def pow_param_columns_oracle(s, symbol="phi"):
    """The formal power s^phi read row by row off the columns
    (log s)^m / m! of the ``columns`` kernel: [phi^m x^k] s^phi is
    [x^k] (log s)^m / m!.  Reference for ``Series.pow_param``, which
    runs the ``power`` kernel with the bare parameter as exponent."""
    if not s.is_rational():
        raise ValueError("pow_param needs purely rational coefficients")
    rows = zip(*_power_columns(s.log(), s.order))
    return Series([ParamPoly(r, symbol) for r in rows], s.order)


def convolution_rows_oracle(b, order):
    """Rows of B^t = sum s_n(t) x^n unpacked from the parametric power
    (``pow_param_oracle``) and padded with zeros.  Reference for
    ``convolution_rows``, which reads the rows off ``Series.pow_param``
    (Miller's recurrence)."""
    if b[0] != 1:
        raise ValueError("convolution rows need B with constant term 1")
    p = pow_param_oracle(b.pad_zeros(order), "t")
    rows = []
    for n in range(order):
        cs = list(p[n].coeffs) if isinstance(p[n], ParamPoly) else [p[n]]
        rows.append(cs + [ZERO] * (n + 1 - len(cs)))
    return Triangle(rows)


def riordan_triangle_oracle(m):
    """The triangle of (f, xg) row by row from the columns f (xg)^k,
    entry (i, k) scaled by i!/k! for the exponential kind.  Reference
    for ``RiordanMatrix.triangle``, which assembles the same columns
    with ``Triangle.from_columns``."""
    n = m.order
    w = m.xg()
    col = m.f
    columns = []
    for k in range(n):
        columns.append(col.coeffs)
        if k + 1 < n:
            col = col * w
    rows = []
    for i in range(n):
        if m.kind == EXPONENTIAL:
            fi = factorial(i)
            row = [
                columns[k][i] * Fraction(fi, factorial(k))
                for k in range(i + 1)
            ]
        else:
            row = [columns[k][i] for k in range(i + 1)]
        rows.append(row)
    return Triangle(rows)


def _compositions(n: int, parts: tuple[int, ...]):
    """Ordered compositions of n from the allowed part sizes."""
    if n == 0:
        yield ()
        return
    for p in parts:
        if p <= n:
            for rest in _compositions(n - p, parts):
                yield (p,) + rest


def composition_sum_oracle(b, n, symbol="phi", beta=1):
    """[x^n] (g^(phi))^beta summed over all 2^(n-1) ordered compositions
    of n, with no ceiling on n.  Reference for ``composition_sum``; it
    raises ``ValueError`` when no composition of n uses only parts p
    with b_(p-1) != 0, where the sum is 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
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


def triangle_exp(tri):
    """Matrix exponential of a strictly lower-triangular array, the
    finite sum of tri^p / p! in full triangle products.  Inverts
    ``bell_log``."""
    acc = term = Triangle.identity(tri.nrows)
    for p in range(1, tri.nrows):
        term = term.matmul(tri).scale(Fraction(1, p))
        acc = acc.add(term)
    return acc


def inverse_oracle(m):
    """The former ``RiordanMatrix.inverse``: (1/f(wbar), 1/g(wbar)) with
    wbar = revert(xg), two ``compose`` and two divisions.  Reference for
    ``inverse``, which reads 1/g(wbar) = wbar/x off the reversion."""
    if not m.f[0]:
        raise ValueError("the inverse needs f(0) != 0")
    if not m.g[0]:
        raise ValueError("the inverse needs g(0) != 0")
    wbar = m.xg(extend=True).revert()
    f = 1 / m.f.compose(wbar)
    ginv = 1 / m.g.compose(wbar)
    # second component of the inverse is revert(xg) = x * (1/g(wbar))
    return RiordanMatrix(f, ginv, m.kind)


def a_sequence_oracle(m):
    """The former ``RiordanMatrix.a_sequence``: g(wbar) with
    wbar = revert(xg), one ``compose``.  Reference for ``a_sequence``,
    which reads g(wbar) = x/wbar off the reversion."""
    if not m.g[0]:
        raise ValueError("the A-sequence needs g(0) != 0")
    wbar = m.xg(extend=True).revert()
    return m.g.compose(wbar)


def sqrt_factorization_oracle(m):
    """The former ``RiordanMatrix.sqrt_factorization``: h = r(w) with
    r = sqrt(g) and w = revert(x r), one ``compose``, and
    s = (h - 1/h)/2.  Reference for ``sqrt_factorization``, which reads
    h = x/w off the reversion."""
    if m.f != one_series(m.order):
        raise FactorizationError(
            "factorization inconsistency: first component must be 1"
        )
    if m.g[0] != 1:
        raise FactorizationError(
            "factorization inconsistency: g must have constant term 1"
        )
    if not m.is_pseudo_involution():
        raise FactorizationError(
            "factorization inconsistency: input is not a "
            f"pseudo-involution to order {m.order}"
        )
    r = m.g.sqrt()
    w = r.shift_up(1, extend=True).revert()
    h = r.compose(w)
    if h * h.alternate() != one_series(h.order):
        raise FactorizationError(
            "factorization inconsistency: h(x) h(-x) != 1"
        )
    return h, (h - 1 / h) / 2


def is_pseudo_involution_oracle(m):
    """Pseudo-involution test through the group inverse: M^-1 equals
    the sign conjugate (f(-x), g(-x)).  Costs a ``revert``, two
    ``compose`` and two divisions, and raises ``ValueError`` on a
    singular input (f(0) = 0 or g(0) = 0).  Reference for ``is_pseudo_involution``."""
    inv = inverse_oracle(m)
    return inv.f == m.f.alternate() and inv.g == m.g.alternate()


def is_pseudo_involution_product_oracle(m):
    """The former ``RiordanMatrix.is_pseudo_involution``: M (D M D) = I
    as f * f(-xg) = 1 and g * g(-xg) = 1, two ``compose`` (one when
    f == g).  Reference for ``is_pseudo_involution``, which compares
    the group inverse with D M D."""
    one = one_series(m.order)
    w = -m.xg()
    if m.g * m.g.compose(w) != one:
        return False
    return m.f == m.g or m.f * m.f.compose(w) == one


def _verify_b_oracle(tri, terms, min_col):
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


def b_sequence_oracle(m):
    """B-sequence from the column-0 recurrence
    d(2t+1, 0) = sum_i b_i d(2t-i, i) of the triangle of (g, xg), then
    checked entry by entry against every instance of
    d(n+1, m) = d(n, m-1) + sum_i b_i d(n-i, m+i) in the window: on that
    triangle and, when f != g, on columns m >= 1 of the triangle of m
    (O(n^3) each).  Reference for ``RiordanMatrix.b_sequence``."""
    if m.kind != ORDINARY:
        raise ValueError("B-sequences are defined for ordinary matrices")
    if m.g[0] != 1:
        raise NoBSequenceError(
            "no consistent B-sequence: g must have constant term 1"
        )
    if not is_pseudo_involution_oracle(m):
        raise NoBSequenceError(
            "no consistent B-sequence: the matrix is not a "
            f"pseudo-involution to order {m.order}"
        )
    bell = RiordanMatrix(m.g, m.g).triangle()
    nrows = bell.nrows
    terms = []
    for t in range(0, (nrows - 2) // 2 + 1):
        acc = bell.entry(2 * t + 1, 0)
        for i in range(t):
            acc -= terms[i] * bell.entry(2 * t - i, i)
        terms.append(acc / bell.entry(t, t))
    _verify_b_oracle(bell, terms, min_col=0)
    if m.f != m.g:
        _verify_b_oracle(m.triangle(), terms, min_col=1)
    return Series(terms, len(terms))


def from_b_sequence_oracle(b, order, bell=False):
    """Solve g = 1 + x g * b(x^2 g) by ``order`` rounds of fixed-point
    iteration, each a full composition (O(n^4)).  Reference for
    ``from_b_sequence``."""
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


def catalan_oracle(order):
    """(1 - sqrt(1-4x)) / (2x) by the O(n^2) series square root.
    Reference for ``series.catalan``, which reads the closed form."""
    s = Series([1, -4], order + 1).sqrt()
    return (one_series(order + 1) - s).shift_down(1) / 2


def b_expand_oracle(b, n, symbol="phi"):
    """[x^n] g^phi summed one ParamPoly term per odd partition of n.
    Reference for ``b_expand``, which groups the partitions by their
    number of parts."""
    if n == 0:
        return ParamPoly.const(1, symbol)
    bs = _b_coeffs(b, (n + 1) // 2 if n % 2 else n // 2)
    phi = ParamPoly.param(symbol)
    total = ParamPoly((), symbol)
    for part in odd_partitions(n):
        coeff = ONE
        denom = 1
        for i, m in enumerate(part.multiplicities):
            if m:
                bi = bs[i]
                if not bi:
                    coeff = ZERO
                    break
                coeff *= bi ** m
                denom *= factorial(m)
        if not coeff:
            continue
        poly = phi * falling_factorial(phi + (part.k - 1), part.q - 1)
        total = total + poly * (coeff / denom)
    return total


def _all_partition_mults(n: int):
    """Multiplicity tuples (m_1, ..., m_n) over parts of every size."""

    def rec(rem: int, part: int):
        if part > n:
            if rem == 0:
                yield ()
            return
        for m in range(rem // part + 1):
            for rest in rec(rem - m * part, part + 1):
                yield (m,) + rest

    yield from rec(n, 1)


def a_expand_oracle(a, n, symbol="phi"):
    """[x^n] g^phi from the A-sequence, one ParamPoly term per partition
    of n.  Reference for ``a_expand``."""
    if a[0] != 1:
        raise ValueError("a_expand requires an A-series with constant term 1")
    if n == 0:
        return ParamPoly.const(1, symbol)
    acoef = a.pad_zeros(n + 1).coeffs
    phi = ParamPoly.param(symbol)
    total = ParamPoly((), symbol)
    for mults in _all_partition_mults(n):
        coeff = ONE
        denom = 1
        q = 0
        for i, m in enumerate(mults, start=1):
            if m:
                ai = acoef[i]
                if not ai:
                    coeff = ZERO
                    break
                coeff *= ai ** m
                denom *= factorial(m)
                q += m
        if not coeff:
            continue
        poly = phi * falling_factorial(phi + (n - 1), q - 1)
        total = total + poly * (coeff / denom)
    return total


def bcomp_row_oracle(bs, n):
    """Row n of <B> by the partition formula on integer
    numerator/denominator pairs, with no enumeration ceiling.
    Reference for the rows of ``bcomp_matrix``."""
    if n == 0:
        return [ONE]
    pairs = [(b.numerator, b.denominator) for b in bs]
    by_q = {}
    for mults in _odd_mults_cached(n):
        num = 1
        den = 1
        q = 0
        for i, m in enumerate(mults):
            if m:
                bn, bd = pairs[i]
                if not bn:
                    num = 0
                    break
                num *= bn ** m
                den *= bd ** m * factorial(m)
                q += m
        if not num:
            continue
        acc = by_q.get(q)
        if acc is None:
            by_q[q] = (num, den)
        else:
            an, ad = acc
            g = gcd(ad, den)
            by_q[q] = (an * (den // g) + num * (ad // g), ad * (den // g))
    row = [ZERO] * (n + 1)
    for q, (num, den) in by_q.items():
        k = (n + q) // 2
        row[q] = Fraction(perm(k, q - 1) * num, den)
    return row


def _bcomp_row(bs: list[Fraction], n: int) -> list[Fraction]:
    """Row n of <B> by the partition formula: entry q is
    (k)_{q-1} S_q with k = (n+q)/2."""
    if n == 0:
        return [ONE]
    row = [ZERO] * (n + 1)
    for q, s in _sums_by_parts(bs, _odd_mults(n)).items():
        row[q] = perm((n + q) // 2, q - 1) * s
    return row


def power_table_oracle(b: Series, jmax: int, mmax: int) -> list[list[Fraction]]:
    """table[m][j] = [x^j] B^m for 0 <= j <= jmax, 0 <= m <= mmax."""
    base = b.pad_zeros(jmax + 1)
    table = [[ONE] + [ZERO] * jmax]
    p = one_series(jmax + 1)
    for _ in range(mmax):
        p = p * base
        table.append(list(p.coeffs))
    return table


def bcomp_row_from_convolutions_oracle(b, n, symbol="x"):
    """Row n of <B> rebuilt through s_j(m) = [x^j] B^m, from a table of
    plain powers divided by m!.  Reference for
    ``bcomp_row_from_convolutions``, which reads B^m / m! off
    ``_power_columns``."""
    if n == 0:
        return ParamPoly.const(1, symbol)
    table = power_table_oracle(b, n // 2, n)
    coeffs = [ZERO] * (n + 1)
    for m in range(1, n + 1):
        if (n - m) % 2:
            continue
        j = (n - m) // 2
        s = table[m][j]
        if s:
            k = (n + m) // 2
            coeffs[m] = falling_factorial(Fraction(k), m - 1) * s / factorial(m)
    return ParamPoly(coeffs, symbol)


def power_poly_oracle(b, n, phi=1, symbol="beta"):
    """[x^n] (g^[phi])^beta from a table of plain powers of B.
    Reference for ``power_poly``."""
    if n == 0:
        return ParamPoly.const(1, symbol)
    phi = Fraction(phi) if isinstance(phi, int) else phi
    table = power_table_oracle(b, n // 2, n)
    beta = ParamPoly.param(symbol)
    total = ParamPoly((), symbol)
    pw = phi
    for m in range(1, n + 1):
        if (n - m) % 2 == 0:
            j = (n - m) // 2
            s = table[m][j]
            if s:
                k = Fraction(n + m, 2)
                poly = beta * falling_factorial(beta + (k - 1), m - 1)
                total = total + poly * (s * pw / factorial(m))
        pw *= phi
    return total


def exp_lagrange_diagonal_oracle(b, n, order):
    """Descending diagonal n of (1, xB(x))_E, entry m = (n+m)!/m! [x^n] B^m
    from a table of plain powers.  Reference for
    ``exp_lagrange_diagonal``."""
    table = power_table_oracle(b, n, order - 1)
    out = []
    for m in range(order):
        out.append(Fraction(factorial(n + m), factorial(m)) * table[m][n])
    return Series(out, order)


def power_columns_oracle(a: Series, n: int) -> list[Series]:
    """c_0 = 1 and c_m = c_(m-1) a / m for m < n: the series a^m / m!,
    one product each, all to the order of a (n may exceed it).  x^m c_m
    is column m of the exponential matrix (1, xa)_E.  With a = log g,
    [x^k] c_m is the coefficient of phi^m in [x^k] g^phi; with a = B,
    [x^j] c_m is the convolution number s_j(m) = [x^j] B^m over m!.
    Reference for the ``columns`` kernel without beta."""
    cols = [one_series(a.order)]
    for m in range(1, n):
        cols.append(cols[-1] * a / m)
    return cols


def composition_columns_oracle(b: Series, n: int, beta) -> list[Series]:
    """Columns c_0 .. c_(n-1), each of order n, of c_0 = 1 and
    c_m = x b ((beta + xD) c_(m-1)) / m: [phi^m x^i] (g^(phi))^beta for
    the log generator b of g and an ``int`` or ``Fraction`` beta.  b
    needs order n - 1 (any order when n = 1).  For rational b and
    beta = p/q, with c_(m-1) = nums/den over integers, coefficient s of
    (beta + xD) c_(m-1) / m is (p + sq) nums_s / (mq den); a symbolic b
    takes ring arithmetic.  Reference for the ``columns`` kernel with
    beta, on a = x b."""
    xb = b.shift_up(1, extend=True)
    rational = b.is_rational()
    p, q = beta.numerator, beta.denominator
    cols = [one_series(n)]
    for m in range(1, n):
        if rational:
            nums, den = _integers(cols[-1].coeffs)
            den *= m * q
            w = [Fraction((p + s * q) * c, den) for s, c in enumerate(nums)]
        else:
            w = [(beta + s) * c / m for s, c in enumerate(cols[-1].coeffs)]
        cols.append(xb * Series(w, n))
    return cols


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
