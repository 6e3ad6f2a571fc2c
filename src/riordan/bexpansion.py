"""Partition expansions for powers of Bell-subgroup series.

A partition of n into odd parts is recorded by multiplicities: m_i
counts parts of size 2i+1, with q = sum m_i parts in total and
k = sum m_i (i+1) = (n + q)/2.  The expansion of [x^n] g^phi in the
B-sequence coefficients of (1, xg) (:func:`b_expand`) and the rows of
the B-composition matrix <B> (:func:`bcomp_matrix`) weigh a partition
only through q: each is a sum over q of a weight (:func:`_weight`) times

    S_q(n) = sum over partitions with q parts of prod b_i^{m_i} / m_i!
           = [x^{(n-q)/2}] B^q / q!

(Comtet, *Advanced Combinatorics*, 1974, sec. 3.3).  One row, for
:func:`b_expand`, accumulates them over the enumerated partitions of n
(:func:`_sums_by_parts`); the whole matrix <B> takes them from one
integer table built by the product over part sizes, one pass per odd
part (:func:`_sums_table`; Andrews, *The Theory of Partitions*, 1976,
ch. 1), with no enumeration.  The convolution route reads the same numbers
off the columns B^m / m! of the exponential Lagrange matrix (1, xB)_E
(:func:`series._power_columns`, one packed product each), whose [x^j] is
s_j(m) / m! with s_j(m) = [x^j] B^m: they rebuild the rows of <B>
(:func:`bcomp_row_from_convolutions`), generalize them to powers of
g^[phi] (:func:`power_poly`) and give the descending diagonals of
(1, xB)_E (:func:`exp_lagrange_diagonal`).  The all-parts analogue for
the A-sequence (:func:`a_expand`) reads its sums over all partitions
of n off the same columns for (a - 1)/x.

Closed forms for the classic cases B = 1/(1-x) (the RNA matrix),
B = 1+x, and B = C(x) round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm

from ._purekernels import _integers
from .rings import ONE, ZERO, ParamPoly, binomial
from .series import Series, _power_columns
from .triangle import CompositionMatrix as BCompMatrix, Triangle

PARTITION_N_LIMIT = 80  # counts stay in the tens of thousands here
# bcomp_matrix and its text take 0.2-0.5 s at 241 rows of catalan,
# sqrt(1+x/3) or 1/(1-x/1000) and grow about as rows^3.5: 0.6-1.2 s at
# 321 (in-process, CPython 3.11.7, 2-vCPU VM)
BCOMP_ROWS_LIMIT = 241


@dataclass(frozen=True)
class OddPartition:
    """A partition of n into odd parts, stored by multiplicities.

    ``multiplicities[i]`` counts the parts of size 2i+1 (trailing
    zeros stripped).
    """

    multiplicities: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(m * (2 * i + 1) for i, m in enumerate(self.multiplicities))

    @property
    def q(self) -> int:
        """Number of parts."""
        return sum(self.multiplicities)

    @property
    def k(self) -> int:
        """sum m_i (i+1); equals (n + q) / 2."""
        return sum(m * (i + 1) for i, m in enumerate(self.multiplicities))

    def parts(self) -> list[int]:
        out = []
        for i, m in enumerate(self.multiplicities):
            out.extend([2 * i + 1] * m)
        return sorted(out, reverse=True)


def _odd_mult_tuples(n: int) -> list[tuple[int, ...]]:
    """Multiplicity tuples in ascending lexicographic order.

    Enumerates from the largest odd part downward so that part 1 can
    absorb any remainder -- every branch of the recursion produces at
    least one partition.
    """
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(rem: int, idx: int, suffix: tuple[int, ...]):
        if idx == 0:
            tup = (rem,) + suffix
            while tup and tup[-1] == 0:
                tup = tup[:-1]
            out.append(tup)
            return
        part = 2 * idx + 1
        for m in range(rem // part, -1, -1):
            rec(rem - m * part, idx - 1, (m,) + suffix)

    rec(n, (n - 1) // 2, ())
    out.sort()
    return out


@lru_cache(maxsize=128)
def _odd_mults_cached(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_odd_mult_tuples(n))


def _odd_mults(n: int) -> tuple[tuple[int, ...], ...]:
    """Odd-partition multiplicity tuples of n; every lookup comes here,
    so every caller meets the ``PARTITION_N_LIMIT`` ceiling."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > PARTITION_N_LIMIT:
        raise ValueError(
            f"partition enumeration is limited to n <= {PARTITION_N_LIMIT}"
        )
    return _odd_mults_cached(n)


def odd_partitions(n: int) -> list[OddPartition]:
    """All partitions of n into odd parts, lexicographic on multiplicities."""
    return [OddPartition(t) for t in _odd_mults(n)]


def _sums_by_parts(cs, mult_tuples) -> dict[int, Fraction]:
    """{q: S_q}, S_q the sum of prod cs[i]^{m_i} / m_i! over the tuples
    (m_0, m_1, ...) with q = sum m_i; a q with no nonzero term is left
    out.  The loop runs over every partition, so it works on integer
    numerator/denominator pairs and builds one Fraction per q."""
    pairs = [(c.numerator, c.denominator) for c in cs]
    by_q: dict[int, tuple[int, int]] = {}
    for mults in mult_tuples:
        num = den = 1
        q = 0
        for i, m in enumerate(mults):
            if m:
                cn, cd = pairs[i]
                if not cn:
                    num = 0
                    break
                num *= cn ** m
                den *= cd ** m * factorial(m)
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
    return {q: Fraction(num, den) for q, (num, den) in by_q.items()}


def catalan_number(n: int) -> Fraction:
    return Fraction(comb(2 * n, n), n + 1)


def _b_coeffs(b: Series, need: int) -> list[Fraction]:
    """First ``need`` coefficients of B; the window must cover them."""
    if b.order < need:
        raise ValueError(
            f"B is only known to order {b.order}; need {need} coefficients"
        )
    return list(b.coeffs[:need])


# -- formula engines ----------------------------------------------------


def _weight(k: int, q: int) -> list[int]:
    """Integer coefficients of t (t+k-1) (t+k-2) ... (t+k-q+1), built in
    q - 1 steps of "multiply by (t + a)"; the empty partition
    (k = q = 0) weighs 1."""
    w = [0, 1] if q else [1]
    for a in range(k - q + 1, k):
        w = [a * lo + hi for lo, hi in zip(w + [0], [0] + w)]
    return w


def _weighted(terms: list, symbol: str) -> ParamPoly:
    """The sum of s * _weight(k, q) over the (k, q, s) terms, carried as
    integers over the lcm of the s, with one Fraction per coefficient."""
    nums, den = _integers([s for _, _, s in terms])
    acc = [0] * (max([q for _, q, _ in terms], default=-1) + 1)
    for (k, q, _), num in zip(terms, nums):
        for i, c in enumerate(_weight(k, q)):
            acc[i] += num * c
    return ParamPoly([Fraction(c, den) for c in acc], symbol)


def b_expand(b: Series, n: int, symbol: str = "phi") -> ParamPoly:
    """[x^n] g^phi as a polynomial in phi, from the B-sequence of (1, xg).

    Sums phi (phi+k-1)_{q-1} / (m_0! ... m_p!) * prod b_i^{m_i} over
    the partitions of n into odd parts, grouped by q (k = (n+q)/2).
    """
    bs = _b_coeffs(b, (n + 1) // 2)
    sums = _sums_by_parts(bs, _odd_mults(n))
    return _weighted([((n + q) // 2, q, s) for q, s in sums.items()], symbol)


def b_expand_symbolic(n: int, symbol: str = "phi") -> dict[tuple[int, ...], ParamPoly]:
    """Coefficient polynomial of each monomial prod b_i^{m_i} in b_expand.

    Keys are multiplicity tuples; values are the phi-polynomials
    phi (phi+k-1)_{q-1} / (m_0! ... m_p!).
    """
    out = {}
    for part in odd_partitions(n):
        denom = 1
        for m in part.multiplicities:
            denom *= factorial(m)
        out[part.multiplicities] = ParamPoly(_weight(part.k, part.q), symbol) / denom
    return out


def a_expand(a: Series, n: int, symbol: str = "phi") -> ParamPoly:
    """[x^n] g^phi from the A-sequence of (1, xg), i.e. g = a(xg).

    Sums phi (phi+n-1)_{q-1} S_q over q, where S_q sums
    prod a_i^{m_i} / (m_1! ... m_n!) over the partitions of n with q
    parts, read off column q of :func:`_power_columns` for (a - 1)/x
    as S_q = [x^(n-q)] ((a - 1)/x)^q / q!; requires a(0) = 1.
    """
    if a[0] != 1:
        raise ValueError("a_expand requires an A-series with constant term 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ParamPoly.const(1, symbol)
    cols = _power_columns((a.pad_zeros(n + 1) - 1).shift_down(1), n + 1)
    return _weighted([(n, q, cols[q][n - q]) for q in range(1, n + 1)], symbol)


def binomial_series(r: int, order: int) -> Series:
    """The degree-r binomial series: solves B_r = 1 + x B_r^r.

    Coefficient n is binom(rn+1, n)/(rn+1); r = 1 gives the geometric
    series, r = 2 the Catalan series.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    return Series(
        [Fraction(comb(r * n + 1, n), r * n + 1) for n in range(order)], order
    )


def generalized_binomial(r: int, order: int, symbol: str = "phi") -> Series:
    """The power family of the degree-r binomial series.

    Coefficient n is the polynomial phi/(phi+rn) * binom(phi+rn, n) =
    phi (phi+rn-1) ... (phi+rn-n+1) / n!.  At phi = 1 this gives the
    Fuss-Catalan-type series (r = 1: geometric, r = 2: Catalan).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    out = [ParamPoly(_weight(r * n, n), symbol) / factorial(n) for n in range(order)]
    return Series(out, order)


# -- B-composition matrices ---------------------------------------------


def _sums_table(bs: list[Fraction], order: int) -> tuple[list, int, list[int]]:
    """(T, d, L) with T[w][q] = q! d^q L[w] S_q(2w + q), an integer, for
    2w + q < order: w = sum i m_i is the weight of the partitions in the
    cell, d the denominator of b_0, and L[w] the lcm of the denominators
    of the products prod_{i >= 1} b_i^{m_i} of weight w.

    One pass over the odd part sizes p = 2i+1 adds the parts of size p to
    every partition at once:

        T[w][q] += sum_{m >= 1} C(q, m) (d b_i)^m (L[w] / L[w - mi])
                                          T[w - mi][q - m],

    heaviest row first, so that the rows read are still those without
    part p (part 1 reads a copy of its own row).  Each factor is an
    integer: L[w] is a multiple of L[w - mi] times the m-th power of
    the denominator of b_i.  The largest part goes
    first: once every part added weighs i or more, T[w][q] = 0 for
    q > w // i.  A zero b_i adds nothing and is skipped."""
    top = (order - 1) // 2
    d = bs[0].denominator
    lcms = [1]
    for w in range(1, top + 1):
        lcms.append(lcm(*[
            bs[i].denominator * lcms[w - i]
            for i in range(1, min(w, len(bs) - 1) + 1) if bs[i]
        ]))
    table = [[0] * (order - 2 * w) for w in range(top + 1)]
    table[0][0] = 1
    lightest = order  # the least weight added so far; none yet
    for i in range(order // 2 - 1, -1, -1):
        if not bs[i]:
            continue
        num, den = bs[i].numerator * d, bs[i].denominator
        for w in range(top, i - 1, -1):
            row = table[w]
            before = row[:] if i == 0 else None
            c = dm = 1
            for m in range(1, min(w // i if i else order, len(row) - 1) + 1):
                c, dm = c * num, dm * den
                src = table[w - m * i] if i else before
                f = c * lcms[w] // (lcms[w - m * i] * dm)
                for s in range(min((w - m * i) // lightest, len(row) - 1 - m) + 1):
                    v = src[s]
                    if v:
                        row[s + m] += comb(s + m, m) * f * v
        lightest = i
    return table, d, lcms


def bcomp_matrix(b: Series, order: int) -> BCompMatrix:
    """The B-composition matrix <B> with ``order`` rows, at most
    ``BCOMP_ROWS_LIMIT``.

    Row n interpolates [x^n] g^[phi], where g^[phi] solves
    g = 1 + x g * phi B(x^2 g); entry (n, m) is zero when n - m is odd,
    and column 1 carries x B(x^2).  Entry (n, q) is
    ((n+q)/2)_{q-1} S_q(n), read off one table of :func:`_sums_table`."""
    if not 1 <= order <= BCOMP_ROWS_LIMIT:
        raise ValueError(f"<B> needs at least 1 row and is limited to {BCOMP_ROWS_LIMIT} rows")
    table, d, lcms = _sums_table(_b_coeffs(b, max(order // 2, 1)), order)
    # ((n+q)/2)_{q-1} / (q! d^q L[w]) = C(w + q, q - 1) / (q d^q L[w])
    powers = [1]
    for q in range(1, order):
        powers.append(powers[-1] * d)
    rows = [[ONE]]
    for n in range(1, order):
        row = [ZERO] * (n + 1)
        for q in range(n % 2 or 2, n + 1, 2):
            w = (n - q) // 2
            if table[w][q]:
                row[q] = Fraction(
                    comb(w + q, q - 1) * table[w][q], q * powers[q] * lcms[w]
                )
        rows.append(row)
    return BCompMatrix(Triangle(rows), b)


# -- closed forms: RNA, 1+x, C(x) ---------------------------------------


def narayana(n: int, symbol: str = "x") -> ParamPoly:
    """Narayana polynomial: N_0 = 1, N_n = (1/n) sum binom(n,m-1) binom(n,m) x^m."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ParamPoly.const(1, symbol)
    coeffs = [
        Fraction(comb(n, m - 1) * comb(n, m), n) if m >= 1 else ZERO
        for m in range(n + 1)
    ]
    return ParamPoly(coeffs, symbol)


def narayana_triangle(order: int) -> Triangle:
    """Rows are the coefficients of the Narayana polynomials."""
    rows = []
    for n in range(order):
        cs = list(narayana(n).coeffs)
        rows.append(cs + [ZERO] * (n + 1 - len(cs)))
    return Triangle(rows)


def rna_row_closed(n: int, symbol: str = "x") -> ParamPoly:
    """Closed form for row n of <1/(1-x)> (the RNA composition matrix)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [ZERO] * (n + 1)
    if n == 0:
        return ParamPoly.const(1, symbol)
    if n % 2 == 0:
        h = n // 2
        for m in range(1, h + 1):
            coeffs[2 * m] = Fraction(
                comb(h + m, 2 * m - 1) * comb(h + m, 2 * m), h + m
            )
    else:
        h = (n - 1) // 2
        for m in range(h + 1):
            coeffs[2 * m + 1] = Fraction(
                comb(h + m + 1, 2 * m) * comb(h + m + 1, 2 * m + 1), h + m + 1
            )
    return ParamPoly(coeffs, symbol)


def bcomp_entry_one_plus_x(n: int, m: int) -> Fraction:
    """Entry (n, m) of <1+x>: C_{(n-m)/2} * binom((n+m)/2, (3m-n)/2)."""
    if n == m == 0:
        return ONE
    if m < 0 or m > n or (n - m) % 2:
        return ZERO
    j = (n - m) // 2
    t = (3 * m - n) // 2
    if t < 0:
        return ZERO
    return catalan_number(j) * binomial((n + m) // 2, t)


def bcomp_entry_catalan(n: int, m: int) -> Fraction:
    """Entry (n, m) of <C(x)>: C_{(n-m)/2} * binom(n-1, m-1)."""
    if n == m == 0:
        return ONE
    if m < 1 or m > n or (n - m) % 2:
        return ZERO
    return catalan_number((n - m) // 2) * binomial(n - 1, m - 1)


def dissection_poly(n: int, symbol: str = "x") -> ParamPoly:
    """Polygon-dissection polynomial:
    T_n = (1/(n+1)) sum binom(n+1, m+1) binom(n+m+2, m) x^m."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [
        Fraction(comb(n + 1, m + 1) * comb(n + m + 2, m), n + 1)
        for m in range(n + 1)
    ]
    return ParamPoly(coeffs, symbol)


def dissection_matrix(order: int) -> Triangle:
    """The triangle whose column n+1 is x^{n+1} (1+x) T_n(x).

    Rows F_n of this triangle reproduce rows of <C(x)> via
    row n+1 of <C> = F_n(x^2) / x^{n-1}.
    """
    cols = [[ONE] + [ZERO] * (order - 1)] if order > 0 else []
    for m in range(1, order):
        t = dissection_poly(m - 1).coeffs
        col = [ZERO] * order
        for j, c in enumerate(t):
            if m + j < order:
                col[m + j] += c
            if m + j + 1 < order:
                col[m + j + 1] += c
        cols.append(col)
    return Triangle.from_columns(cols)


# -- convolution-polynomial route ---------------------------------------


def convolution_rows(b: Series, order: int) -> Triangle:
    """Triangle of convolution polynomials: row n holds the coefficients
    of s_n(t) with B^t = sum s_n(t) x^n (so column m is (log B)^m / m!),
    read off the parametric power ``pow_param``."""
    if b[0] != 1:
        raise ValueError("convolution rows need B with constant term 1")
    rows = [c.coeffs for c in b.pad_zeros(order).pow_param("t").coeffs]
    return Triangle([r + (ZERO,) * (n + 1 - len(r)) for n, r in enumerate(rows)])


def _column_sums(b: Series, n: int) -> dict[int, Fraction]:
    """{m: [x^{(n-m)/2}] B^m / m!} for 0 < m <= n with n - m even, read
    off the columns of :func:`_power_columns`; n >= 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    need = (n + 1) // 2
    cols = _power_columns(Series(_b_coeffs(b, need), need), n + 1)
    return {m: cols[m][(n - m) // 2] for m in range(n % 2 or 2, n + 1, 2)}


def bcomp_row_from_convolutions(b: Series, n: int, symbol: str = "x") -> ParamPoly:
    """Row n of <B> read off the columns B^m / m! of (1, xB)_E: entry m
    is ((n+m)/2)_{m-1} [x^{(n-m)/2}] B^m / m!."""
    if n == 0:
        return ParamPoly.const(1, symbol)
    coeffs = [ZERO] * (n + 1)
    for m, s in _column_sums(b, n).items():
        coeffs[m] = perm((n + m) // 2, m - 1) * s
    return ParamPoly(coeffs, symbol)


def power_poly(b: Series, n: int, phi=1, symbol: str = "beta") -> ParamPoly:
    """[x^n] (g^[phi])^beta as a polynomial in beta, phi specialized.

    g^[phi] is the series whose B-function is phi*B; the coefficient of
    x^n in its beta-th power is
    sum_m beta (beta+(n+m)/2-1)_{m-1} phi^m [x^{(n-m)/2}] B^m / m!,
    read off the columns B^m / m! of (1, xB)_E.
    """
    if not isinstance(phi, (int, Fraction)):
        raise TypeError(f"phi must be an int or a Fraction, got {phi!r}")
    if n == 0:
        return ParamPoly.const(1, symbol)
    terms = [((n + m) // 2, m, s * phi ** m) for m, s in _column_sums(b, n).items()]
    return _weighted(terms, symbol)


def exp_lagrange_diagonal(b: Series, n: int, order: int) -> Series:
    """Descending diagonal n of the exponential matrix (1, xB(x))_E.

    Entry m is (n+m)! [x^n] B^m / m!, read off column m of the matrix.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    cols = _power_columns(Series(_b_coeffs(b, n + 1), n + 1), order)
    return Series([factorial(n + m) * c[n] for m, c in enumerate(cols)], order)


def is_appell_type(b: Series, order: int) -> bool:
    """Whether shifting <B> one step down the diagonal yields the
    exponential Appell matrix of B-tilde(x) = sum b_n x^{2n} / (2n)!.

    Concretely: <B>(n+1, m+1) == binom(n, m) * b_{(n-m)/2} for all
    n, m in the window (odd n-m entries vanish automatically).
    Requires b_0 = 1; true only when b_n = C_n b_1^n.
    """
    if b[0] != 1:
        raise ValueError("Appell-type check requires b_0 = 1")
    mat = bcomp_matrix(b, order)
    need = (order - 2) // 2 + 1
    bs = _b_coeffs(b, need)
    for n in range(order - 1):
        for m in range(n + 1):
            if (n - m) % 2:
                expected = ZERO
            else:
                expected = binomial(n, m) * bs[(n - m) // 2]
            if mat.entry(n + 1, m + 1) != expected:
                return False
    return True


def rna_series(order: int, beta=1, phi=1) -> Series:
    """The power family of the RNA series, by its closed form.

    Solves g = 1 + x g phi/(1 - beta x^2 g); beta = 0 degenerates to
    the geometric series 1/(1 - phi x).
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    beta = Fraction(beta) if isinstance(beta, int) else beta
    phi = Fraction(phi) if isinstance(phi, int) else phi
    if not beta:
        return 1 / Series([1, -phi], order)
    poly = Series([1, -phi, beta], order + 2)
    disc = poly * poly - Series([ZERO, ZERO, 4 * beta], order + 2)
    num = poly - disc.sqrt()
    return num.shift_down(2) / (2 * beta)
