"""Named invariant suites, runnable from the CLI ``check`` subcommand.

Each suite verifies one self-contained identity family on its fixture
matrices, in exact arithmetic, and reports per-check pass/fail results.
The suite ids are part of the CLI contract:

========== ==========================================================
lemma21    square-root factorization: h(-x) h(x) = 1 on two fixtures
theorem22  x B(x^2) = 2 s(x) ties the B-sequence to the odd part
theorem42  ascending diagonals of <1/(1-x)> are Narayana polynomials
lemma41    Narayana columns: N x^{n+1} = x^n N_n(x) / (1-x)^{2n+1}
theorem61  columns of <1+x> carry the dissection polynomials T_n
theorem71  rows of <C(x)> unfold to the dissection triangle rows
theorem72  Appell characterization: b_n = C_n b_1^n, both directions
theorem81  <B> descending diagonals vs the exponential (1, xB)_E
section9   convolution-polynomial route: u_poly rows, u_beta powers
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from .bexpansion import (
    b_expand,
    bcomp_matrix,
    bcomp_row_from_convolutions,
    binomial_series,
    dissection_matrix,
    dissection_poly,
    exp_lagrange_diagonal,
    is_appell_type,
    narayana,
    narayana_triangle,
    power_poly,
    rna_series,
)
from .core import EXPONENTIAL, RiordanMatrix
from .rings import ZERO
from .series import Series, geometric, catalan, one_series, x_series
from .triangle import Triangle


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(self.suite, name, bool(passed), detail))

    def equal(self, name: str, got, want) -> None:
        if got == want:
            self.results.append(CheckResult(self.suite, name, True))
        else:
            self.results.append(
                CheckResult(self.suite, name, False, f"got {got}, want {want}")
            )


def _lemma21(order: int) -> list[CheckResult]:
    rec = _Recorder("lemma21")
    # fixture 1: g = 1/(1-2x); h = x + sqrt(1+x^2), s = x
    g1 = geometric(order).scale_arg(2)
    h, s = RiordanMatrix(one_series(order), g1).sqrt_factorization()
    rec.equal("parity-g-geometric2", h * h.alternate(), one_series(order))
    rec.equal(
        "h-closed-g-geometric2",
        h,
        Series([1, 0, 1], order).sqrt() + x_series(order),
    )
    rec.equal("s-closed-g-geometric2", s, x_series(order))
    # fixture 2: sqrt(g) is the large Schroeder series, h = (1+x)/(1-x)
    disc = Series([1, -6, 1], order + 2).sqrt()
    schroeder = (Series([1, -1], order + 2) - disc).shift_down(1) / 2
    g2 = (schroeder * schroeder).truncate(order)
    h2, s2 = RiordanMatrix(one_series(order), g2).sqrt_factorization()
    rec.equal("parity-g-schroeder-sq", h2 * h2.alternate(), one_series(order))
    ratio = Series([1, 1], order) / Series([1, -1], order)
    rec.equal("h-closed-g-schroeder-sq", h2, ratio)
    rec.equal("s-closed-g-schroeder-sq", s2, (ratio - 1 / ratio) / 2)
    return rec.results


def _theorem22(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem22")
    cases = [
        ("rna", rna_series(order), None),  # all-ones B
        ("catalan-cubed", (catalan(order) ** 3), (3, 1)),
        ("fuss3-fifth", (binomial_series(3, order) ** 5), (5, 5, 1)),
    ]
    for label, g, bfix in cases:
        m = RiordanMatrix(one_series(order), g)
        b = m.b_sequence()
        if bfix is None:
            want = [Fraction(1)] * b.order
        else:
            want = list(bfix) + [ZERO] * (b.order - len(bfix))
        rec.equal(f"b-sequence-{label}", list(b.coeffs), want[: b.order])
        _, s = m.sqrt_factorization()
        xbx2 = Series(
            [b[(k - 1) // 2] if k % 2 else ZERO for k in range(s.order)],
            s.order,
        )
        rec.equal(f"xB(x^2)=2s-{label}", xbx2, 2 * s)
    return rec.results


def _theorem42(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem42")
    nmax = 8
    mat = bcomp_matrix(geometric(nmax + 2), 2 * nmax + 1)
    for n in range(nmax + 1):
        rec.equal(
            f"ascending-diagonal-n{n}",
            mat.triangle.diag_up(2 * n),
            narayana(n),
        )
    return rec.results


def _lemma41(order: int) -> list[CheckResult]:
    rec = _Recorder("lemma41")
    tri = narayana_triangle(order)
    for n in range(1, min(7, order - 1)):  # the identity holds for n > 0
        col = tri.column(n + 1)
        poly = Series(list(narayana(n).coeffs), order)
        rhs = (poly * Series([1, -1], order) ** (-(2 * n + 1))).shift_up(n)
        rec.equal(f"column-n{n}", col, rhs)
    return rec.results


def _theorem61(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem61")
    rows = max(order, 14)
    mat = bcomp_matrix(Series([1, 1], rows), rows)
    for n in range(7):
        col = mat.triangle.column(n + 1)
        t = dissection_poly(n)
        tx2 = Series(
            [t.coeff(k // 2) if k % 2 == 0 else ZERO for k in range(rows)],
            rows,
        )
        rhs = (tx2 * Series([1, 0, 1], rows)).shift_up(n + 1)
        rec.equal(f"column-n{n}", col, rhs)
    return rec.results


def _theorem71(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem71")
    rows = max(order, 14)
    mat = bcomp_matrix(catalan(rows), rows)
    dis = dissection_matrix(rows)
    for n in range(7):
        ok = True
        detail = ""
        for m in range(n + 2):
            want = ZERO
            if (n + m - 1) % 2 == 0 and (n + m - 1) // 2 <= n:
                want = dis.entry(n, (n + m - 1) // 2)
            if mat.entry(n + 1, m) != want:
                ok = False
                detail = f"entry ({n + 1},{m})"
                break
        rec.check(f"row-unfold-n{n}", ok, detail)
    return rec.results


def _theorem72(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem72")
    cases = [
        ("catalan", catalan(order), True),
        ("geometric", geometric(order), False),
        (
            "catalan-scaled-3",
            Series(
                [Fraction(3) ** n * c for n, c in enumerate(catalan(order).coeffs)],
                order,
            ),
            True,
        ),
    ]
    for label, b, want in cases:
        rec.equal(f"characterization-{label}", is_appell_type(b, order), want)
    # the positive cases really conjugate to the Appell matrix (B-tilde, x)_E
    for label, b in (("catalan", cases[0][1]), ("catalan-scaled-3", cases[2][1])):
        mat = bcomp_matrix(b, order + 1)
        shifted = Triangle(
            [
                [mat.entry(n + 1, m + 1) for m in range(n + 1)]
                for n in range(order)
            ]
        )
        btilde = Series(
            [
                b[k // 2] / factorial(k) if k % 2 == 0 else ZERO
                for k in range(order)
            ],
            order,
        )
        appell = RiordanMatrix(btilde, one_series(order), kind=EXPONENTIAL)
        rec.equal(f"conjugation-{label}", shifted, appell.triangle())
    return rec.results


# deterministic stand-in for the "random small-integer B" fixture
_MIXED_B = (1, 2, 0, 1, 3, 1, 2, 1)


def _theorem81(order: int) -> list[CheckResult]:
    rec = _Recorder("theorem81")
    rows = max(order, 14)
    cases = [
        ("geometric", geometric(rows)),
        ("one-plus-x", Series([1, 1], rows)),
        ("catalan", catalan(rows)),
        ("mixed", Series(list(_MIXED_B), len(_MIXED_B)).pad_zeros(rows)),
    ]
    for label, b in cases:
        mat = bcomp_matrix(b, rows)
        for n in range(7):
            d = mat.triangle.diag_down(2 * n)
            e = exp_lagrange_diagonal(b, n, d.order)
            rec.equal(
                f"diagonal-{label}-n{n}",
                d * Fraction(factorial(n + 1)),
                e,
            )
    return rec.results


def _section9(order: int) -> list[CheckResult]:
    rec = _Recorder("section9")
    cases = [
        ("geometric", geometric(order)),
        ("one-plus-x", Series([1, 1], 4).pad_zeros(order)),
        ("catalan", catalan(order)),
    ]
    for label, b in cases:
        mat = bcomp_matrix(b, min(order, 11))
        bad = [
            n for n in range(mat.nrows)
            if bcomp_row_from_convolutions(b, n) != mat.row_poly(n)
        ]
        rec.check(f"u-poly-rows-{label}", not bad, f"rows {bad}" if bad else "")
        bad = [
            n for n in range(min(order, 11))
            if power_poly(b, n, 1, "beta").coeffs != b_expand(b, n, "phi").coeffs
        ]
        rec.check(f"u-beta-at-1-{label}", not bad, f"n = {bad}" if bad else "")
    # Example 9.2: coefficients of R^2 from the beta-polynomial
    r = rna_series(order)
    r2 = r * r
    u2 = power_poly(geometric(4), 2)
    u3 = power_poly(geometric(4), 3)
    rec.equal("beta-square-x2", u2(Fraction(2)), r2[2])
    rec.equal("beta-square-x2-value", r2[2], Fraction(3))
    rec.equal("beta-square-x3", u3(Fraction(2)), r2[3])
    return rec.results


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "lemma21": _lemma21,
    "theorem22": _theorem22,
    "theorem42": _theorem42,
    "lemma41": _lemma41,
    "theorem61": _theorem61,
    "theorem71": _theorem71,
    "theorem72": _theorem72,
    "theorem81": _theorem81,
    "section9": _section9,
}


def run_suite(name: str, order: int = 12) -> list[CheckResult]:
    """Run one named suite; unknown names raise KeyError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    try:
        return SUITES[name](order)
    except Exception as exc:  # surface as a failed check, not a crash
        return [CheckResult(name, "suite-execution", False, f"{type(exc).__name__}: {exc}")]


def run_all(order: int = 12) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in SUITES:
        out.extend(run_suite(name, order))
    return out
