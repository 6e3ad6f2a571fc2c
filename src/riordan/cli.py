"""Command-line interface.

Series-valued flags (``--f``, ``--g``, ``--b``, ``--expr``) take the
expression grammar of :mod:`riordan.exprparse`; numeric flags take
exact rationals like ``3`` or ``-5/2``.  Exit status: 0 on success, 1
when a check or comparison fails, 2 with one ``error:`` line on bad input.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bexpansion import BCOMP_ROWS_LIMIT, PARTITION_N_LIMIT, b_expand, bcomp_matrix
from .core import EXPONENTIAL, ORDINARY, RiordanError, RiordanMatrix
from .exprparse import eval_expr, parse_expr
from .matrixlog import bell_power, composition_matrix
from .oeis import BFile, compare, load_vendored, series_integers
from .render import (
    FORMATS,
    format_pairs,
    format_poly,
    format_series,
    format_triangle,
)
from .series import Series, one_series
from .suites import SUITES, run_all, run_suite

# below order 7 theorem72 cannot tell geometric B from Catalan B
CHECK_ORDER_MIN = 7
# the matrix-log commands (power --order, comp-poly --rows) take about
# 0.6 s at 128 terms of sqrt(1+x), 0.16 s of rna, and grow about as n^4:
# 3.3 s at 192, 11 s at 256 (in-process, CPython 3.11.7, 2-vCPU VM)
MATRIX_LOG_N_LIMIT = 128
# matrix and diag build one triangle, about as rows^4: 3.1 s at 160 rows
# of 1/(1-x/1000), 0.24 s of rna (in-process, CPython 3.11.7, 2-vCPU VM)
TRIANGLE_ROWS_LIMIT = 160


def _rational(text: str) -> Fraction:
    """An exact rational written ``p`` or ``p/q``, p and q integers."""
    try:
        if re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # q = 0, or past the int digit limit
        pass
    raise argparse.ArgumentTypeError(f"not a rational p or p/q: {text!r}")


class _BoundedInt:
    """Argparse type of an integer size flag: from ``floor`` to
    ``ceiling`` (no ceiling when it is None), for the reason ``why``."""

    def __init__(self, floor: int, ceiling: int | None = None, why: str = ""):
        self.floor, self.ceiling = floor, ceiling
        self.bounds = (
            f"at least {floor}" if ceiling is None else f"from {floor} to {ceiling} ({why})"
        )

    def __call__(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < self.floor or self.ceiling is not None and value > self.ceiling:
            raise argparse.ArgumentTypeError(f"must be {self.bounds}")
        return value


def _integer_list(text: str) -> list[int]:
    """Comma-separated integers; blank terms are skipped."""
    values = []
    for term in text.split(","):
        if term.strip():
            try:
                values.append(int(term))
            except ValueError:
                raise argparse.ArgumentTypeError(f"not an integer: {term.strip()!r}")
    return values


def _identifier(text: str) -> str:
    if not text.isidentifier():
        raise argparse.ArgumentTypeError(f"not an identifier: {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    """Reports every usage error as one line, ``error: <message>``, and
    exit status 2; takes no abbreviated flag, so that ``--f`` is never
    read as ``--format``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _series(expr_text: str, order: int) -> Series:
    return eval_expr(parse_expr(expr_text), order)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _add_output(parser: argparse.ArgumentParser, *rendering: str) -> None:
    """``--out``, and the ``rendering`` flags that the command's renderer reads."""
    options = {
        "--format": dict(choices=FORMATS, default="text", help="output format"),
        "--header": dict(action="store_true", help="emit a CSV header row"),
    }
    for flag in rendering:
        parser.add_argument(flag, **options[flag])
    parser.add_argument("--out", help="write output to this file")


def _cmd_matrix(args) -> int:
    f = _series(args.f, args.rows)
    g = _series(args.g, args.rows)
    kind = EXPONENTIAL if args.exponential else ORDINARY
    mat = RiordanMatrix(f, g, kind=kind)
    _emit(args, format_triangle(mat.triangle(), args.format, args.header))
    return 0


def _cmd_power(args) -> int:
    # [x^k] is a degree-k polynomial in phi: its digits grow as k times phi's
    digits = len(str(max(abs(args.phi.numerator), args.phi.denominator)))
    limit = sys.get_int_max_str_digits()
    if limit and digits * (args.order - 1) > limit:
        raise ValueError(
            f"--phi of {digits} digits at --order {args.order} passes the"
            f" {limit}-digit output limit"
        )
    g = _series(args.g, args.order)
    _emit(args, format_series(bell_power(g, args.phi), args.format, args.header))
    return 0


def _cmd_comp_poly(args) -> int:
    g = _series(args.g, args.rows)
    mat = composition_matrix(g)
    _emit(args, format_triangle(mat.triangle, args.format, args.header))
    return 0


def _cmd_bcomp(args) -> int:
    b = _series(args.b, max(args.rows, 2))
    mat = bcomp_matrix(b, args.rows)
    _emit(args, format_triangle(mat.triangle, args.format, args.header))
    return 0


def _cmd_bexpand(args) -> int:
    b = _series(args.b, args.n + 1)
    poly = b_expand(b, args.n, args.symbol)
    _emit(args, format_poly(poly, args.format, args.header))
    return 0


def _cmd_aseq(args) -> int:
    g = _series(args.g, args.order)
    mat = RiordanMatrix(one_series(args.order), g)
    _emit(args, format_series(mat.a_sequence(), args.format, args.header))
    return 0


def _cmd_bseq(args) -> int:
    f = _series(args.f, args.order)
    g = _series(args.g, args.order)
    mat = RiordanMatrix(f, g)
    _emit(args, format_series(mat.b_sequence(), args.format, args.header))
    return 0


def _cmd_sqrt_factor(args) -> int:
    g = _series(args.g, args.order)
    mat = RiordanMatrix(one_series(args.order), g)
    h, s = mat.sqrt_factorization()
    _emit(args, format_pairs([("h", h), ("s", s)], args.format))
    return 0


def _cmd_diag(args) -> int:
    if not 0 <= args.index < args.rows:
        raise ValueError(
            f"--index must be from 0 to {args.rows - 1} for --rows {args.rows}"
        )
    f = _series(args.f, args.rows)
    g = _series(args.g, args.rows)
    kind = EXPONENTIAL if args.exponential else ORDINARY
    tri = RiordanMatrix(f, g, kind=kind).triangle()
    if args.direction == "down":
        _emit(
            args,
            format_series(tri.diag_down(args.index), args.format, args.header),
        )
    else:
        _emit(
            args,
            format_poly(tri.diag_up(args.index), args.format, args.header),
        )
    return 0


def _cmd_check(args) -> int:
    results = (
        run_all(args.order) if args.all else run_suite(args.suite, args.order)
    )
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.suite}.{r.name}"
        if r.detail and not r.passed:
            line += f"  ({r.detail})"
        lines.append(line)
    failures = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failures}/{len(results)} checks passed"
    )
    _emit(args, "\n".join(lines))
    return 1 if failures else 0


def _cmd_oeis_compare(args) -> int:
    if args.bfile:
        bfile = BFile.load(args.bfile)
    else:
        bfile = load_vendored(args.vendored)
    if args.values is not None:
        seq = args.values
    else:
        seq = series_integers(_series(args.expr, args.order).coeffs)
    if len(seq) < args.min_match:
        raise ValueError(
            f"--min-match {args.min_match} needs at least {args.min_match}"
            f" terms, got {len(seq)}"
        )
    report = compare(seq, bfile, args.min_match)
    _emit(args, report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  ``main`` builds it once, on its first call;
    each command's ``func`` looks its module-global ``_cmd_*`` up when it
    runs, so a replaced ``_cmd_*`` is still the one called."""
    parser = _Parser(
        prog="riordan",
        description="Exact Riordan-matrix calculator: triangles, matrix "
        "powers, B-sequence expansions, invariant checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _BoundedInt(1)
    matrix_log = _BoundedInt(1, MATRIX_LOG_N_LIMIT, "matrix log")
    partitions = f"odd partitions of n <= {PARTITION_N_LIMIT}"
    triangle_rows = _BoundedInt(1, TRIANGLE_ROWS_LIMIT, "the triangle grows about as rows^4")

    p = sub.add_parser("matrix", help="materialize the triangle of (f, xg)")
    p.add_argument("--f", default="1", help="first component expression")
    p.add_argument("--g", required=True, help="second component expression")
    p.add_argument("--rows", type=triangle_rows, default=8)
    p.add_argument("--exponential", action="store_true")
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_matrix(args))

    p = sub.add_parser("power", help="series of the matrix power (g, xg)^phi")
    p.add_argument("--g", required=True)
    p.add_argument("--phi", type=_rational, default=Fraction(1))
    p.add_argument("--order", type=matrix_log, default=12)
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_power(args))

    p = sub.add_parser(
        "comp-poly", help="composition-polynomial matrix L = log-based rows"
    )
    p.add_argument("--g", required=True)
    p.add_argument("--rows", type=matrix_log, default=11)
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_comp_poly(args))

    p = sub.add_parser("bcomp", help="B-composition matrix <B>")
    p.add_argument("--b", required=True, help="B-function expression")
    p.add_argument(
        "--rows",
        type=_BoundedInt(1, BCOMP_ROWS_LIMIT, "the <B> table grows about as rows^3.5"),
        default=11,
    )
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_bcomp(args))

    p = sub.add_parser(
        "bexpand", help="[x^n] g^phi as a polynomial in phi via B-sequence"
    )
    p.add_argument("--b", required=True)
    p.add_argument(
        "--n", type=_BoundedInt(0, PARTITION_N_LIMIT, partitions), required=True
    )
    p.add_argument("--symbol", type=_identifier, default="phi")
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_bexpand(args))

    p = sub.add_parser("aseq", help="A-sequence of (1, xg)")
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=positive, default=12)
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_aseq(args))

    p = sub.add_parser("bseq", help="B-sequence of a pseudo-involution")
    p.add_argument("--f", default="1")
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=positive, default=12)
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_bseq(args))

    p = sub.add_parser(
        "sqrt-factor", help="factor (1, xg) = (1, x sqrt(g))(1, xh)"
    )
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=positive, default=12)
    _add_output(p, "--format")
    p.set_defaults(func=lambda args: _cmd_sqrt_factor(args))

    p = sub.add_parser("diag", help="diagonal of a Riordan triangle")
    p.add_argument("--f", default="1")
    p.add_argument("--g", required=True)
    p.add_argument("--rows", type=triangle_rows, default=12)
    p.add_argument("--exponential", action="store_true")
    p.add_argument("--direction", choices=("down", "up"), default="down")
    p.add_argument("--index", type=int, default=0)
    _add_output(p, "--format", "--header")
    p.set_defaults(func=lambda args: _cmd_diag(args))

    p = sub.add_parser("check", help="run named invariant suites")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", choices=sorted(SUITES))
    which.add_argument("--all", action="store_true")
    check_order = _BoundedInt(
        CHECK_ORDER_MIN, PARTITION_N_LIMIT, "theorem72 cannot tell geometric from"
        f" Catalan B below {CHECK_ORDER_MIN}; the suites build <B> with order + 1 rows",
    )
    p.add_argument("--order", type=check_order, default=12)
    _add_output(p)
    p.set_defaults(func=lambda args: _cmd_check(args))

    p = sub.add_parser(
        "oeis-compare", help="compare a sequence against a b-file"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bfile", help="path to a b-file")
    src.add_argument("--vendored", help="vendored sequence id, e.g. A097724")
    seq = p.add_mutually_exclusive_group(required=True)
    seq.add_argument("--expr", help="series expression for the sequence")
    seq.add_argument("--values", type=_integer_list, help="comma-separated integers")
    p.add_argument("--order", type=positive, default=16)
    p.add_argument("--min-match", type=positive, default=8)
    _add_output(p)
    p.set_defaults(func=lambda args: _cmd_oeis_compare(args))

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        RiordanError,
        ValueError,
        ZeroDivisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
