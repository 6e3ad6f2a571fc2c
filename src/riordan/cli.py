"""Command-line interface.

Series-valued flags (``--f``, ``--g``, ``--b``, ``--expr``) take the
expression grammar of :mod:`riordan.exprparse`; numeric flags take
exact rationals like ``3`` or ``-5/2``.  Exit status: 0 on success,
1 when a check or comparison fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bexpansion import b_expand, bcomp_matrix
from .core import EXPONENTIAL, ORDINARY, RiordanError, RiordanMatrix
from .exprparse import EvalError, ParseError, eval_expr, parse_expr
from .matrixlog import bell_power, composition_matrix
from .oeis import BFile, BFileError, compare, load_vendored
from .render import (
    FORMATS,
    format_pairs,
    format_poly,
    format_series,
    format_triangle,
)
from .series import Series, one_series
from .suites import SUITES, run_all, run_suite


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _series(expr_text: str, order: int) -> Series:
    return eval_expr(parse_expr(expr_text), order)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    parser.add_argument(
        "--header", action="store_true", help="emit a CSV header row"
    )
    parser.add_argument("--out", help="write output to this file")


def _cmd_matrix(args) -> int:
    f = _series(args.f, args.rows)
    g = _series(args.g, args.rows)
    kind = EXPONENTIAL if args.exponential else ORDINARY
    mat = RiordanMatrix(f, g, kind=kind)
    _emit(args, format_triangle(mat.triangle(), args.format, args.header))
    return 0


def _cmd_power(args) -> int:
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
    if not args.all and not args.suite:
        raise argparse.ArgumentTypeError("need --suite NAME or --all")
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
        seq = [int(v) for v in args.values.split(",") if v.strip()]
    else:
        series = _series(args.expr, args.order)
        seq = []
        for c in series.coeffs:
            if c.denominator != 1:
                raise EvalError(f"non-integer coefficient {c} in sequence")
            seq.append(int(c))
    report = compare(seq, bfile, args.min_match)
    _emit(args, report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan-matrix calculator: triangles, matrix "
        "powers, B-sequence expansions, invariant checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="materialize the triangle of (f, xg)")
    p.add_argument("--f", default="1", help="first component expression")
    p.add_argument("--g", required=True, help="second component expression")
    p.add_argument("--rows", type=_positive, default=8)
    p.add_argument("--exponential", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("power", help="series of the matrix power (g, xg)^phi")
    p.add_argument("--g", required=True)
    p.add_argument("--phi", type=_rational, default=Fraction(1))
    p.add_argument("--order", type=_positive, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "comp-poly", help="composition-polynomial matrix L = log-based rows"
    )
    p.add_argument("--g", required=True)
    p.add_argument("--rows", type=_positive, default=11)
    _add_common(p)
    p.set_defaults(func=_cmd_comp_poly)

    p = sub.add_parser("bcomp", help="B-composition matrix <B>")
    p.add_argument("--b", required=True, help="B-function expression")
    p.add_argument("--rows", type=_positive, default=11)
    _add_common(p)
    p.set_defaults(func=_cmd_bcomp)

    p = sub.add_parser(
        "bexpand", help="[x^n] g^phi as a polynomial in phi via B-sequence"
    )
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbol", default="phi")
    _add_common(p)
    p.set_defaults(func=_cmd_bexpand)

    p = sub.add_parser("aseq", help="A-sequence of (1, xg)")
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=_positive, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_aseq)

    p = sub.add_parser("bseq", help="B-sequence of a pseudo-involution")
    p.add_argument("--f", default="1")
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=_positive, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_bseq)

    p = sub.add_parser(
        "sqrt-factor", help="factor (1, xg) = (1, x sqrt(g))(1, xh)"
    )
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=_positive, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_sqrt_factor)

    p = sub.add_parser("diag", help="diagonal of a Riordan triangle")
    p.add_argument("--f", default="1")
    p.add_argument("--g", required=True)
    p.add_argument("--rows", type=_positive, default=12)
    p.add_argument("--exponential", action="store_true")
    p.add_argument("--direction", choices=("down", "up"), default="down")
    p.add_argument("--index", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("check", help="run named invariant suites")
    p.add_argument("--suite", choices=sorted(SUITES))
    p.add_argument("--all", action="store_true")
    p.add_argument("--order", type=_positive, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "oeis-compare", help="compare a sequence against a b-file"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bfile", help="path to a b-file")
    src.add_argument("--vendored", help="vendored sequence id, e.g. A097724")
    seq = p.add_mutually_exclusive_group(required=True)
    seq.add_argument("--expr", help="series expression for the sequence")
    seq.add_argument("--values", help="comma-separated integers")
    p.add_argument("--order", type=_positive, default=16)
    p.add_argument("--min-match", type=_positive, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_oeis_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        EvalError,
        BFileError,
        RiordanError,
        argparse.ArgumentTypeError,
        KeyError,
        ValueError,
        ZeroDivisionError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
