"""Serialize triangles, series, and polynomials as text, JSON, or CSV.

Exactness contract: every rational is rendered as ``str(Fraction)`` --
a bare integer string or ``p/q`` -- so JSON and CSV output re-parse to
bit-identical values.  Text output left-aligns each column (cells are
right-padded), which matches the visual layout of a printed triangle.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Sequence

from .rings import ParamPoly
from .series import Series
from .triangle import Triangle

FORMATS = ("text", "json", "csv")


def _cell(value) -> str:
    try:
        return str(value)
    except ValueError:  # int -> str is capped at sys.get_int_max_str_digits()
        cs = value.coeffs if isinstance(value, ParamPoly) else (value,)
        bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in cs)
        raise ValueError(
            f"a coefficient of about {int(bits * 0.30103) + 1} digits is over"
            f" the {sys.get_int_max_str_digits()}-digit output limit"
        ) from None


def triangle_rows(tri: Triangle) -> list[list[str]]:
    return [[_cell(v) for v in row] for row in tri.rows]


def format_triangle(tri: Triangle, fmt: str = "text", header: bool = False) -> str:
    rows = triangle_rows(tri)
    if fmt == "json":
        return json.dumps({"kind": "triangle", "rows": rows})
    if fmt == "csv":
        lines = []
        if header:
            width = max(len(r) for r in rows)
            lines.append(",".join(f"c{k}" for k in range(width)))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines)
    widths: list[int] = []
    for row in rows:
        for k, cell in enumerate(row):
            if k == len(widths):
                widths.append(0)
            widths[k] = max(widths[k], len(cell))
    lines = []
    for row in rows:
        padded = [cell.ljust(widths[k]) for k, cell in enumerate(row)]
        lines.append(" ".join(padded).rstrip())
    return "\n".join(lines)


def parse_triangle_json(text: str) -> Triangle:
    """Inverse of ``format_triangle(..., "json")``, bit-exact."""
    data = json.loads(text)
    if data.get("kind") != "triangle":
        raise ValueError("not a triangle document")
    return Triangle([[Fraction(cell) for cell in row] for row in data["rows"]])


def format_series(series: Series, fmt: str = "text", header: bool = False) -> str:
    cells = [_cell(c) for c in series.coeffs]
    if fmt == "json":
        return json.dumps({"kind": "series", "coeffs": cells})
    if fmt == "csv":
        lines = []
        if header:
            lines.append(",".join(f"c{k}" for k in range(len(cells))))
        lines.append(",".join(cells))
        return "\n".join(lines)
    return " ".join(cells)


def format_poly(poly: ParamPoly, fmt: str = "text", header: bool = False) -> str:
    if fmt == "json":
        sparse = {
            str(k): _cell(c) for k, c in enumerate(poly.coeffs) if c
        }
        if not sparse:
            sparse = {"0": "0"}
        return json.dumps({"poly": sparse})
    if fmt == "csv":
        lines = []
        if header:
            lines.append("exponent,coefficient")
        any_term = False
        for k, c in enumerate(poly.coeffs):
            if c:
                lines.append(f"{k},{_cell(c)}")
                any_term = True
        if not any_term:
            lines.append("0,0")
        return "\n".join(lines)
    return _cell(poly)


def format_pairs(pairs: Sequence[tuple[str, Series]], fmt: str = "text") -> str:
    """Labelled series block (used by sqrt-factor's h and s output)."""
    if fmt == "json":
        return json.dumps(
            {
                "kind": "labelled-series",
                "series": {
                    label: [_cell(c) for c in s.coeffs] for label, s in pairs
                },
            }
        )
    if fmt == "csv":
        return "\n".join(
            label + "," + ",".join(_cell(c) for c in s.coeffs)
            for label, s in pairs
        )
    return "\n".join(
        f"{label}: " + " ".join(_cell(c) for c in s.coeffs)
        for label, s in pairs
    )
