"""The four seeded workloads: inputs, operations and their exact checks.

A workload builder takes the imported ``riordan`` package ``R`` and a
seeded ``random.Random`` and returns ``(inputs, ops)``.  ``inputs`` maps
a name to every generated value (it feeds the input digest); ``ops`` is
one pass, the fixed list of operations the run repeats.  Sizes are
constants of this module; the seed only chooses coefficient values and
expressions, so two seeds give different inputs but the same op mix.

Every op calls the public API through ``R`` at call time, so the traced
run sees the patched functions.  Each op's ``check`` is an independent
exact identity on its result, run outside the timed span.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable


@dataclass(frozen=True)
class Op:
    label: str  # operation and size, e.g. "mul@160"
    input: str  # which generated input it runs on; pairs sizes for growth fits
    size: int
    run: Callable[[], object]
    check: Callable[[object], bool]


def fingerprint(value):
    """Exact, order-aware canonical form of an op result.

    ``Series.__eq__`` compares only up to the shorter order, so results
    are compared through this form, which includes every order.
    """
    kind = type(value).__name__
    if kind == "Series":
        return ("Series", value.order, value.coeffs)
    if kind == "RiordanMatrix":
        return ("RiordanMatrix", value.kind, fingerprint(value.f), fingerprint(value.g))
    if kind == "Triangle":
        return ("Triangle", value.rows)
    if kind == "CompositionMatrix":
        return (kind, value.triangle.rows)
    if isinstance(value, tuple):
        return tuple(fingerprint(v) for v in value)
    return value


def same(a, b) -> bool:
    return fingerprint(a) == fingerprint(b)


def _by_kind(ops):
    """Put the sizes of each kind of op back to back, so that a growth fit
    compares sizes timed under the same load on the machine."""
    kind = {}
    for op in ops:
        kind.setdefault(op.label.rsplit("@", 1)[0], len(kind))
    return sorted(ops, key=lambda op: (kind[op.label.rsplit("@", 1)[0]], op.size))


# -- series_int ----------------------------------------------------------

# a fine grid of sizes spreads the latencies evenly, so no wide gap sits
# at the percentiles the run reports
INT_LENGTHS = (32, 48, 64, 80, 96, 112, 128, 144, 160)
INT_COMPOSE_LENGTHS = (32, 36, 40, 44, 48)
INT_POWER = 3


def _ints(rng, n):
    return [rng.randint(-9, 9) for _ in range(n)]


def _mul_op(label, inp, n, a, b):
    return Op(label, inp, n, lambda: a * b, lambda r: same(r / b, a))


def _div_op(label, inp, n, a, b):
    return Op(label, inp, n, lambda: a / b, lambda r: same(r * b, a))


def _pow_op(label, inp, n, s, k):
    def check(r):
        acc = s
        for _ in range(k - 1):
            acc = acc * s
        return same(r, acc)

    return Op(label, inp, n, lambda: s**k, check)


def _compose_op(label, inp, n, f, h):
    """f(h(x)), checked by the chain rule (f o h)' = (f' o h) h'."""

    def check(r):
        return r.order == n and r[0] == f[0] and same(
            r.derivative(), f.derivative().compose(h) * h.derivative()
        )

    return Op(label, inp, n, lambda: f.compose(h), check)


def _revert_op(R, label, inp, n, h):
    return Op(label, inp, n, lambda: h.revert(),
              lambda r: same(h.compose(r), R.x_series(n)))


def series_int(R, rng):
    S = R.Series
    inputs, ops = {}, []
    for n in INT_LENGTHS:
        # b has a unit constant term, so a / b stays integral
        a = S(_ints(rng, n), n)
        b = S([rng.choice((-1, 1))] + _ints(rng, n - 1), n)
        cat, geo = R.catalan(n), R.geometric(n)
        inputs[f"a{n}"], inputs[f"b{n}"] = a, b
        ops += [
            _mul_op(f"mul@{n}", "a*b", n, a, b),
            _mul_op(f"mul-catalan@{n}", "a*catalan", n, a, cat),
            _div_op(f"div@{n}", "a/b", n, a, b),
            _div_op(f"div-geometric@{n}", "a/geometric", n, a, geo),
            _pow_op(f"pow{INT_POWER}@{n}", "b^k", n, b, INT_POWER),
        ]
    for n in INT_COMPOSE_LENGTHS:
        f = S(_ints(rng, n), n)
        h = S([0, rng.choice((-1, 1))] + _ints(rng, n - 2), n)
        cat = R.catalan(n)
        xcat = cat.shift_up(1)
        inputs[f"f{n}"], inputs[f"h{n}"] = f, h
        ops += [
            _compose_op(f"compose@{n}", "f(h)", n, f, h),
            _compose_op(f"compose-catalan@{n}", "catalan(h)", n, cat, h),
            _revert_op(R, f"revert@{n}", "h", n, h),
            _revert_op(R, f"revert-xcatalan@{n}", "x*catalan", n, xcat),
        ]
    return inputs, _by_kind(ops)


# -- series_rat ----------------------------------------------------------

RAT_LENGTHS = (24, 32, 48, 64)
RAT_PARAM_LENGTHS = (24, 32, 48)
RAT_COMPOSE_LENGTHS = (16, 24, 32)
RAT_EXPONENTS = (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))


# Coefficient k of a rational series has denominator 1 + k % 16 exactly (its
# numerator is drawn coprime to it, never zero), so the seed changes the
# values but not the denominators, which set the cost of exact arithmetic.
RAT_DENOMINATORS = 16


def _rat(rng, k):
    q = 1 + k % RAT_DENOMINATORS
    p = rng.choice([p for p in range(1, 10) if gcd(p, q) == 1])
    return Fraction(rng.choice((-1, 1)) * p, q)


def _rats(rng, n, start=0):
    return [_rat(rng, k) for k in range(start, n)]


def _pow_rat_op(label, inp, n, s, e):
    """s^e, checked as r^q == s^p (or r^q s^|p| == 1 when p < 0)."""
    p, q = e.numerator, e.denominator

    def check(r):
        if p > 0:
            return same(r**q, s**p)
        return same(r**q * s ** (-p), s**0)

    return Op(label, inp, n, lambda: s.pow_rat(e), check)


def _pow_param_op(label, inp, n, s):
    def check(r):
        return r.order == n and all(
            same(r.eval_param(e), s.pow_rat(e)) for e in RAT_EXPONENTS
        )

    return Op(label, inp, n, lambda: s.pow_param(), check)


def series_rat(R, rng):
    S = R.Series
    inputs, ops = {}, []
    for n in RAT_LENGTHS:
        a = S(_rats(rng, n), n)
        b = S(_rats(rng, n), n)
        s = S([1] + _rats(rng, n, 1), n)  # constant term 1: sqrt, log, powers
        e = S([0] + _rats(rng, n, 1), n)  # constant term 0: exp
        inputs.update({f"a{n}": a, f"b{n}": b, f"s{n}": s, f"e{n}": e})
        ops += [
            _mul_op(f"mul@{n}", "a*b", n, a, b),
            _div_op(f"div@{n}", "a/b", n, a, b),
            _pow_op(f"pow2@{n}", "b^k", n, b, 2),
            Op(f"sqrt@{n}", "s", n, lambda s=s: s.sqrt(), lambda r, s=s: same(r * r, s)),
            Op(f"log@{n}", "s", n, lambda s=s: s.log(), lambda r, s=s: same(r.exp(), s)),
            Op(f"exp@{n}", "e", n, lambda e=e: e.exp(), lambda r, e=e: same(r.log(), e)),
        ]
        ops += [_pow_rat_op(f"pow_rat({x})@{n}", "s", n, s, x) for x in RAT_EXPONENTS]
        if n in RAT_PARAM_LENGTHS:
            ops.append(_pow_param_op(f"pow_param@{n}", "s", n, s))
    for n in RAT_COMPOSE_LENGTHS:
        f = S(_rats(rng, n), n)
        h = S([0] + _rats(rng, n, 1), n)
        inputs[f"f{n}"], inputs[f"h{n}"] = f, h
        ops += [
            _compose_op(f"compose@{n}", "f(h)", n, f, h),
            _revert_op(R, f"revert@{n}", "h", n, h),
        ]
    return inputs, _by_kind(ops)


# -- structures ----------------------------------------------------------

# size -> inputs run at that size; fewer inputs at the costly sizes keep
# a pass near ten seconds, so a run repeats it
STRUCT_SIZES = {
    16: ("rna", "catalan", "motzkin", "catalan3", "seeded"),
    24: ("rna", "catalan", "seeded"),
    32: ("rna",),
}
STRUCT_POWERS = (Fraction(1, 2), Fraction(-1, 2))


def _b_identity(R, g, b) -> bool:
    """g == 1 + x g B(x^2 g): the defining relation of a B-sequence."""
    n = g.order
    x = R.x_series(n)
    rhs = R.one_series(n) + x * g * b.pad_zeros(n).compose(x * x * g)
    return same(rhs, g)


def _log_generator_ok(R, g, b) -> bool:
    """b(0) == g'(0) and g^2 b(xg) == b (xg)'; these fix b uniquely."""
    m = g.order - 1
    gm = g.truncate(m)
    xg = gm.shift_up(1, extend=True)
    return (
        b.order == m
        and b[0] == g[1]
        and same(gm * gm * b.compose(xg), b * xg.derivative())
    )


def _bell_log_ok(R, g, log) -> bool:
    """The log of (g, xg) is (b(x), x) D^T: entry (i, m) is (m+1) b_(i-m-1)."""
    n = g.order
    if log.nrows != n:
        return False
    b = [log.rows[i + 1][0] for i in range(n - 1)]
    for i, row in enumerate(log.rows):
        for m, c in enumerate(row):
            if c != ((m + 1) * b[i - m - 1] if i > m else 0):
                return False
    return _log_generator_ok(R, g, R.Series(b, n - 1))


def _composition_ok(R, g, cm) -> bool:
    """Rows at phi = 1 give g; at phi = 2 they give column 0 of (g, xg)^2."""
    n = g.order
    if cm.nrows != n:
        return False
    square = g * g.compose(g.shift_up(1))
    for i in range(n):
        row = cm.triangle.rows[i]
        if sum(row) != g[i] or sum(c * 2**m for m, c in enumerate(row)) != square[i]:
            return False
    return True


def _structure_ops(R, name, g, b, partner, probe):
    """All structure ops on the Bell pair (g, xg); ``b`` is its B-sequence
    (None when (g, xg) is not a pseudo-involution)."""
    n = g.order
    RM = R.RiordanMatrix
    xg = g.shift_up(1)

    def label(op):
        return f"{op}/{name}@{n}"

    def triangle_ok(t):
        return same(R.Series(t.apply_vec(list(probe.coeffs)), n), g * probe.compose(xg))

    def multiply_ok(r):
        want = RM(g, g).triangle().matmul(RM(partner, partner).triangle())
        return same(r.triangle(), want)

    def power_ok(h, e):
        half = RM(h, h).multiply(RM(h, h))
        if e > 0:
            return same(half, RM(g, g))
        return same(half.multiply(RM(g, g)), RM.identity(n))

    ops = [
        Op(label("triangle"), name, n, lambda: RM(g, g).triangle(), triangle_ok),
        Op(label("inverse"), name, n, lambda: RM(g, g).inverse(),
           lambda r: same(RM(g, g).multiply(r), RM.identity(n))),
        Op(label("multiply"), name, n, lambda: RM(g, g).multiply(RM(partner, partner)),
           multiply_ok),
        Op(label("a_sequence"), name, n, lambda: RM(g, g).a_sequence(),
           lambda r: same(r.compose(xg), g)),
    ]
    if b is not None:
        ops += [
            Op(label("b_sequence"), name, n, lambda: RM(g, g).b_sequence(),
               lambda r: _b_identity(R, g, r)),
            Op(label("from_b_sequence"), name, n, lambda: R.from_b_sequence(b, n),
               lambda r: same(r.f, R.one_series(n)) and _b_identity(R, r.g, b)),
        ]
    ops += [
        Op(label("bell_log"), name, n, lambda: R.bell_log(g),
           lambda r: _bell_log_ok(R, g, r)),
        Op(label("composition_matrix"), name, n, lambda: R.composition_matrix(g),
           lambda r: _composition_ok(R, g, r)),
        Op(label("log_generator"), name, n, lambda: R.log_generator(g),
           lambda r: _log_generator_ok(R, g, r)),
    ]
    for e in STRUCT_POWERS:
        ops.append(Op(label(f"bell_power({e})"), name, n,
                      lambda e=e: R.bell_power(g, e), lambda r, e=e: power_ok(r, e)))
    return ops


def structures(R, rng):
    S = R.Series
    top = max(STRUCT_SIZES)
    # seeded pseudo-involution: B = 1 + u1 x + ... + u5 x^5 with (u1..u5) a
    # seeded order of (1, 1, 2, 2, 3); a fixed multiset keeps the size of
    # g's coefficients, and so the cost, about the same for every seed
    seeded_b = S([1] + rng.sample((1, 1, 2, 2, 3), 5), 6)
    catalan = R.catalan(top)
    bell = {  # name -> (g, B-sequence or None)
        "rna": (R.rna_series(top), R.geometric(top // 2)),
        "catalan": (catalan, None),
        "motzkin": (R.from_b_sequence(S([1, 1], 2), top).g, S([1, 1], 2)),
        "catalan3": (catalan**3, S([3, 1], 2)),
        "seeded": (R.from_b_sequence(seeded_b, top).g, seeded_b),
    }
    probe = S([rng.randint(-9, 9) for _ in range(top)], top)
    inputs = {"seeded_b": seeded_b, "probe": probe}
    inputs.update({name: g for name, (g, _) in bell.items()})
    ops = []
    for n, names in STRUCT_SIZES.items():
        for name in names:
            g, b = bell[name]
            partner = bell["rna" if name == "catalan" else "catalan"][0]
            ops += _structure_ops(
                R, name, g.truncate(n), b, partner.truncate(n), probe.truncate(n)
            )
    return inputs, _by_kind(ops)


# -- cli -----------------------------------------------------------------

CLI_CHECK_ORDERS = (12, 16)
CLI_BEXPAND_NS = (16, 20, 24, 28)
CLI_BCOMP_ROWS = (24, 32, 40)
CLI_VENDORED = ("A097724", "rna", 16)
CLI_B_VALUES = (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, -1, -1, -2, -2)


def _run_cli(R, argv):
    """riordan.cli.main(argv) in process; returns (exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = R.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            status = exc.code
    return status, out.getvalue()


def _cli_op(R, label, inp, n, argv, expected):
    """A CLI op is correct when it exits 0 and prints exactly what the
    library gives for the same inputs."""
    return Op(label, inp, n, lambda: _run_cli(R, argv),
              lambda r: r == (0, expected() + "\n"))


def _check_op(R, order):
    """``check --all`` must pass every suite the library runs and say N/N."""

    def check(r):
        results = R.run_all(order)
        total = len(results)
        lines = [f"PASS {res.suite}.{res.name}" for res in results if res.passed]
        lines.append(f"{total}/{total} checks passed")
        return r == (0, "\n".join(lines) + "\n")

    argv = ["check", "--all", "--order", str(order)]
    return Op(f"check@{order}", "suites", order, lambda: _run_cli(R, argv), check)


def cli(R, rng):
    E, F = R.exprparse, R.render

    def ev(text, n):
        return E.eval_expr(E.parse_expr(text), n)

    # the seed picks signs and orders, not magnitudes, so coefficient sizes
    # (and so costs) stay alike across seeds
    def sign():
        return rng.choice("+-")

    b_expr = "coeffs([1," + ",".join(map(str, rng.sample(CLI_B_VALUES, 20))) + "])"
    f_expr = f"(1{sign()}{rng.choice((2, 3))}*x)^3"
    a, b = rng.sample((1, 2), 2)
    g_expr = f"1/(1{sign()}{a}*x-{b}*x^2)"
    pi_expr = f"1/(1{sign()}3*x)"  # (g, xg) is a pseudo-involution, B = -+3
    cat_expr = f"catalan^2*(1{sign()}x)"
    poly_expr = "coeffs([1," + ",".join(map(str, rng.sample((2, -1, 3), 3))) + "])"
    down, up = rng.randint(2, 6), rng.randint(18, 24)
    inputs = {"b": b_expr, "f": f_expr, "g": g_expr, "pi": pi_expr,
              "catalan": cat_expr, "poly": poly_expr, "diag": (down, up)}
    RM, one = R.RiordanMatrix, R.one_series

    ops = [_check_op(R, order) for order in CLI_CHECK_ORDERS]
    for n in CLI_BEXPAND_NS:
        ops.append(_cli_op(
            R, f"bexpand@{n}", "b", n, ["bexpand", "--b", b_expr, "--n", str(n)],
            lambda n=n: F.format_poly(R.b_expand(ev(b_expr, n + 1), n, "phi"))))
    for rows in CLI_BCOMP_ROWS:
        ops.append(_cli_op(
            R, f"bcomp@{rows}", "b", rows, ["bcomp", "--b", b_expr, "--rows", str(rows)],
            lambda rows=rows: F.format_triangle(R.bcomp_matrix(ev(b_expr, rows), rows).triangle)))
    ops += [
        _cli_op(R, "matrix-json@24", "f,g", 24,
                ["matrix", "--f", f_expr, "--g", g_expr, "--rows", "24", "--format", "json"],
                lambda: F.format_triangle(RM(ev(f_expr, 24), ev(g_expr, 24)).triangle(), "json")),
        _cli_op(R, "matrix-csv@32", "catalan", 32,
                ["matrix", "--g", cat_expr, "--rows", "32", "--format", "csv", "--header"],
                lambda: F.format_triangle(RM(one(32), ev(cat_expr, 32)).triangle(), "csv", True)),
        _cli_op(R, "diag-down-json@32", "g", 32,
                ["diag", "--g", g_expr, "--rows", "32", "--index", str(down), "--format", "json"],
                lambda: F.format_series(RM(one(32), ev(g_expr, 32)).triangle().diag_down(down), "json")),
        _cli_op(R, "diag-up-csv@32", "g", 32,
                ["diag", "--f", f_expr, "--g", g_expr, "--rows", "32", "--direction", "up",
                 "--index", str(up), "--format", "csv"],
                lambda: F.format_poly(RM(ev(f_expr, 32), ev(g_expr, 32)).triangle().diag_up(up), "csv")),
        _cli_op(R, "bseq@24", "pi", 24, ["bseq", "--g", pi_expr, "--order", "24"],
                lambda: F.format_series(RM(one(24), ev(pi_expr, 24)).b_sequence())),
        _cli_op(R, "bseq-bell@20", "rna", 20, ["bseq", "--f", "rna", "--g", "rna", "--order", "20"],
                lambda: F.format_series(RM(ev("rna", 20), ev("rna", 20)).b_sequence())),
        _cli_op(R, "aseq@32", "g", 32, ["aseq", "--g", g_expr, "--order", "32"],
                lambda: F.format_series(RM(one(32), ev(g_expr, 32)).a_sequence())),
        _cli_op(R, "sqrt-factor@24", "pi", 24, ["sqrt-factor", "--g", pi_expr, "--order", "24"],
                lambda: F.format_pairs(list(zip("hs", RM(one(24), ev(pi_expr, 24)).sqrt_factorization())))),
        _cli_op(R, "power(1/2)@16", "g", 16,
                ["power", "--g", g_expr, "--phi=1/2", "--order", "16", "--format", "json"],
                lambda: F.format_series(R.bell_power(ev(g_expr, 16), Fraction(1, 2)), "json")),
        _cli_op(R, "power(-2/3)@16", "g", 16,
                ["power", "--g", g_expr, "--phi=-2/3", "--order", "16"],
                lambda: F.format_series(R.bell_power(ev(g_expr, 16), Fraction(-2, 3)))),
        _cli_op(R, "comp-poly@10", "poly", 10,
                ["comp-poly", "--g", poly_expr, "--rows", "10", "--format", "json"],
                lambda: F.format_triangle(R.composition_matrix(ev(poly_expr, 10)).triangle, "json")),
    ]
    seq_id, expr, order = CLI_VENDORED
    ops.append(_cli_op(
        R, f"oeis-compare@{order}", expr, order,
        ["oeis-compare", "--vendored", seq_id, "--expr", expr, "--order", str(order)],
        lambda: R.oeis.compare([int(c) for c in ev(expr, order).coeffs],
                               R.oeis.load_vendored(seq_id), 8).summary()))
    return inputs, ops


WORKLOADS = {
    "series_int": (series_int, ("riordan",)),
    "series_rat": (series_rat, ("riordan",)),
    "structures": (structures, ("riordan",)),
    "cli": (cli, ("riordan", "riordan.cli")),
}
