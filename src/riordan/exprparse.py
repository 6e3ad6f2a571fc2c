"""Parse and evaluate generating-function expressions.

The grammar covers what the CLI needs to name a series on the command
line: integer literals, the formal variable ``x``, the four arithmetic
operators, integer powers, ``sqrt``, a handful of named series, and
explicit coefficient lists::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' signed-integer)*
    primary := integer | 'x' | 'catalan' | 'rna' | 'geom'
             | 'sqrt' '(' expr ')'
             | 'binom_series' '(' signed-integer ')'
             | 'coeffs' '(' '[' rational (',' rational)* ']' ')'
             | '(' expr ')'

``geom`` is 1/(1-x); ``binom_series(r)`` solves B = 1 + x B^r;
``coeffs([a0,a1,...])`` is the polynomial with those coefficients
(entries may be signed ``p/q`` rationals).  Parse errors carry the
byte offset and the set of tokens that would have been accepted.

Both the tree depth and the parenthesis nesting are at most
``EXPR_DEPTH_LIMIT``; deeper input is a ParseError, not a RecursionError
in the parser, the evaluator or the renderer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .bexpansion import binomial_series, rna_series
from .series import Series, catalan, geometric

__all__ = [
    "Expr",
    "Lit",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Sqrt",
    "NamedSeries",
    "CoeffList",
    "EXPR_DEPTH_LIMIT",
    "ParseError",
    "EvalError",
    "parse_expr",
    "eval_expr",
    "render_expr",
]

EXPR_DEPTH_LIMIT = 100  # each group costs ~6 parser frames of the default 1000


class ParseError(ValueError):
    """Syntax error with byte offset and the acceptable next tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        super().__init__(
            f"syntax error at byte {offset}: expected "
            + " | ".join(self.expected)
        )


class EvalError(ValueError):
    """Expression is well-formed but cannot be evaluated."""


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Sqrt(Expr):
    operand: Expr


@dataclass(frozen=True)
class NamedSeries(Expr):
    name: str
    degree: int | None = None


@dataclass(frozen=True)
class CoeffList(Expr):
    values: tuple[Fraction, ...]


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_NAMES = {"x", "sqrt", "catalan", "rna", "geom", "binom_series", "coeffs"}
_PLAIN_SERIES = {"catalan", "rna", "geom"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", or the operator/delimiter character
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():  # keep the catch-all from eating blanks
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group(1) is not None:
            tokens.append(_Token("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(_Token("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if ch not in "+-*/^()[],":
                raise ParseError(
                    len(text[: m.start(3)].encode()), ("operator", "operand")
                )
            tokens.append(_Token(ch, ch, m.start(3)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # parenthesised groups around the current token

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, *expected: str):
        tok = self.current
        offset = len(self.text[: tok.offset].encode())
        raise ParseError(offset, expected)

    def _eat(self, kind: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            self._fail(kind if kind != "num" else "integer")
        self.i += 1
        return tok

    def parse(self) -> Expr:
        node, _ = self.expr()
        if self.current.kind != "end":
            self._fail("operator", "end of input")
        return node

    def _deeper(self, depth: int) -> int:
        """One level deeper; grammar rules return (node, tree depth)."""
        if depth >= EXPR_DEPTH_LIMIT:
            self._fail(f"at most {EXPR_DEPTH_LIMIT} levels of nesting")
        return depth + 1

    def _group(self) -> tuple[Expr, int]:
        """An expr inside '(' ... ')'; fails before recursing too deep."""
        self.open = self._deeper(self.open)
        self._eat("(")
        node, depth = self.expr()
        self._eat(")")
        self.open -= 1
        return node, depth

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.current.kind in "+-":
            op = self._eat(self.current.kind).kind
            right, rdepth = self.term()
            node = BinOp(op, node, right)
            depth = self._deeper(max(depth, rdepth))
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.unary()
        while self.current.kind in "*/":
            op = self._eat(self.current.kind).kind
            right, rdepth = self.unary()
            node = BinOp(op, node, right)
            depth = self._deeper(max(depth, rdepth))
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        signs = 0
        while self.current.kind == "-":
            self._eat("-")
            signs += 1
        node, depth = self.power()
        for _ in range(signs):
            node, depth = Neg(node), self._deeper(depth)
        return node, depth

    def power(self) -> tuple[Expr, int]:
        node, depth = self.primary()
        while self.current.kind == "^":
            self._eat("^")
            node, depth = Pow(node, self._signed_int()), self._deeper(depth)
        return node, depth

    def _signed_int(self) -> int:
        sign = 1
        if self.current.kind == "-":
            self._eat("-")
            sign = -1
        tok = self._eat("num")
        return sign * int(tok.text)

    def _rational(self) -> Fraction:
        num = self._signed_int()
        if self.current.kind == "/":
            self._eat("/")
            den_tok = self._eat("num")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError(
                    len(self.text[: den_tok.offset].encode()),
                    ("nonzero denominator",),
                )
            return Fraction(num, den)
        return Fraction(num)

    def primary(self) -> tuple[Expr, int]:
        tok = self.current
        if tok.kind == "num":
            self._eat("num")
            return Lit(Fraction(int(tok.text))), 1
        if tok.kind == "(":
            return self._group()
        if tok.kind == "name":
            if tok.text not in _NAMES:
                self._fail(*sorted(_NAMES))
            self._eat("name")
            if tok.text == "x":
                return Var(), 1
            if tok.text in _PLAIN_SERIES:
                return NamedSeries(tok.text), 1
            if tok.text == "sqrt":
                node, depth = self._group()
                return Sqrt(node), self._deeper(depth)
            if tok.text == "binom_series":
                self._eat("(")
                r = self._signed_int()
                self._eat(")")
                return NamedSeries("binom_series", r), 1
            # coeffs([a0, a1, ...])
            self._eat("(")
            self._eat("[")
            values = [self._rational()]
            while self.current.kind == ",":
                self._eat(",")
                values.append(self._rational())
            self._eat("]")
            self._eat(")")
            return CoeffList(tuple(values)), 1
        self._fail("integer", "x", "(", "-", *sorted(_NAMES - {"x"}))


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree, or raise ParseError."""
    return _Parser(text).parse()


def eval_expr(node: Expr, order: int) -> Series:
    """Evaluate an expression tree to a Series truncated at ``order``."""
    if order < 1:
        raise EvalError("order must be at least 1")
    try:
        return _eval(node, order)
    except ZeroDivisionError as exc:
        raise EvalError(
            "division by a series with zero constant term"
        ) from exc
    except ValueError as exc:
        if isinstance(exc, EvalError):
            raise
        raise EvalError(str(exc)) from exc


def _eval(node: Expr, order: int) -> Series:
    if isinstance(node, Lit):
        return Series([node.value], 1).pad_zeros(order)
    if isinstance(node, Var):
        return Series([0, 1], 2).pad_zeros(order) if order > 1 else Series([0], 1)
    if isinstance(node, Neg):
        return -_eval(node.operand, order)
    if isinstance(node, BinOp):
        left = _eval(node.left, order)
        right = _eval(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return _eval(node.base, order) ** node.exponent
    if isinstance(node, Sqrt):
        return _eval(node.operand, order).sqrt()
    if isinstance(node, NamedSeries):
        if node.name == "catalan":
            return catalan(order)
        if node.name == "rna":
            return rna_series(order)
        if node.name == "geom":
            return geometric(order)
        return binomial_series(node.degree, order)
    if isinstance(node, CoeffList):
        return Series(list(node.values), len(node.values)).pad_zeros(order) \
            if len(node.values) < order else Series(list(node.values), order)
    raise EvalError(f"cannot evaluate node {node!r}")


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def render_expr(node: Expr) -> str:
    """Canonical text for an expression; parse(render(e)) == e."""
    if isinstance(node, Lit):
        return str(node.value.numerator)  # literals are always integral
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        inner = render_expr(node.operand)
        if _prec(node.operand) < _PREC_NEG or isinstance(node.operand, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        mine = _prec(node)
        left = render_expr(node.left)
        if _prec(node.left) < mine:
            left = f"({left})"
        right = render_expr(node.right)
        if _prec(node.right) <= mine:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Pow):
        base = render_expr(node.base)
        if _prec(node.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Sqrt):
        return f"sqrt({render_expr(node.operand)})"
    if isinstance(node, NamedSeries):
        if node.name == "binom_series":
            return f"binom_series({node.degree})"
        return node.name
    if isinstance(node, CoeffList):
        return "coeffs([" + ",".join(str(v) for v in node.values) + "])"
    raise ValueError(f"cannot render node {node!r}")
