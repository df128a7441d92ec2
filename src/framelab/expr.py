"""Tiny expression language for multiplier and spectrum profiles.

Grammar (whitespace-insensitive)::

    expr      := term  (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | atom
    atom      := NUMBER | 't' | 'pi' | 'i'
               | ('sin' | 'cos' | 'exp' | 'abs') '(' expr ')'
               | '(' expr ')'
               | 'piecewise' '(' piece (';' piece)* ')'
    piece     := '[' signed ',' signed ']' ':' expr

Pieces are closed intervals, first match wins, and points outside every
piece evaluate to zero.  Printing a parsed tree yields a canonical source
that reparses to an identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .domain import Grid, SampledFunction
from .errors import ExprError

__all__ = ["ExprMultiplier", "parse_multiplier", "parse_expr", "print_expr"]

_FUNCTIONS = ("sin", "cos", "exp", "abs")
_CONSTANTS = {"pi": complex(np.pi), "i": 1j}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/()\[\],:;]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    body: object


@dataclass(frozen=True)
class Piecewise:
    pieces: tuple


def _tokenize(src: str) -> list:
    # (kind, text, offset) triples; '−' is accepted as a minus sign.
    src = src.replace("−", "-")
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            offset = len(src) - len(stripped)
            raise ExprError(f"unexpected character {stripped[0]!r}", offset)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text: str):
        kind, got, off = self.peek()
        if kind == "sym" and got == text:
            return self.next()
        shown = got if kind != "end" else "end of input"
        raise ExprError(f"expected {text!r}, found {shown!r}", off)

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing {text!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "+-":
                self.next()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "*/":
                self.next()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "sym" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "t":
                return Name("t")
            if text in _CONSTANTS:
                return Name(text)
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text == "piecewise":
                return self.piecewise()
            raise ExprError(f"unknown identifier {text!r}", off)
        if kind == "sym" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        shown = text if kind != "end" else "end of input"
        raise ExprError(f"unexpected {shown!r}", off)

    def signed_number(self) -> float:
        kind, text, off = self.next()
        sign = 1.0
        if kind == "sym" and text == "-":
            sign = -1.0
            kind, text, off = self.next()
        if kind != "num":
            raise ExprError(f"expected a number, found {text!r}", off)
        return sign * float(text)

    def piecewise(self):
        self.expect("(")
        pieces = []
        while True:
            self.expect("[")
            lo = self.signed_number()
            self.expect(",")
            hi = self.signed_number()
            self.expect("]")
            kind, text, off = self.next()
            if not (kind == "sym" and text == ":"):
                raise ExprError(f"expected ':', found {text!r}", off)
            if hi < lo:
                raise ExprError("piece interval endpoints are reversed", off)
            pieces.append(Piece(lo, hi, self.expr()))
            kind, text, off = self.peek()
            if kind == "sym" and text == ";":
                self.next()
                continue
            self.expect(")")
            return Piecewise(tuple(pieces))


def parse_expr(src: str):
    """Source text -> AST; syntax errors carry byte offsets."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    return _Parser(src).parse()


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2
    return 3


def print_expr(node) -> str:
    """Canonical source; parse(print_expr(ast)) == ast."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        inner = print_expr(node.arg)
        if isinstance(node.arg, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        left = print_expr(node.left)
        if _prec(node.left) < _prec(node):
            left = f"({left})"
        right = print_expr(node.right)
        # same-precedence right children keep their grouping only in parens
        if _prec(node.right) <= _prec(node):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Call):
        return f"{node.fn}({print_expr(node.arg)})"
    if isinstance(node, Piecewise):
        body = "; ".join(
            f"[{repr(p.lo)},{repr(p.hi)}]: {print_expr(p.body)}" for p in node.pieces
        )
        return f"piecewise({body})"
    raise TypeError(f"not an expression node: {node!r}")


_DIV_FLOOR = 1e-300


def _eval(node, t: np.ndarray) -> np.ndarray:
    if isinstance(node, Num):
        return np.full(t.shape, complex(node.value))
    if isinstance(node, Name):
        if node.ident == "t":
            return t.astype(complex)
        return np.full(t.shape, _CONSTANTS[node.ident])
    if isinstance(node, Neg):
        return -_eval(node.arg, t)
    if isinstance(node, BinOp):
        left = _eval(node.left, t)
        right = _eval(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(np.abs(right) <= _DIV_FLOOR):
            raise ExprError(f"division by a value at or below {_DIV_FLOOR}")
        return left / right
    if isinstance(node, Call):
        arg = _eval(node.arg, t)
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}[node.fn]
        return np.asarray(fn(arg), dtype=complex)
    if isinstance(node, Piecewise):
        out = np.zeros(t.shape, dtype=complex)
        assigned = np.zeros(t.shape, dtype=bool)
        for piece in node.pieces:
            mask = ~assigned & (t >= piece.lo) & (t <= piece.hi)
            if mask.any():
                out[mask] = _eval(piece.body, t[mask])
            assigned |= mask
        return out
    raise TypeError(f"not an expression node: {node!r}")


@dataclass(frozen=True)
class ExprMultiplier:
    """A parsed profile usable as a multiplier or a generator spectrum."""

    source: str
    ast: object

    @classmethod
    def parse(cls, src: str) -> "ExprMultiplier":
        ast = parse_expr(src)
        return cls(source=print_expr(ast), ast=ast)

    def __call__(self, t) -> np.ndarray:
        """The profile at ``t``; a value that overflows or is undefined
        (inf or NaN) is an ExprError naming the first ``t`` that gives one."""
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _eval(self.ast, flat)
        bad = ~np.isfinite(values)
        if bad.any():
            at = float(flat.ravel()[np.argmax(bad.ravel())])
            raise ExprError(f"expression {self.source!r} is not finite at t = {at!r}")
        return values.reshape(arr.shape)

    def sample(self, grid: Grid) -> SampledFunction:
        return SampledFunction(grid, self(grid.nodes))


def parse_multiplier(src: str) -> ExprMultiplier:
    """Parse profile source text; errors carry byte offsets."""
    return ExprMultiplier.parse(src)
