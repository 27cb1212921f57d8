"""Recursive-descent parser for the expression syntax.

Syntax: space variables by declared name; jet coordinates as
``<unknown>_<subscript letters>`` (``u_xy`` is the mixed second derivative,
``u`` alone the order-0 jet); operators ``+ - * / ^``; functions sin, cos,
exp, log, sqrt; rational literals ``a/b`` and decimals (parsed exactly).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    FUNCTIONS,
    Const,
    Expr,
    JetVar,
    MINUS_ONE,
    SpaceVar,
    Var,
    sfn,
    spow,
    sprod,
    squot,
    ssum,
)
from .multiindex import MultiIndex, zero_index


@dataclass(frozen=True)
class ParseDiagnostic:
    position: int
    message: str

    def __str__(self):
        return f"at offset {self.position}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic

    @property
    def position(self) -> int:
        return self.diagnostic.position


class Context:
    """Declared variables of one problem: n space axes and k unknowns.

    Also the factory for canonically named Variables, so that expressions
    built programmatically print with the same names the parser accepts.
    """

    def __init__(
        self,
        space_names: list[str] | tuple[str, ...],
        unknown_names: list[str] | tuple[str, ...] = ("u",),
        max_jet_order: int | None = None,
    ):
        self.space_names = tuple(space_names)
        self.unknown_names = tuple(unknown_names)
        self.max_jet_order = max_jet_order
        if len(set(self.space_names) | set(self.unknown_names)) != len(
            self.space_names
        ) + len(self.unknown_names):
            raise ValueError("variable names must be distinct")
        for name in self.space_names + self.unknown_names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", name):
                raise ValueError(f"bad variable name {name!r}")

    @property
    def n(self) -> int:
        return len(self.space_names)

    @property
    def k(self) -> int:
        return len(self.unknown_names)

    def space(self, axis: int) -> SpaceVar:
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} outside [1, {self.n}]")
        return SpaceVar(axis, self.space_names[axis - 1])

    def space_vars(self) -> tuple[SpaceVar, ...]:
        return tuple(self.space(i) for i in range(1, self.n + 1))

    def jet(self, unknown: int, p: MultiIndex | tuple[int, ...]) -> JetVar:
        if isinstance(p, tuple):
            p = MultiIndex(p)
        if not 1 <= unknown <= self.k:
            raise ValueError(f"unknown index {unknown} outside [1, {self.k}]")
        if p.n != self.n:
            raise ValueError("multi-index dimension mismatch")
        # max_jet_order bounds parsed input only; prolongation builds
        # higher-order jets programmatically
        return JetVar(unknown, p, self.jet_name(unknown, p))

    def jet_name(self, unknown: int, p: MultiIndex) -> str:
        base = self.unknown_names[unknown - 1]
        if p.order == 0:
            return base
        subscript = "".join(
            self.space_names[axis] * count for axis, count in enumerate(p.entries)
        )
        return f"{base}_{subscript}"

    def parse(self, text: str) -> Expr:
        return parse_expression(text, self)


def parse_rational(text) -> Fraction:
    """A rational literal such as '-3/4' or '0.5' (or an int or Fraction)
    as a Fraction.  Anything that is not a finite rational, a zero
    denominator included, raises ValueError."""
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ValueError(f"{text!r} is not a rational number: {exc}") from None


def parse_expression(text: str, context: Context) -> Expr:
    """Parse text into a canonical Expr; raises ParseError with the offset
    of the offending character on malformed input."""
    return _Parser(text, context).run()


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^(),]))"
)


class _Parser:
    def __init__(self, text: str, context: Context):
        self.text = text
        self.context = context
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(ParseDiagnostic(at, f"unexpected character {text[at]!r}"))
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def run(self) -> Expr:
        e = self.expr()
        if self.i < len(self.tokens):
            kind, value, at = self.tokens[self.i]
            raise ParseError(ParseDiagnostic(at, f"unexpected {value!r}"))
        return e

    # --- token helpers

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, message, at=None):
        if at is None:
            at = self.peek()[2]
        raise ParseError(ParseDiagnostic(at, message))

    # --- grammar

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.i += 1
                t = self.term()
                terms.append(t if value == "+" else sprod([MINUS_ONE, t]))
            else:
                return ssum(terms)

    def term(self) -> Expr:
        acc = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.i += 1
                rhs = self.factor()
                acc = sprod([acc, rhs]) if value == "*" else squot(acc, rhs)
            else:
                return acc

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.i += 1
            return sprod([MINUS_ONE, self.factor()])
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.i += 1
            exp_at = self.peek()[2]
            exponent = self.factor()
            if not isinstance(exponent, Const):
                self.fail("exponent must be a rational constant", exp_at)
            return spow(base, exponent.value)
        return base

    def atom(self) -> Expr:
        kind, value, at = self.next()
        if kind == "num":
            return Const(Fraction(value))
        if kind == "op" and value == "(":
            e = self.expr()
            k2, v2, at2 = self.next()
            if not (k2 == "op" and v2 == ")"):
                self.fail("unbalanced parentheses: expected ')'", at2)
            return e
        if kind == "ident":
            if value in FUNCTIONS:
                k2, v2, at2 = self.next()
                if not (k2 == "op" and v2 == "("):
                    self.fail(f"expected '(' after function {value}", at2)
                arg = self.expr()
                k3, v3, at3 = self.next()
                if not (k3 == "op" and v3 == ")"):
                    self.fail("unbalanced parentheses: expected ')'", at3)
                return sfn(value, arg)
            return self.variable(value, at)
        self.fail("expected a number, variable or '('", at)

    def variable(self, name: str, at: int) -> Expr:
        ctx = self.context
        if name in ctx.space_names:
            return Var(ctx.space(ctx.space_names.index(name) + 1))
        base, _, subscript = name.partition("_")
        if base in ctx.unknown_names:
            unknown = ctx.unknown_names.index(base) + 1
            if "_" not in name:
                return Var(ctx.jet(unknown, zero_index(ctx.n)))
            if not subscript:
                self.fail("malformed subscript: empty", at)
            entries = [0] * ctx.n
            for ch in subscript:
                if ch not in ctx.space_names:
                    self.fail(
                        f"malformed subscript: {ch!r} is not a space variable", at
                    )
                entries[ctx.space_names.index(ch)] += 1
            p = MultiIndex(tuple(entries))
            if ctx.max_jet_order is not None and p.order > ctx.max_jet_order:
                self.fail(
                    f"jet order {p.order} exceeds the declared bound "
                    f"{ctx.max_jet_order}",
                    at,
                )
            return Var(ctx.jet(unknown, p))
        self.fail(f"unknown identifier {name!r}", at)
