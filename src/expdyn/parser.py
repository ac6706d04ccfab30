"""Textual map grammar: parsing and canonical printing.

    expr := "F(" c "," c ")" | "G(" c "," c ")" | "exp(" c ")"
          | "iter(" expr "," int ")" | "shift(" expr "," c ")"
          | "comp(" expr "," expr ")" | "conj(" c "," c "," expr ")"

A complex literal c is "a", "a+bi" or "a-bi" with decimal reals (optional
exponent part); b carries no sign of its own ("1+-2i" is an error), and
the "i" suffix is the only accepted spelling, no "j".
A node kind's keyword and its arguments in field order are read from its
row of ``maps.NODE_KINDS``, which holds its own constraints too.  A literal
that overflows to infinity is a syntax error.  Whitespace is insignificant.
Parsed maps are validated; ``format_map`` is the inverse on expression trees.
"""

from __future__ import annotations

import math
import re

from .maps import NODE_KINDS, MapExpr, node_fields, validate

__all__ = ["MapSyntaxError", "parse_map", "parse_complex", "format_map", "format_complex"]

_REAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INT = re.compile(r"\d+")


class MapSyntaxError(ValueError):
    """Syntax error with the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise MapSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def match_keyword(self) -> type:
        self.skip_ws()
        for cls, kind in NODE_KINDS.items():
            if self.text.startswith(kind.keyword, self.pos):
                self.pos += len(kind.keyword)
                return cls
        raise MapSyntaxError("expected one of " + ", ".join(
            kind.keyword for kind in NODE_KINDS.values()), self.pos)

    def real(self) -> float:
        self.skip_ws()
        m = _REAL.match(self.text, self.pos)
        if m is None:
            raise MapSyntaxError("expected a decimal real", self.pos)
        value = float(m.group())
        if math.isinf(value):
            raise MapSyntaxError("decimal real overflows to infinity", self.pos)
        self.pos = m.end()
        return value

    def integer(self) -> int:
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if m is None:
            raise MapSyntaxError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def complex_lit(self) -> complex:
        re_part = self.real()
        save = self.pos
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            sign = -1.0 if self.text[self.pos] == "-" else 1.0
            self.pos += 1
            self.skip_ws()
            if self.text.startswith(("+", "-"), self.pos):
                raise MapSyntaxError("doubled sign before imaginary part",
                                     self.pos)
            im_part = self.real()
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "i":
                self.pos += 1
                return complex(re_part, sign * im_part)
            raise MapSyntaxError("expected 'i' after imaginary part", self.pos)
        self.pos = save
        return complex(re_part, 0.0)

    def expr(self) -> MapExpr:
        cls = self.match_keyword()
        self.expect("(")
        read = {"c": self.complex_lit, "i": self.integer, "m": self.expr}
        args = []
        for kind in NODE_KINDS[cls].args:
            if args:
                self.expect(",")
            args.append(read[kind]())
        self.expect(")")
        return cls(*args)

    def end(self, what: str) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise MapSyntaxError(f"trailing input after {what}", self.pos)


def parse_map(text: str) -> MapExpr:
    """Parse a map expression; the result is validated before return.

    Raises :class:`MapSyntaxError` (with byte offset) on bad syntax and
    :class:`expdyn.maps.InvalidMapError` on constraint violations.
    """
    sc = _Scanner(text)
    node = sc.expr()
    sc.end("expression")
    validate(node)
    return node


def parse_complex(text: str) -> complex:
    """Parse a standalone complex literal ("a", "a+bi", "a-bi")."""
    sc = _Scanner(text)
    value = sc.complex_lit()
    sc.end("complex literal")
    return value


def format_complex(z: complex) -> str:
    if math.copysign(1.0, z.imag) < 0.0:  # -0.0 too: orbits keep its sign
        return f"{z.real!r}-{-z.imag!r}i"
    return repr(z.real) if z.imag == 0.0 else f"{z.real!r}+{z.imag!r}i"


def format_map(expr: MapExpr) -> str:
    """Canonical text for an expression; parse_map(format_map(e)) == e."""
    write = {"c": format_complex, "i": str, "m": format_map}
    args = ", ".join(write[kind](value) for _, kind, value in node_fields(expr))
    return f"{NODE_KINDS[type(expr)].keyword}({args})"
