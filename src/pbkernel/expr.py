"""Parser for the text expression grammar of pseudo-Boolean polynomials.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := 'x' INDEX | '~x' INDEX | '(' expr ')'
    coeff  := rational like '3', '-1/2'

``~x3`` is the complemented literal and is replaced by 1 - x3 while
parsing, so complements are never stored.  Variable indices are 1-based
in the text (``x1`` is variable 0 of the resulting polynomial).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .pbf import PseudoBoolean

_OPS = set("+-*()/")


def _line_col(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x" or (ch == "~" and i + 1 < n and text[i + 1] == "x"):
            comp = ch == "~"
            j = i + (2 if comp else 1)
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise ParseError(f"expected a variable index after 'x' at {_line_col(text, i)}", i)
            idx = int(text[j:k])
            if idx <= 0:
                raise ParseError(f"variable index must be >= 1, got {idx} at {_line_col(text, i)}", i)
            tokens.append(("~var" if comp else "var", idx, i))
            i = k
            continue
        raise ParseError(f"unexpected character {ch!r} at {_line_col(text, i)}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, arity, text=""):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.text = text

    def where(self, pos):
        return _line_col(self.text, pos) if pos >= 0 else "end of input"

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r} at {self.where(tok[2])}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> PseudoBoolean:
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> PseudoBoolean:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        kind = self.peek()[0]
        if kind == "int":
            acc = PseudoBoolean.constant(self.arity, self.parse_rational())
        else:
            acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.parse_factor()
        return acc if sign > 0 else -acc

    def parse_rational(self) -> Fraction:
        num = self.take("int")[1]
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.take("int")
            if den_tok[1] == 0:
                raise ParseError(f"zero denominator at {self.where(den_tok[2])}", den_tok[2])
            return Fraction(num, den_tok[1])
        return Fraction(num)

    def parse_factor(self) -> PseudoBoolean:
        kind, value, pos = self.peek()
        if kind == "var":
            self.take()
            return PseudoBoolean.variable(self.arity, value - 1)
        if kind == "~var":
            self.take()
            return 1 - PseudoBoolean.variable(self.arity, value - 1)
        if kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(
            f"expected a variable, '(' or number, found {kind!r} at {self.where(pos)}", pos
        )


def parse(text: str, arity: int | None = None) -> PseudoBoolean:
    """Parse an expression into its canonical multilinear polynomial.

    The arity defaults to the largest variable index mentioned; pass
    ``arity`` to embed the result in a wider variable space.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    max_idx = max((v for k, v, _ in tokens if k in ("var", "~var")), default=0)
    if arity is None:
        arity = max_idx
    elif arity < max_idx:
        raise ParseError(f"expression uses x{max_idx} but arity {arity} was requested", 0)
    parser = _Parser(tokens, arity, text)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        tok = parser.peek()
        raise ParseError(
            f"trailing input starting with {tok[0]!r} at {parser.where(tok[2])}", tok[2]
        )
    return result
