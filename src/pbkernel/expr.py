"""Parser for the text expression grammar of pseudo-Boolean polynomials.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := 'x' INDEX | '~x' INDEX | '(' expr ')'
    coeff  := rational like '3', '-1/2'

``~x3`` is the complemented literal and is replaced by 1 - x3 while
parsing, so complements are never stored.  Variable indices are 1-based
in the text (``x1`` is variable 0 of the resulting polynomial).

The parse is one pass.  The terms of a sum go into one term table, not a
new polynomial per ``+``.  A run of plain-variable factors (``x2*x5`` in
``3*x2*x5*(x1+x4)``) becomes one monomial, multiplied in with one
``PseudoBoolean.__mul__``.  Every product is checked against
:data:`PRODUCT_CAP` before it is formed; a run is checked at its first
``*``, since multiplying by a monomial never adds terms.

The line-oriented input files (state, strings, circuit and Pauli-sum text)
share two readers here: :func:`records`, the one line rule, and
:func:`rational`, the one guarded reader of an exact number field.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError
from .pbf import PseudoBoolean, _accumulate

_OPS = set("+-*()/")
#: term products one multiplication may form (len(acc) * len(factor))
PRODUCT_CAP = 1 << 16


def _line_col(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


def _digit_run(text: str, i: int) -> int:
    """End of the run of decimal digits starting at ``i``.  The run may be no
    longer than the interpreter lets ``int()`` read from a string."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit and j - i > limit:
        raise ParseError(f"number of {j - i} digits over {limit} at {_line_col(text, i)}", i)
    return j


def records(text: str):
    """(line number, fields) of each line that is neither blank nor a ``#``
    comment; lines count from 1 and fields are split on whitespace."""
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def rational(token: str, lineno: int, where: str = "line") -> Fraction:
    """One exact number field of a line-oriented file.  A decimal exponent may
    expand to no more digits than the interpreter lets ``int()`` read from a
    string, so a short token such as ``1e10000000`` cannot stall the reader;
    every refusal is a ParseError that names ``where`` and the line."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    _, sep, exponent = token.lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    over = digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit)
    if sep and limit and over:
        raise ParseError(f"{where} {lineno}: decimal exponent over {limit} digits")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"{where} {lineno}: zero denominator") from None
    except ValueError:
        raise ParseError(f"{where} {lineno}: bad number {token!r}") from None


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
        if ch.isdecimal():
            j = _digit_run(text, i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x" or (ch == "~" and i + 1 < n and text[i + 1] == "x"):
            comp = ch == "~"
            j = i + (2 if comp else 1)
            k = _digit_run(text, j)
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

    def check_product(self, pos, count):
        if count > PRODUCT_CAP:
            raise ParseError(
                f"product at {self.where(pos)} needs {count} term products, over cap {PRODUCT_CAP}",
                pos,
            )

    def parse_expr(self) -> PseudoBoolean:
        # one table for the whole sum, updated as adding the terms one by one would
        table = {}
        while True:
            negate, term = self.parse_term()
            pairs = term._terms.items()
            _accumulate(table, ((m, -c) for m, c in pairs) if negate else pairs)
            if self.peek()[0] not in ("+", "-"):
                break
        return PseudoBoolean._of(self.arity, table)

    def parse_term(self) -> tuple:
        """(negate, product) for one term and the signs before it."""
        negate = False
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                negate = not negate
        if self.peek()[0] == "int":
            acc = PseudoBoolean.constant(self.arity, self.parse_rational())
        else:
            acc = self.parse_factor()
        run = 0  # plain-variable factors not yet multiplied in, as one monomial
        while self.peek()[0] == "*":
            pos = self.take()[2]
            kind, value, _ = self.peek()
            if kind == "var":
                # a monomial never adds terms, so the run's first product bounds the rest
                if not run:
                    self.check_product(pos, len(acc._terms))
                self.take()
                run |= 1 << (value - 1)
                continue
            factor = self.parse_factor()
            if run:
                acc, run = acc * PseudoBoolean(self.arity, {run: 1}), 0
            self.check_product(pos, len(acc._terms) * len(factor._terms))
            acc = acc * factor
        if run:
            acc = acc * PseudoBoolean(self.arity, {run: 1})
        return negate, acc

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
