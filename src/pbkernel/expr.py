"""Parser for the text expression grammar of pseudo-Boolean polynomials.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := 'x' INDEX | '~x' INDEX | '(' expr ')'
    coeff  := rational like '3', '-1/2'

``~x3`` is the complemented literal and is replaced by 1 - x3 while
parsing, so complements are never stored.  Variable indices are 1-based
in the text (``x1`` is variable 0 of the resulting polynomial).

The parse is one pass.  The terms of a sum are added at once, over the LCM
of their denominators, not as a new polynomial per ``+``.  A leading
number takes its term's signs, and a run of plain-variable factors
(``x2*x5`` in ``3*x2*x5*(x1+x4)``) becomes one monomial multiplied in with
one ``PseudoBoolean.__mul__``.  Every product is checked against
:data:`PRODUCT_CAP` before it is formed (a run at its first ``*``: a
monomial never adds terms), and the arity once, where the first
polynomial is built; every table after it trusts that arity.

The line-oriented input files (state, strings, circuit and Pauli-sum text)
share two readers here: :func:`records`, the one line rule, and
:func:`rational`, the one guarded reader of an exact number field.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError
from .pbf import PseudoBoolean, _check_arity

_OPS = set("+-*()/")
_DIGITS = re.compile(r"\d*").match  # \d is str.isdecimal: Unicode category Nd
_END = (None, None, -1)  # ends the parser's token list: one or two past an operator is a token
#: term products one multiplication may form (len(acc) * len(factor))
PRODUCT_CAP = 1 << 16


def _line_col(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # digits int() may read
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, None, i))
            i += 1
            continue
        comp = ch == "~" and text.startswith("x", i + 1)
        if ch == "x" or comp:
            j = i + 1 + comp
        elif ch.isdecimal():
            j = i
        else:
            raise ParseError(f"unexpected character {ch!r} at {_line_col(text, i)}", i)
        k = _DIGITS(text, j).end()
        if limit and k - j > limit:
            raise ParseError(f"number of {k - j} digits over {limit} at {_line_col(text, j)}", j)
        if j == i:
            tokens.append(("int", int(text[i:k]), i))
        elif k == j:
            raise ParseError(f"expected a variable index after 'x' at {_line_col(text, i)}", i)
        else:
            idx = int(text[j:k])
            if idx <= 0:
                raise ParseError(f"variable index must be >= 1, got {idx} at {_line_col(text, i)}", i)
            tokens.append(("~var" if comp else "var", idx, i))
        i = k
    return tokens


class _Parser:
    def __init__(self, tokens, arity, text=""):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.text = text
        self.of = self._first_of  # the first table checks the arity; every later one trusts it

    def _first_of(self, arity, table, den=1):
        self.arity = _check_arity(arity)
        self.of = PseudoBoolean._of
        return self.of(self.arity, table, den)

    def where(self, pos):
        return _line_col(self.text, pos) if pos >= 0 else "end of input"

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
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
        terms = [self.parse_term()]  # summed at once: the table adding them one by one gives
        while self.tokens[self.pos][0] in ("+", "-"):
            terms.append(self.parse_term())
        return PseudoBoolean._sum(self.arity, terms)

    def parse_term(self) -> PseudoBoolean:
        """One term times the signs before it; a leading number takes them."""
        tokens, pos = self.tokens, self.pos
        negate = False
        while tokens[pos][0] in ("+", "-"):
            negate ^= tokens[pos][0] == "-"
            pos += 1
        if tokens[pos][0] == "int":
            num = -tokens[pos][1] if negate else tokens[pos][1]
            negate = False
            if tokens[pos + 1][0] == "/":
                self.pos = pos + 2
                den, at = self.expect("int")[1:]
                if den == 0:
                    raise ParseError(f"zero denominator at {self.where(at)}", at)
                pos += 3
            else:
                den, pos = 1, pos + 1
            acc = self.of(self.arity, {0: num} if num else {}, den)
        else:
            self.pos = pos
            acc = self.parse_factor()
            pos = self.pos
        run = 0  # plain-variable factors not yet multiplied in, as one monomial
        while tokens[pos][0] == "*":
            star = tokens[pos][2]
            kind, value, _ = tokens[pos + 1]
            if kind == "var":
                # a monomial never adds terms, so the run's first product bounds the rest
                if not run:
                    self.check_product(star, len(acc._terms))
                run |= 1 << (value - 1)
                pos += 2
                continue
            self.pos = pos + 1
            factor = self.parse_factor()
            pos = self.pos
            if run:
                acc, run = acc * self.of(self.arity, {run: 1}), 0
            self.check_product(star, len(acc._terms) * len(factor._terms))
            acc = acc * factor
        self.pos = pos
        if run:
            acc = acc * self.of(self.arity, {run: 1})
        return -acc if negate else acc

    def parse_factor(self) -> PseudoBoolean:
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "var" or kind == "~var":
            x = self.of(self.arity, {1 << (value - 1): 1})
            return x if kind == "var" else 1 - x
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
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
    elif max_idx and arity < max_idx:  # a constant text leaves a bad arity to its first table
        raise ParseError(f"expression uses x{max_idx} but arity {arity} was requested", 0)
    parser = _Parser(tokens + [_END], arity, text)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        tok = parser.tokens[parser.pos]
        raise ParseError(
            f"trailing input starting with {tok[0]!r} at {parser.where(tok[2])}", tok[2]
        )
    return result
