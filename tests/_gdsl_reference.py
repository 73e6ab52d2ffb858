# The ``.gram`` reader as ``gramcalc.gdsl`` ran it before it read each line
# through one cursor, kept as a test reference: the module below is copied
# unchanged apart from its imports, which are absolute here.
# ``test_gdsl_differential`` compares the package's parser against it.  It is
# not imported by the package.
"""Parser and formatter for the plain-text grammar description language.

A grammar document is line oriented (UTF-8, ``.gram`` files by convention).
Blank lines and ``#`` comments are ignored.  The recognized line forms are::

    vars: x y z w          # substitution variables, in declaration order
    inert: t u             # optional; constants under the derivative
    rule x -> x*y          # exactly one rule per declared variable
    start: z               # optional start word (any polynomial)
    n: 8                   # optional default iteration count

Polynomials are sums of terms.  A term is an optional rational coefficient
(``7``, ``-2/3``) joined by ``*`` to factors ``name`` or ``name^exp`` where
the exponent is a possibly negative integer.  Multiplication is always
explicit and there are no parentheses, so ``-2/3*x^-1*y^2 + z`` parses while
``2x`` and ``(x+y)^2`` do not.  Every variable used in a rule image or in the
start word must be declared under ``vars:`` or ``inert:``.  A document declares,
and a polynomial uses, at most ``MAX_VARIABLES`` (64) variables: every term
stores one exponent per variable of its polynomial.

All rejections carry the line number and the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from gramcalc._names import MAX_VARIABLES
from gramcalc.grammar import Grammar
from gramcalc.laurent import LaurentPolynomial, monomial


class GrammarSyntaxError(ValueError):
    """A rejected grammar document, with the location of the problem."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GrammarSpec(NamedTuple):
    """A parsed grammar document."""

    declared_vars: tuple[str, ...]
    inert_vars: tuple[str, ...] = ()
    rules: tuple[tuple[str, LaurentPolynomial], ...] = ()
    start: LaurentPolynomial | None = None
    default_n: int | None = None

    def var_order(self) -> tuple[str, ...]:
        return self.declared_vars + self.inert_vars

    def to_grammar(self, name: str | None = None) -> Grammar:
        return Grammar(
            rules=dict(self.rules),
            inert=frozenset(self.inert_vars),
            name=name,
            var_order=self.var_order(),
        )


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<arrow>->)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<sym>[*/^+\-:])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "ident", "int", "arrow", or the symbol itself
    text: str
    line: int
    column: int


def _tokenize(line: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise GrammarSyntaxError(
                f"unexpected character {line[pos]!r}", line_no, pos + 1
            )
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            text = match.group()
            if kind == "sym":
                kind = text
            tokens.append(_Token(kind, text, line_no, match.start() + 1))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        token = self.peek()
        if token is not None:
            self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            raise self.fail(f"expected {kind!r}")
        self.pos += 1
        return token

    def fail(self, message: str) -> GrammarSyntaxError:
        token = self.peek()
        if token is None:
            column = self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
            return GrammarSyntaxError(message + " at end of line", self.line_no, column)
        return GrammarSyntaxError(f"{message}, found {token.text!r}", token.line, token.column)


def _parse_integer(stream: _TokenStream) -> int:
    negative = False
    token = stream.peek()
    if token is not None and token.kind == "-":
        stream.next()
        negative = True
    token = stream.expect("int")
    value = int(token.text)
    return -value if negative else value


def _parse_term(
    stream: _TokenStream, allowed: set[str] | None, seen: set[str]
) -> tuple[Fraction, dict[str, int]]:
    """One signless term: an optional coefficient and its variable factors.

    ``seen`` collects the variables of the polynomial so far.
    """
    coeff = Fraction(1)
    exponents: dict[str, int] = {}
    token = stream.peek()
    if token is not None and token.kind == "int":
        stream.next()
        numerator = int(token.text)
        denominator = 1
        if stream.peek() is not None and stream.peek().kind == "/":
            stream.next()
            denom_token = stream.expect("int")
            denominator = int(denom_token.text)
            if denominator == 0:
                raise GrammarSyntaxError(
                    "zero denominator in coefficient", denom_token.line, denom_token.column
                )
        coeff = Fraction(numerator, denominator)
        if stream.peek() is None or stream.peek().kind != "*":
            return coeff, exponents
        stream.next()
    while True:
        token = stream.expect("ident")
        if allowed is not None and token.text not in allowed:
            raise GrammarSyntaxError(
                f"undeclared variable '{token.text}'", token.line, token.column
            )
        seen.add(token.text)
        if len(seen) > MAX_VARIABLES:
            raise _too_many_variables(token)
        exp = 1
        if stream.peek() is not None and stream.peek().kind == "^":
            stream.next()
            exp = _parse_integer(stream)
        exponents[token.text] = exponents.get(token.text, 0) + exp
        if stream.peek() is not None and stream.peek().kind == "*":
            stream.next()
            continue
        return coeff, exponents


def _too_many_variables(token: _Token) -> GrammarSyntaxError:
    return GrammarSyntaxError(
        f"more than {MAX_VARIABLES} variables (gdsl.MAX_VARIABLES)", token.line, token.column
    )


def _parse_poly(stream: _TokenStream, allowed: set[str] | None) -> LaurentPolynomial:
    """A polynomial that runs to the end of the line."""
    if stream.peek() is None:
        raise stream.fail("expected a polynomial")
    terms = []
    seen: set[str] = set()
    sign = 1
    token = stream.peek()
    if token.kind in ("+", "-"):
        stream.next()
        sign = -1 if token.kind == "-" else 1
    while True:
        coeff, exponents = _parse_term(stream, allowed, seen)
        terms.append((monomial(exponents), sign * coeff))
        token = stream.peek()
        if token is None:
            return LaurentPolynomial(terms)
        if token.kind not in ("+", "-"):
            raise stream.fail("expected '+' or '-' between terms")
        stream.next()
        sign = -1 if token.kind == "-" else 1


def parse_poly(text: str, allowed: set[str] | None = None, line_no: int = 1) -> LaurentPolynomial:
    """Parse a standalone polynomial written in the DSL term syntax."""
    return _parse_poly(_TokenStream(_tokenize(text, line_no), line_no), allowed)


def parse_grammar(text: str) -> GrammarSpec:
    """Parse a grammar document, validating declarations and rule coverage."""
    declared: list[str] = []
    declared_lines: dict[str, int] = {}
    inert: list[str] = []
    rules: list[tuple[str, LaurentPolynomial]] = []
    rule_for: dict[str, int] = {}
    start: LaurentPolynomial | None = None
    default_n: int | None = None
    vars_line = 1

    def names(stream: _TokenStream, into: list[str]) -> None:
        while stream.peek() is not None:
            token = stream.expect("ident")
            if token.text in declared or token.text in inert:
                raise GrammarSyntaxError(
                    f"variable '{token.text}' declared twice", token.line, token.column
                )
            if len(declared) + len(inert) == MAX_VARIABLES:
                raise _too_many_variables(token)
            into.append(token.text)
            declared_lines[token.text] = token.line

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        stream = _TokenStream(tokens, line_no)
        head = stream.next()
        if head.kind == "ident" and head.text == "vars":
            stream.expect(":")
            vars_line = line_no
            names(stream, declared)
        elif head.kind == "ident" and head.text == "inert":
            stream.expect(":")
            names(stream, inert)
        elif head.kind == "ident" and head.text == "rule":
            lhs = stream.expect("ident")
            if lhs.text not in declared:
                raise GrammarSyntaxError(
                    f"undeclared variable '{lhs.text}'", lhs.line, lhs.column
                )
            if lhs.text in rule_for:
                raise GrammarSyntaxError(
                    f"duplicate rule for variable '{lhs.text}' "
                    f"(first given on line {rule_for[lhs.text]})",
                    lhs.line,
                    lhs.column,
                )
            stream.expect("arrow")
            image = _parse_poly(stream, set(declared) | set(inert))
            rule_for[lhs.text] = line_no
            rules.append((lhs.text, image))
        elif head.kind == "ident" and head.text == "start":
            stream.expect(":")
            if start is not None:
                raise GrammarSyntaxError("duplicate 'start:' line", head.line, head.column)
            start = _parse_poly(stream, set(declared) | set(inert))
        elif head.kind == "ident" and head.text == "n":
            stream.expect(":")
            if default_n is not None:
                raise GrammarSyntaxError("duplicate 'n:' line", head.line, head.column)
            token = stream.expect("int")
            default_n = int(token.text)
        else:
            raise GrammarSyntaxError(
                f"expected 'vars:', 'inert:', 'rule', 'start:' or 'n:', "
                f"found {head.text!r}",
                head.line,
                head.column,
            )
        trailing = stream.peek()
        if trailing is not None:
            raise GrammarSyntaxError(
                f"trailing input {trailing.text!r}", trailing.line, trailing.column
            )

    for name in declared:
        if name not in rule_for:
            raise GrammarSyntaxError(
                f"declared variable '{name}' has no rule "
                "(declare constants under 'inert:')",
                declared_lines.get(name, vars_line),
            )

    return GrammarSpec(
        declared_vars=tuple(declared),
        inert_vars=tuple(inert),
        rules=tuple(rules),
        start=start,
        default_n=default_n,
    )


def format_grammar(spec: GrammarSpec) -> str:
    """Canonical text for a spec; ``parse_grammar`` of the result is equal."""
    order = spec.var_order()
    lines = ["vars: " + " ".join(spec.declared_vars) if spec.declared_vars else "vars:"]
    if spec.inert_vars:
        lines.append("inert: " + " ".join(spec.inert_vars))
    for name, image in spec.rules:
        lines.append(f"rule {name} -> {image.format(order)}")
    if spec.start is not None:
        lines.append(f"start: {spec.start.format(order)}")
    if spec.default_n is not None:
        lines.append(f"n: {spec.default_n}")
    return "\n".join(lines) + "\n"
