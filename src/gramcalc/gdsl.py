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
stores one exponent per variable of its polynomial.  An integer literal (a
coefficient's numerator or denominator, an exponent, ``n:``) has at most
``MAX_LITERAL_DIGITS`` (4300) digits.

All rejections carry the line number and the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from ._names import MAX_LITERAL_DIGITS, MAX_VARIABLES
from .grammar import Grammar
from .laurent import LaurentPolynomial


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

_KEYWORDS = ("vars", "inert", "rule", "start", "n")

_TOO_MANY_VARIABLES = f"more than {MAX_VARIABLES} variables (gdsl.MAX_VARIABLES)"


class _Token(NamedTuple):
    kind: str  # "ident", "int", "arrow", or the symbol itself
    text: str
    column: int


class _Line:
    """A cursor over the tokens of one line."""

    def __init__(self, text: str, line_no: int):
        self.line_no = line_no
        self.tokens: list[_Token] = []
        self.pos = 0
        column = 0
        while column < len(text):
            match = _TOKEN_RE.match(text, column)
            if match is None:
                raise self.fail(f"unexpected character {text[column]!r}", column + 1)
            kind = match.lastgroup
            if kind not in ("ws", "comment"):
                token = match.group()
                self.tokens.append(_Token(token if kind == "sym" else kind, token, column + 1))
            column = match.end()

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, kind: str) -> _Token | None:
        """Consume and return the next token if it is of ``kind``."""
        token = self.peek()
        if token is None or token.kind != kind:
            return None
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.accept(kind)
        if token is None:
            raise self.fail(f"expected {kind!r}")
        return token

    def integer(self, token: _Token) -> int:
        """The value of an ``int`` token, refused past ``MAX_LITERAL_DIGITS``."""
        if len(token.text) > MAX_LITERAL_DIGITS:
            raise self.fail(
                f"more than {MAX_LITERAL_DIGITS} digits (gdsl.MAX_LITERAL_DIGITS)", token.column
            )
        return int(token.text)

    def fail(self, message: str, column: int | None = None) -> GrammarSyntaxError:
        """The rejection at ``column``, or else at the next token, which it names."""
        if column is None:
            token = self.peek()
            if token is not None:
                message, column = f"{message}, found {token.text!r}", token.column
            else:
                last = self.tokens[-1] if self.tokens else _Token("", "", 1)
                message, column = message + " at end of line", last.column + len(last.text)
        return GrammarSyntaxError(message, self.line_no, column)


def _parse_term(
    line: _Line, allowed: set[str] | None, seen: set[str]
) -> tuple[Fraction, list[tuple[str, int]]]:
    """One signless term: an optional coefficient and its (variable, exponent) factors.

    ``seen`` collects the variables of the polynomial so far.
    """
    coeff = Fraction(1)
    factors: list[tuple[str, int]] = []
    numerator = line.accept("int")
    if numerator is not None:
        coeff = Fraction(line.integer(numerator))
        if line.accept("/"):
            token = line.expect("int")
            denominator = line.integer(token)
            if not denominator:
                raise line.fail("zero denominator in coefficient", token.column)
            coeff /= denominator
        if not line.accept("*"):
            return coeff, factors
    while True:
        token = line.expect("ident")
        if allowed is not None and token.text not in allowed:
            raise line.fail(f"undeclared variable '{token.text}'", token.column)
        seen.add(token.text)
        if len(seen) > MAX_VARIABLES:
            raise line.fail(_TOO_MANY_VARIABLES, token.column)
        exp = 1
        if line.accept("^"):
            negative = line.accept("-")
            exp = line.integer(line.expect("int"))
            if negative:
                exp = -exp
        factors.append((token.text, exp))
        if not line.accept("*"):
            return coeff, factors


def _parse_poly(line: _Line, allowed: set[str] | None) -> LaurentPolynomial:
    """A polynomial that runs to the end of the line."""
    if line.peek() is None:
        raise line.fail("expected a polynomial")
    terms = []
    seen: set[str] = set()
    sign = line.accept("+") or line.accept("-")
    while True:
        coeff, factors = _parse_term(line, allowed, seen)
        terms.append((factors, -coeff if sign and sign.kind == "-" else coeff))
        if line.peek() is None:
            return LaurentPolynomial(terms)
        sign = line.accept("+") or line.accept("-")
        if sign is None:
            raise line.fail("expected '+' or '-' between terms")


def parse_poly(text: str, allowed: set[str] | None = None) -> LaurentPolynomial:
    """Parse a standalone polynomial written in the DSL term syntax; errors name line 1."""
    return _parse_poly(_Line(text, 1), allowed)


def parse_grammar(text: str) -> GrammarSpec:
    """Parse a grammar document, validating declarations and rule coverage."""
    declared: dict[str, int] = {}  # each variable and the line declaring it
    inert: dict[str, int] = {}
    rules: list[tuple[str, LaurentPolynomial]] = []
    rule_for: dict[str, int] = {}
    once: dict[str, object] = {}  # the 'start:' word and the 'n:' count
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, line_no)
        head = line.peek()
        if head is None:
            continue
        if head.kind != "ident" or head.text not in _KEYWORDS:
            raise line.fail("expected 'vars:', 'inert:', 'rule', 'start:' or 'n:'")
        keyword = line.expect("ident").text
        if keyword != "rule":
            line.expect(":")
        if keyword in once:
            raise line.fail(f"duplicate '{keyword}:' line", head.column)
        if keyword in ("vars", "inert"):
            while line.peek() is not None:
                token = line.expect("ident")
                if token.text in declared or token.text in inert:
                    raise line.fail(f"variable '{token.text}' declared twice", token.column)
                if len(declared) + len(inert) == MAX_VARIABLES:
                    raise line.fail(_TOO_MANY_VARIABLES, token.column)
                (declared if keyword == "vars" else inert)[token.text] = line_no
        elif keyword == "rule":
            lhs = line.expect("ident")
            if lhs.text not in declared:
                raise line.fail(f"undeclared variable '{lhs.text}'", lhs.column)
            if lhs.text in rule_for:
                raise line.fail(
                    f"duplicate rule for variable '{lhs.text}' "
                    f"(first given on line {rule_for[lhs.text]})",
                    lhs.column,
                )
            line.expect("arrow")
            rules.append((lhs.text, _parse_poly(line, declared.keys() | inert.keys())))
            rule_for[lhs.text] = line_no
        elif keyword == "start":
            once[keyword] = _parse_poly(line, declared.keys() | inert.keys())
        else:
            once[keyword] = line.integer(line.expect("int"))
        trailing = line.peek()
        if trailing is not None:
            raise line.fail(f"trailing input {trailing.text!r}", trailing.column)

    for name, line_no in declared.items():
        if name not in rule_for:
            raise GrammarSyntaxError(
                f"declared variable '{name}' has no rule "
                "(declare constants under 'inert:')",
                line_no,
            )

    return GrammarSpec(
        declared_vars=tuple(declared),
        inert_vars=tuple(inert),
        rules=tuple(rules),
        start=once.get("start"),
        default_n=once.get("n"),
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
