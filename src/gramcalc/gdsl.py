"""Parser for the plain-text grammar description language.

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
``MAX_LITERAL_DIGITS`` (4300) digits.  Every term stores its numerator over
the common denominator of its polynomial's coefficients, so the 64-bit words
of that denominator, counted once per term and summed over the polynomials
of a document, are at most ``MAX_DENOMINATOR_WORDS``: each denominator grows
term by term, and the term that passes the limit is refused.

``parse_grammar`` returns the ``grammar.Grammar`` the document declares,
the same record a builtin grammar is, with the declaration order as its
``var_order`` and the ``start:`` word and ``n:`` count as its ``start`` and
``default_n``.  All rejections carry the line number and the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from ._names import MAX_DENOMINATOR_WORDS, MAX_LITERAL_DIGITS, MAX_VARIABLES
from .grammar import Grammar
from .laurent import LaurentPolynomial


class GrammarSyntaxError(ValueError):
    """A rejected grammar document, with the location of the problem."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# One match per token, with the space and comments before it.  Every other
# character starts a match: the first one that starts no token is ``bad``, and
# its match takes the rest of the text, so no later token is read.  The space
# at the end matches ``$``, so no search starts inside it.
_TOKEN_RE = re.compile(
    r"""(?:\s|\#.*)*(?:
        (?P<arrow>->)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<sym>[*/^+\-:])
      | (?P<bad>\S(?s:.*))
      | $)
    """,
    re.VERBOSE,
)

_KEYWORDS = ("vars", "inert", "rule", "start", "n")

_TOO_MANY_VARIABLES = f"more than {MAX_VARIABLES} variables (gdsl.MAX_VARIABLES)"

#: A token: its kind ("ident", "int", "arrow", "end" or the symbol itself), its
#: text and its column: a plain tuple, as a 1 MiB line holds 800 000 tokens.
_Token = tuple[str, str, int]


class _Line:
    """A cursor over the tokens of one line, which end in an ``("end", "", column)``
    token at the column just after the last one (1 on an empty line)."""

    def __init__(self, text: str, line_no: int):
        self.line_no = line_no
        self.pos = 0
        self.tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:  # the space at the end
                continue
            token, column = m[kind], m.start(kind) + 1
            if kind == "bad":
                raise self.fail(f"unexpected character {token[0]!r}", column)
            self.tokens.append((token if kind == "sym" else kind, token, column))
        _, text, column = self.tokens[-1] if self.tokens else ("", "", 1)
        self.tokens.append(("end", "", column + len(text)))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, kind: str) -> _Token | None:
        """Consume and return the next token if it is of ``kind``."""
        token = self.tokens[self.pos]
        next_kind, _, _ = token
        if next_kind == kind:
            self.pos += 1
            return token
        return None

    def expect(self, kind: str) -> _Token:
        token = self.accept(kind)
        if token is None:
            raise self.fail(f"expected {kind!r}")
        return token

    def integer(self, token: _Token) -> int:
        """The value of an ``int`` token, refused past ``MAX_LITERAL_DIGITS``."""
        _, text, column = token
        if len(text) > MAX_LITERAL_DIGITS:
            raise self.fail(
                f"more than {MAX_LITERAL_DIGITS} digits (gdsl.MAX_LITERAL_DIGITS)", column
            )
        return int(text)

    def fail(self, message: str, column: int | None = None) -> GrammarSyntaxError:
        """The rejection at ``column``, or else at the next token, which it names."""
        if column is None:
            kind, text, column = self.peek()
            message += " at end of line" if kind == "end" else f", found {text!r}"
        return GrammarSyntaxError(message, self.line_no, column)


def _parse_term(
    line: _Line, allowed: set[str] | None, seen: set[str]
) -> tuple[Fraction, list[tuple[str, int]]]:
    """One signless term: an optional coefficient and its (variable, exponent) factors.

    ``seen`` collects the variables of the polynomial so far.
    """
    factors: list[tuple[str, int]] = []
    token = line.accept("int")
    if token is None:
        coeff = Fraction(1)
    else:
        numerator, denominator = line.integer(token), 1
        if line.accept("/"):
            token = line.expect("int")
            denominator = line.integer(token)
            if not denominator:
                _, _, column = token
                raise line.fail("zero denominator in coefficient", column)
        coeff = Fraction(numerator, denominator)
        if not line.accept("*"):
            return coeff, factors
    while True:
        _, name, column = line.expect("ident")
        if allowed is not None and name not in allowed:
            raise line.fail(f"undeclared variable '{name}'", column)
        seen.add(name)
        if len(seen) > MAX_VARIABLES:
            raise line.fail(_TOO_MANY_VARIABLES, column)
        exp = 1
        if line.accept("^"):
            negative = line.accept("-")
            exp = line.integer(line.expect("int"))
            if negative:
                exp = -exp
        factors.append((name, exp))
        if not line.accept("*"):
            return coeff, factors


def _parse_poly(
    line: _Line, allowed: set[str] | None, spent: int = 0
) -> tuple[LaurentPolynomial, int]:
    """A polynomial that runs to the end of the line, and ``spent`` plus the
    words of its common denominator once per term (see ``MAX_DENOMINATOR_WORDS``)."""
    if line.peek()[0] == "end":
        raise line.fail("expected a polynomial")
    terms = []
    seen: set[str] = set()
    den = 1  # the common denominator of the terms so far
    negative = line.accept("+") is None and line.accept("-") is not None
    while True:
        head = line.peek()
        coeff, factors = _parse_term(line, allowed, seen)
        den *= coeff.denominator // gcd(den, coeff.denominator)
        words = spent + (len(terms) + 1) * (den.bit_length() // 64)
        if words > MAX_DENOMINATOR_WORDS:
            _, _, column = head
            raise line.fail(
                f"common denominators of more than {MAX_DENOMINATOR_WORDS} words, "
                "counted once per term (gdsl.MAX_DENOMINATOR_WORDS)", column
            )
        terms.append((factors, -coeff if negative else coeff))
        if line.peek()[0] == "end":
            return LaurentPolynomial(terms), words
        negative = line.accept("-") is not None
        if not negative and line.accept("+") is None:
            raise line.fail("expected '+' or '-' between terms")


def parse_poly(text: str, allowed: set[str] | None = None) -> LaurentPolynomial:
    """Parse a standalone polynomial written in the DSL term syntax; errors name line 1."""
    return _parse_poly(_Line(text, 1), allowed)[0]


def parse_grammar(text: str) -> Grammar:
    """The unnamed ``Grammar`` a document declares, validating declarations
    and rule coverage."""
    declared: dict[str, int] = {}  # each variable and the line declaring it
    inert: dict[str, int] = {}
    rules: dict[str, LaurentPolynomial] = {}
    rule_for: dict[str, int] = {}
    once: dict[str, object] = {}  # the 'start:' word and the 'n:' count
    words = 0  # the denominator words of the polynomials so far
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, line_no)
        kind, keyword, column = line.peek()
        if kind == "end":
            continue
        if kind != "ident" or keyword not in _KEYWORDS:
            raise line.fail("expected 'vars:', 'inert:', 'rule', 'start:' or 'n:'")
        line.expect("ident")
        if keyword != "rule":
            line.expect(":")
        if keyword in once:
            raise line.fail(f"duplicate '{keyword}:' line", column)
        if keyword in ("vars", "inert"):
            while line.peek()[0] != "end":
                _, name, column = line.expect("ident")
                if name in declared or name in inert:
                    raise line.fail(f"variable '{name}' declared twice", column)
                if len(declared) + len(inert) == MAX_VARIABLES:
                    raise line.fail(_TOO_MANY_VARIABLES, column)
                (declared if keyword == "vars" else inert)[name] = line_no
        elif keyword == "rule":
            _, name, column = line.expect("ident")
            if name not in declared:
                raise line.fail(f"undeclared variable '{name}'", column)
            if name in rule_for:
                raise line.fail(
                    f"duplicate rule for variable '{name}' "
                    f"(first given on line {rule_for[name]})",
                    column,
                )
            line.expect("arrow")
            rules[name], words = _parse_poly(line, declared.keys() | inert.keys(), words)
            rule_for[name] = line_no
        elif keyword == "start":
            once[keyword], words = _parse_poly(line, declared.keys() | inert.keys(), words)
        else:
            once[keyword] = line.integer(line.expect("int"))
        kind, trailing, column = line.peek()
        if kind != "end":
            raise line.fail(f"trailing input {trailing!r}", column)

    for name, line_no in declared.items():
        if name not in rule_for:
            raise GrammarSyntaxError(
                f"declared variable '{name}' has no rule "
                "(declare constants under 'inert:')",
                line_no,
            )

    return Grammar(
        rules,
        frozenset(inert),
        var_order=(*declared, *inert),
        start=once.get("start"),
        default_n=once.get("n"),
    )
