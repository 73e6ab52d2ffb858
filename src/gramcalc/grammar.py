"""Substitution grammars and the formal derivative they define.

A grammar here is a finite map sending each variable to a Laurent polynomial
(its substitution image).  The derivative ``D`` is the unique linear operator
on Laurent polynomials that satisfies the product rule and agrees with the
grammar on variables.  Variables carried by the grammar's ``inert`` set, and
any variable with no rule at all, behave as constants (``D(v) = 0``).

This module holds the grammar's semantics: the rule record, the builtin
grammars, and the bounds on a request.  The product-rule step itself is ring
arithmetic: ``laurent.derivatives`` takes each step as one ``laurent.dot`` of
the images ``D(v) / v`` with the copies of the last derivative weighted by
``v d/dv``.  ``derive``, ``derive_n`` and every other caller take their steps
from ``iter_derive``, which refuses a request past ``MAX_N`` orders or
``MAX_DERIVE_WORK``.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, NamedTuple

from ._names import BUILTIN_GRAMMAR_NAMES, MAX_DERIVE_WORK, MAX_N
from .laurent import LaurentPolynomial, check_variable_name, derivatives, dot


class _GrammarFields(NamedTuple):
    rules: Mapping[str, LaurentPolynomial]
    inert: frozenset[str]
    name: str | None
    var_order: tuple[str, ...] | None


class Grammar(_GrammarFields):
    """An immutable set of substitution rules, plus declared constants.

    ``var_order`` is an optional display hint (typically the declaration
    order); it never affects the derivative.
    """

    __slots__ = ()
    __hash__ = None  # the rules are a dict of unhashable polynomials

    def __new__(
        cls,
        rules: Mapping[str, LaurentPolynomial],
        inert: frozenset[str] = frozenset(),
        name: str | None = None,
        var_order: tuple[str, ...] | None = None,
    ):
        for var in rules:
            check_variable_name(var)
        overlap = inert & set(rules)
        if overlap:
            raise ValueError(f"variables {sorted(overlap)} are both ruled and inert")
        known = set(rules) | inert
        for var, image in rules.items():
            stray = image.variables() - known
            if stray:
                raise ValueError(
                    f"rule for '{var}' uses undeclared variable "
                    f"'{sorted(stray)[0]}' (add a rule or declare it inert)"
                )
        return super().__new__(cls, rules, inert, name, var_order)

    def display_order(self) -> tuple[str, ...]:
        if self.var_order is not None:
            return self.var_order
        return tuple(sorted(set(self.rules) | self.inert))

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "rules": {
                name: self.rules[name].to_json_obj() for name in sorted(self.rules)
            },
            "inert": sorted(self.inert),
        }


class DerivativeSequence(NamedTuple):
    """``items[k]`` is the k-th derivative of ``start`` under ``grammar``."""

    start: LaurentPolynomial
    items: tuple[LaurentPolynomial, ...]
    grammar: Grammar

    def order(self) -> int:
        return len(self.items) - 1


def iter_derive(p: LaurentPolynomial, g: Grammar, n: int = MAX_N) -> Iterator[LaurentPolynomial]:
    """Yield ``D^0(p) .. D^n(p)``, n <= MAX_N, each step taken when it is read.

    A step is refused before it runs if its work, added to that of the steps
    before it, passes ``MAX_DERIVE_WORK`` (see ``_names``).
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"derivative order {n} exceeds the limit {MAX_N}")
    width = len(p.variables().union(*(image.variables() for image in g.rules.values())))
    steps = derivatives(p, g.rules)
    last = next(steps)
    yield last
    work = 0
    for order in range(1, n + 1):
        products = len(last) * sum(len(g.rules.get(v, ())) for v in last.variables())
        work += products * (width + 8)
        if work > MAX_DERIVE_WORK:
            raise ValueError(
                f"derivative order {order} needs up to {work} units of work, "
                f"over the limit {MAX_DERIVE_WORK} (grammar.MAX_DERIVE_WORK)"
            )
        last = next(steps)
        yield last


def derive(p: LaurentPolynomial, g: Grammar) -> LaurentPolynomial:
    """Apply the formal derivative once, returning a canonical polynomial."""
    _, first = iter_derive(p, g, 1)
    return first


def derive_n(p: LaurentPolynomial, g: Grammar, n: int) -> DerivativeSequence:
    """Compute ``D^0(p) .. D^n(p)`` by iterated single derivatives, n <= MAX_N."""
    return DerivativeSequence(start=p, items=tuple(iter_derive(p, g, n)), grammar=g)


def leibniz_check(
    u: LaurentPolynomial,
    v: LaurentPolynomial,
    g: Grammar,
    n: int,
) -> bool:
    """True iff D^n(uv) equals the binomial convolution of the factor derivatives."""
    direct = derive_n(u * v, g, n).items[n]
    du = derive_n(u, g, n).items
    dv = derive_n(v, g, n).items
    expanded = dot([math.comb(n, k) * du[k] for k in range(n + 1)], dv[::-1])
    return direct == expanded


def _make_builtin(name: str, rule_exps: dict[str, dict[str, int]]) -> Grammar:
    """A builtin whose variables display in the order its rules are given."""
    rules = {
        var: LaurentPolynomial.term(1, exps) for var, exps in rule_exps.items()
    }
    return Grammar(rules=rules, name=name, var_order=tuple(rule_exps))


_BUILTINS: dict[str, Grammar] = {
    # The four-variable grammar whose iterated derivatives of z and y carry
    # the joint distributions of (exterior peaks, proper double descents) and
    # (peaks, double descents) over permutations.
    "paper_G": _make_builtin(
        "paper_G",
        {
            "x": {"x": 1, "y": 1},
            "y": {"x": 1, "z": 1},
            "z": {"z": 1, "w": 1},
            "w": {"x": 1, "z": 1},
        },
    ),
    # Generates the Eulerian polynomials.
    "eulerian": _make_builtin(
        "eulerian",
        {"x": {"x": 1, "y": 1}, "y": {"x": 1, "y": 1}},
    ),
    # Generates the Andre polynomials.
    "andre": _make_builtin(
        "andre",
        {"x": {"x": 1, "y": 1}, "y": {"x": 1}},
    ),
    # Generates the Ramanujan polynomials.
    "ramanujan": _make_builtin(
        "ramanujan",
        {"x": {"x": 3, "y": 1}, "y": {"x": 1, "y": 2}},
    ),
    # Two-variable grammar counting exterior peaks alone.
    "exterior_peak": _make_builtin(
        "exterior_peak",
        {"x": {"x": 1, "y": 1}, "y": {"x": 2}},
    ),
}


def builtin_grammar(name: str) -> Grammar:
    """Look up one of the built-in grammars by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(BUILTIN_GRAMMAR_NAMES)
        raise ValueError(f"unknown grammar '{name}' (choose from: {known})") from None
