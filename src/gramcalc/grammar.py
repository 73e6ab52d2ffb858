"""Substitution grammars and the formal derivative they define.

A grammar here is a finite map sending each variable to a Laurent polynomial
(its substitution image).  The derivative ``D`` is the unique linear operator
on Laurent polynomials that satisfies the product rule and agrees with the
grammar on variables.  Variables carried by the grammar's ``inert`` set, and
any variable with no rule at all, behave as constants (``D(v) = 0``).

This module holds the grammar's semantics: the one grammar record, which a
builtin and a parsed ``.gram`` document both are, the builtin grammars, and
the order bound ``MAX_N``.  The product-rule step itself is ring arithmetic:
``laurent.derivatives`` builds the images ``D(v) / v`` once, takes each step
as one loop that sums every term's products with the images of its ruled
variables, weighted by ``v d/dv``, into one dict, and charges the step
against ``MAX_DERIVE_WORK`` before it runs.  Every caller takes its steps
from ``iter_derive``, which refuses an order past ``MAX_N``.
"""

from __future__ import annotations

from itertools import islice
from operator import index
from typing import Iterable, Iterator, Mapping, NamedTuple

# MAX_DERIVE_WORK is re-exported: it is the public name of the bound that
# ``laurent.derivatives`` keeps.
from ._names import BUILTIN_GRAMMAR_NAMES, MAX_DERIVE_WORK, MAX_N
from .laurent import LaurentPolynomial, check_variable_name, derivatives


class _GrammarFields(NamedTuple):
    rules: tuple[tuple[str, LaurentPolynomial], ...]
    inert: frozenset[str]
    name: str | None
    var_order: tuple[str, ...]
    start: LaurentPolynomial | None = None
    default_n: int | None = None


class Grammar(_GrammarFields):
    """An immutable set of substitution rules, plus declared constants.

    ``rules`` are ``(name, image)`` pairs in the order given (a mapping or
    pairs).  ``var_order`` is the display order (a document's declaration
    order, else the sorted names); neither order affects the derivative.
    ``start`` and ``default_n`` are a document's ``start:`` and ``n:`` lines.
    """

    __slots__ = ()
    __hash__ = None  # polynomials are unhashable

    def __new__(
        cls,
        rules: Mapping[str, LaurentPolynomial] | Iterable[tuple[str, LaurentPolynomial]],
        inert: frozenset[str] = frozenset(),
        name: str | None = None,
        var_order: tuple[str, ...] | None = None,
        start: LaurentPolynomial | None = None,
        default_n: int | None = None,
    ):
        if isinstance(inert, str):
            raise TypeError(f"inert must be a collection of names, not the str {inert!r}")
        rules = dict(rules)
        for var in (*rules, *inert):
            check_variable_name(var)
        inert = frozenset(inert)
        overlap = inert & rules.keys()
        if overlap:
            raise ValueError(f"variables {sorted(overlap)} are both ruled and inert")
        known = rules.keys() | inert
        for var, image in rules.items():
            stray = image.variables() - known
            if stray:
                raise ValueError(
                    f"rule for '{var}' uses undeclared variable "
                    f"'{sorted(stray)[0]}' (add a rule or declare it inert)"
                )
        if var_order is None:
            var_order = tuple(sorted(known))
        return super().__new__(cls, tuple(rules.items()), inert, name, var_order, start, default_n)


class DerivativeSequence(NamedTuple):
    """``items[k]`` is the k-th derivative of ``start`` under ``grammar``."""

    start: LaurentPolynomial
    items: tuple[LaurentPolynomial, ...]
    grammar: Grammar


def iter_derive(p: LaurentPolynomial, g: Grammar, n: int = MAX_N) -> Iterator[LaurentPolynomial]:
    """Yield ``D^0(p) .. D^n(p)``, n <= MAX_N, each step taken when it is read.

    ``laurent.derivatives`` takes the steps and refuses one before it runs if
    the work of the steps so far passes ``MAX_DERIVE_WORK``; step n + 1 is
    never asked for, so it is never charged.
    """
    n = index(n)
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"derivative order {n} exceeds the limit {MAX_N}")
    yield from islice(derivatives(p, dict(g.rules)), n + 1)


def derive(p: LaurentPolynomial, g: Grammar) -> LaurentPolynomial:
    """D(p), canonical; kept only because ``perfbench`` traces it."""
    _, first = iter_derive(p, g, 1)
    return first


def derive_n(p: LaurentPolynomial, g: Grammar, n: int) -> DerivativeSequence:
    """``D^0(p) .. D^n(p)``, n <= MAX_N; it and ``DerivativeSequence`` are
    kept only because ``perfbench`` reads them."""
    return DerivativeSequence(start=p, items=tuple(iter_derive(p, g, n)), grammar=g)


def _make_builtin(name: str, rule_exps: dict[str, dict[str, int]]) -> Grammar:
    """A builtin whose variables display in the order its rules are given."""
    rules = {
        var: LaurentPolynomial.from_dense(tuple(exps), {tuple(exps.values()): 1})
        for var, exps in rule_exps.items()
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
