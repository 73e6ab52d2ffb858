"""``laurent.derivatives`` against the two derivative steps it replaced.

``_derive_reference`` keeps the step ``grammar`` ran before the product rule
moved into ``laurent``, and the one ``dot`` per step that ``laurent`` took
before the step became one fused loop.  All run from the same grammar and
start word, and D^0 .. D^6 must agree exactly, in value and in display; the
builtins are compared through ``derive_n`` up to ``MAX_N``.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _derive_reference as ref
from gramcalc.grammar import BUILTIN_GRAMMAR_NAMES, MAX_N, Grammar, builtin_grammar, derive_n
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.laurent import derivatives

ORDER = 6

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(names, max_terms):
    """Polynomials over ``names`` with negative exponents and rational coefficients."""
    exponents = st.dictionaries(st.sampled_from(names), st.integers(-2, 2), max_size=len(names))
    terms = st.lists(st.tuples(exponents, coeffs), max_size=max_terms)
    return terms.map(lambda ts: LP([(tuple(exps.items()), c) for exps, c in ts]))


@st.composite
def grammars_and_words(draw):
    """A grammar over ruled ``a b c`` and inert ``t``, and a start word that
    may also hold ``u``, which has no rule and is not declared inert."""
    ruled = sorted(draw(st.sets(st.sampled_from("abc"))))
    inert = frozenset("t") if draw(st.booleans()) else frozenset()
    known = ruled + sorted(inert)
    rules = {var: draw(polys(known, 3)) for var in ruled}
    return Grammar(rules, inert), draw(polys("abctu", 3))


def assert_same(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a == b
        assert a.format() == b.format()
        assert a.sorted_terms() == b.sorted_terms()


X, B, T, U = LP.variable("a"), LP.variable("b"), LP.variable("t"), LP.variable("u")
C = LP.variable("c")
REFERENCES = (ref._derive_steps, ref._dot_steps)


@settings(max_examples=150, deadline=None)
@given(grammars_and_words())
@example((Grammar({"a": X * T}, frozenset("t")), LP()))
@example((Grammar({"a": X * T}, frozenset("t")), LP({(): Fraction(-7, 3)})))
@example((Grammar({"a": LP(), "b": X}), X ** -2 * U + LP.variable("b")))
@example((Grammar({"a": Fraction(1, 2) * X ** 2, "b": X}), Fraction(2, 3) * X ** -1))
@example((Grammar({"a": X, "b": X ** -1}, frozenset("t")), T * U ** -1))
@example((Grammar({"a": 2 * X}), X ** 3 * B + X ** -1))
@example(
    (Grammar({"a": Fraction(1, 3) * X ** -1 * B, "b": X}), X ** 2 * B ** -1 + Fraction(1, 2) * B)
)
@example((Grammar({"a": B, "b": X}, frozenset("t")), X * B + T))
# A zero image beside a multi-term one, on a word that holds both variables.
@example((Grammar({"a": LP(), "b": X * B - Fraction(1, 2) * X ** -1}), X ** 2 * B ** 3))
# Multi-term rational images with distinct denominators.
@example((
    Grammar({
        "a": Fraction(2, 3) * X * B - Fraction(5, 7) * B ** -2 + Fraction(1, 4),
        "b": Fraction(3, 5) * X ** -1 * B ** 2 + Fraction(7, 2) * X,
    }),
    Fraction(1, 6) * X ** 2 * B - Fraction(4, 9) * X ** -1,
))
# Inert variables inside the images and the word.
@example((
    Grammar(
        {"a": Fraction(1, 3) * X * T - T ** 2 * B, "b": Fraction(2, 5) * T * X ** -1},
        frozenset("t"),
    ),
    Fraction(3, 4) * X * T ** -1 + B * T ** 2,
))
# Ruled variables (b, c) that are missing from the word.
@example((
    Grammar({"a": X * B, "b": Fraction(1, 2) * C, "c": X ** -1 - B}),
    Fraction(5, 3) * X ** 3,
))
def test_derivatives_agree_with_the_reference(case):
    g, p = case
    got = list(islice(derivatives(p, dict(g.rules)), ORDER + 1))
    for reference in REFERENCES:
        expected = reference(p, g, ORDER)
        assert_same(got, expected)
        assert_same(list(derive_n(p, g, ORDER).items), expected)
    # The terms come in the order the ``dot`` step summed them, so
    # ``items()`` lists them as it did.
    by_dot = ref._dot_steps(p, g, ORDER)
    assert [list(a.items()) for a in got] == [list(b.items()) for b in by_dot]


@pytest.mark.parametrize("name", BUILTIN_GRAMMAR_NAMES)
def test_builtins_agree_with_the_reference_up_to_max_n(name):
    g = builtin_grammar(name)
    words = [LP.variable(var) for var in sorted(dict(g.rules))]
    every = LP({(): 1})
    for word in words:
        every = every * word
    for word in words + [every, every ** -1]:
        for reference in REFERENCES:
            assert_same(list(derive_n(word, g, MAX_N).items), reference(word, g, MAX_N))
