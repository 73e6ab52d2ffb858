"""``laurent.derivatives`` against the derivative loop it replaced.

``_derive_reference`` keeps the step ``grammar`` ran before the product rule
moved into ``laurent``.  Both run from the same grammar and start word, and
D^0 .. D^6 must agree exactly, in value and in display; the builtins are
compared through ``derive_n`` up to ``MAX_N``.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _derive_reference as ref
from gramcalc.grammar import BUILTIN_GRAMMAR_NAMES, MAX_N, Grammar, builtin_grammar, derive_n
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.laurent import derivatives, monomial

ORDER = 6

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(names, max_terms):
    """Polynomials over ``names`` with negative exponents and rational coefficients."""
    exponents = st.dictionaries(st.sampled_from(names), st.integers(-2, 2), max_size=len(names))
    terms = st.lists(st.tuples(exponents, coeffs), max_size=max_terms)
    return terms.map(lambda ts: LP([(monomial(exps), c) for exps, c in ts]))


@st.composite
def grammars_and_words(draw):
    """A grammar over ruled ``a b c`` and inert ``t``, and a start word that
    may also hold ``u``, which has no rule and is not declared inert."""
    ruled = sorted(draw(st.sets(st.sampled_from("abc"))))
    inert = frozenset("t") if draw(st.booleans()) else frozenset()
    known = ruled + sorted(inert)
    rules = {var: draw(polys(known, 2)) for var in ruled}
    return Grammar(rules, inert), draw(polys("abctu", 3))


def assert_same(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a == b
        assert a.format() == b.format()
        assert a.to_json_obj() == b.to_json_obj()


X, B, T, U = LP.variable("a"), LP.variable("b"), LP.variable("t"), LP.variable("u")


@settings(max_examples=150, deadline=None)
@given(grammars_and_words())
@example((Grammar({"a": X * T}, frozenset("t")), LP.zero()))
@example((Grammar({"a": X * T}, frozenset("t")), LP.constant(Fraction(-7, 3))))
@example((Grammar({"a": LP.zero(), "b": X}), X ** -2 * U + LP.variable("b")))
@example((Grammar({"a": Fraction(1, 2) * X ** 2, "b": X}), Fraction(2, 3) * X ** -1))
@example((Grammar({"a": X, "b": X ** -1}, frozenset("t")), T * U ** -1))
@example((Grammar({"a": 2 * X}), X ** 3 * B + X ** -1))
@example(
    (Grammar({"a": Fraction(1, 3) * X ** -1 * B, "b": X}), X ** 2 * B ** -1 + Fraction(1, 2) * B)
)
@example((Grammar({"a": B, "b": X}, frozenset("t")), X * B + T))
def test_derivatives_agree_with_the_reference(case):
    g, p = case
    assert_same(list(islice(derivatives(p, g.rules), ORDER + 1)), ref._derive_steps(p, g, ORDER))
    assert_same(list(derive_n(p, g, ORDER).items), ref._derive_steps(p, g, ORDER))


@pytest.mark.parametrize("name", BUILTIN_GRAMMAR_NAMES)
def test_builtins_agree_with_the_reference_up_to_max_n(name):
    g = builtin_grammar(name)
    words = [LP.variable(var) for var in sorted(g.rules)]
    every = LP.one()
    for word in words:
        every = every * word
    for word in words + [every, every ** -1]:
        assert_same(list(derive_n(word, g, MAX_N).items), ref._derive_steps(word, g, MAX_N))
