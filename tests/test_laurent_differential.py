"""The package's polynomial class against the Fraction-keyed reference.

``_laurent_reference`` keeps the earlier sparse representation.  Every
operation here runs on both, from the same terms, and the results must agree
through ``items()``, ``format()`` and ``sorted_terms()``, the list the CLI
prints as JSON; errors must agree in type.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _laurent_reference as ref
from gramcalc.grammar import BUILTIN_GRAMMAR_NAMES, builtin_grammar, derive_n
from gramcalc.laurent import LaurentPolynomial as LP

NAMES = "wxyz"

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
exponent_maps = st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 3), max_size=4)
term_lists = st.lists(st.tuples(exponent_maps, coeffs), max_size=6)
single_terms = st.lists(
    st.tuples(exponent_maps, coeffs.filter(bool)), min_size=1, max_size=1
)
scalars = st.one_of(st.integers(-6, 6), coeffs)
points = st.dictionaries(
    st.sampled_from(NAMES),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    min_size=2,
    max_size=4,
)


def pair(terms):
    """The same polynomial in both representations."""
    canonical = [(ref.monomial(exps), c) for exps, c in terms]
    return LP(canonical), ref.LaurentPolynomial(canonical)


def assert_same(new, old):
    assert isinstance(new, LP)
    assert dict(new.items()) == dict(old.items())
    assert all(type(c) is Fraction for _, c in new.items())
    assert new.format() == old.format()
    assert new.format(("x", "y", "z", "w")) == old.format(("x", "y", "z", "w"))
    assert new.sorted_terms() == old.sorted_terms()
    assert new.variables() == old.variables()
    assert len(new) == len(old)


def outcome(compute):
    try:
        return "ok", compute()
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(term_lists, term_lists, scalars)
def test_ring_operations_agree(terms_a, terms_b, scalar):
    a, ra = pair(terms_a)
    b, rb = pair(terms_b)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(a * scalar, ra * scalar)
    assert_same(scalar * a, scalar * ra)
    assert_same(a + scalar, ra + scalar)
    assert_same(scalar - a, scalar - ra)
    assert (a == b) == (ra == rb)
    assert (a == scalar) == (ra == scalar)


# Few monomials and denominators sharing factors, so that terms merge and
# partial sums cancel.
merging_terms = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from("xy"), st.integers(-1, 1), max_size=2),
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12])),
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(merging_terms)
@example([({"x": 1}, Fraction(1, 2)), ({"x": 1}, Fraction(-1, 2))])
@example([({"x": 1}, Fraction(1, 6)), ({"x": 1}, Fraction(1, 3))])
@example([({"x": 1}, Fraction(1, 2)), ({"y": 1}, Fraction(1, 3)), ({"x": 1}, Fraction(-1, 2))])
@example([
    ({"x": 1}, Fraction(1, 6)), ({"y": 1}, Fraction(5, 4)),
    ({"x": 1}, Fraction(1, 3)), ({"y": 1}, Fraction(-1, 4)),
])
@example([
    ({}, Fraction(1, 4)), ({"x": -1}, Fraction(1, 6)),
    ({}, Fraction(-1, 4)), ({"x": -1}, Fraction(1, 3)),
])
def test_construction_agrees_and_is_in_lowest_terms(terms):
    a, ra = pair(terms)
    assert_same(a, ra)
    # Times 1, the fields are reduced again; equality compares the fields.
    assert a * 1 == a


@settings(max_examples=60, deadline=None)
@given(term_lists, st.integers(0, 3))
def test_powers_agree(terms, k):
    a, ra = pair(terms)
    assert_same(a ** k, ra ** k)
    kind, value = outcome(lambda: a ** -k)
    ref_kind, ref_value = outcome(lambda: ra ** -k)
    assert kind == ref_kind
    if kind == "ok":
        assert_same(value, ref_value)
    else:
        assert value == ref_value


@settings(max_examples=60, deadline=None)
@given(single_terms, st.integers(-4, 4))
def test_single_term_powers_agree(terms, k):
    a, ra = pair(terms)
    assert_same(a ** k, ra ** k)


@settings(max_examples=80, deadline=None)
@given(term_lists, points)
def test_eval_agrees(terms, point):
    a, ra = pair(terms)
    kind, value = outcome(lambda: a.eval(point))
    ref_kind, ref_value = outcome(lambda: ra.eval(point))
    assert kind == ref_kind
    if kind == "ok":
        assert value == ref_value
        assert type(value) is Fraction
    elif len(a) == 1:
        assert value == ref_value
    else:
        assert "missing assignment" in value or "negative exponent" in value


@settings(max_examples=60, deadline=None)
@given(single_terms, points)
def test_eval_errors_agree_on_single_terms(terms, point):
    a, ra = pair(terms)
    assert outcome(lambda: a.eval(point)) == outcome(lambda: ra.eval(point))


@settings(max_examples=80, deadline=None)
@given(term_lists, st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES + "t")))
@example([({"x": 2, "y": -1}, 1), ({"y": 3}, -2)], {"x": "y", "y": "x"})
@example([({"x": 1, "z": -1}, Fraction(3, 2)), ({"w": -2}, 1)], {"z": "x", "w": "t"})
@example([({"x": 1, "z": -1}, 4), ({}, -2), ({"y": 1, "w": -1}, 6)], {"z": "x", "w": "y"})
def test_subst_agrees(terms, names):
    # A rename is the substitution of one variable for another; merged
    # variables multiply, and the last example cancels to a constant.
    a, ra = pair(terms)
    images = {old: ref.LaurentPolynomial.variable(new) for old, new in names.items()}
    assert_same(a.subst(names), ra.subst(images))


def reference_derivative(p, rules):
    """One product-rule step on the reference class."""
    out = ref.LaurentPolynomial()
    for mono, c in p.items():
        for name, exp in mono:
            image = rules.get(name)
            if image is not None:
                drop = ref.LaurentPolynomial({((name, -1),): 1})
                out = out + ref.LaurentPolynomial({mono: c * exp}) * drop * image
    return out


@pytest.mark.parametrize("grammar_name", BUILTIN_GRAMMAR_NAMES)
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(exponent_maps, coeffs), max_size=3))
def test_derive_n_agrees(grammar_name, terms):
    g = builtin_grammar(grammar_name)
    allowed = dict(g.rules).keys()
    terms = [({v: e for v, e in exps.items() if v in allowed}, c) for exps, c in terms]
    p, rp = pair(terms)
    rules = {
        name: ref.LaurentPolynomial(dict(image.items())) for name, image in g.rules
    }
    items = derive_n(p, g, 5).items
    expected = rp
    for k in range(6):
        assert_same(items[k], expected)
        expected = reference_derivative(expected, rules)
