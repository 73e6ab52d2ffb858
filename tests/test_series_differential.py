"""The package's series against the coefficient-tuple reference.

``_series_reference`` keeps the earlier representation, one coefficient per
power of ``t`` over one of two rings: a ``Fraction`` over ``ref.RATIONALS``
and a polynomial over ``ref.LAURENT``.  The package has no rings; its
numerators are ``int``s or polynomials, as given.  Every operation here runs
on both, from the same coefficients, and the results must agree through
``coeffs``, ``egf_coefficients()``, ``==`` and ``repr``; errors must agree in
type, and in message except where a test says otherwise.  Operands are built
from plain coefficients and from exponentials, reciprocals and scalar
multiples, so that sums and products meet numerators over different scales,
and integer numerators meet polynomial ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _series_reference as ref
from gramcalc._names import BUILTIN_GRAMMAR_NAMES
from gramcalc.grammar import builtin_grammar
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.series import (
    EvalPoint,
    InadmissiblePointError,
    TruncatedSeries,
    closed_form,
    exp_series,
    gen_series,
)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)
coefficients = st.one_of(st.just(Fraction(0)), rationals)
scalars = st.one_of(st.integers(-7, 7), rationals)


def outcome(compute):
    try:
        return "ok", compute()
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def assert_same(new, old):
    assert isinstance(new, TruncatedSeries)
    assert new.order == old.order
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    egf = new.egf_coefficients()
    assert egf == old.egf_coefficients()
    assert all(type(c) is Fraction for c in egf)
    assert repr(new) == repr(old)
    assert new == TruncatedSeries(old.coeffs)


def assert_same_outcome(compute_new, compute_old):
    new, old = outcome(compute_new), outcome(compute_old)
    assert new[0] == old[0]
    if new[0] == "ok":
        assert_same(new[1], old[1])
    else:
        assert new[1] == old[1]


@st.composite
def operands(draw, order):
    """The same series in both representations, with varied scales."""
    kind = draw(st.sampled_from(("plain", "exp", "inverse", "scaled")))
    if kind == "exp":
        alpha = draw(rationals)
        return exp_series(alpha, order), ref.exp_series(alpha, order)
    values = draw(st.lists(coefficients, min_size=order + 1, max_size=order + 1))
    new, old = TruncatedSeries(values), ref.TruncatedSeries(ref.RATIONALS, values)
    if kind == "inverse" and values[0]:
        return new.inverse(), old.inverse()
    if kind == "scaled":
        c = draw(scalars)
        return new * c + exp_series(c, order), old * c + ref.exp_series(c, order)
    return new, old


@st.composite
def operand_pairs(draw):
    order = draw(st.integers(0, 40))
    return draw(operands(order)), draw(operands(order))


@settings(max_examples=40, deadline=None)
@given(operand_pairs())
def test_series_operations_match_reference(pair):
    (a, a_ref), (b, b_ref) = pair
    assert_same(a, a_ref)
    assert_same(a + b, a_ref + b_ref)
    assert_same(a - b, a_ref - b_ref)
    assert_same(-a, -a_ref)
    assert_same(a * b, a_ref * b_ref)
    assert_same_outcome(a.inverse, a_ref.inverse)
    assert_same_outcome(lambda: a * b.inverse(), lambda: a_ref * b_ref.inverse())
    assert_same_outcome(lambda: a / b, lambda: a_ref * b_ref.inverse())
    assert (a == b) == (a_ref == b_ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40).flatmap(operands), scalars)
def test_scalar_operations_match_reference(pair, c):
    a, a_ref = pair
    assert_same(a + c, a_ref + c)
    assert_same(c + a, c + a_ref)
    assert_same(a - c, a_ref - c)
    assert_same(c - a, c - a_ref)
    assert_same(a * c, a_ref * c)
    assert_same(c * a, c * a_ref)


@settings(max_examples=40, deadline=None)
@given(rationals, st.integers(0, 40))
def test_exp_series_matches_reference(alpha, order):
    assert_same(exp_series(alpha, order), ref.exp_series(alpha, order))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=41))
def test_zero_constant_term_raises_the_same_error(values):
    values[0] = Fraction(0)
    new = TruncatedSeries(values)
    old = ref.TruncatedSeries(ref.RATIONALS, values)
    assert_same_outcome(new.inverse, old.inverse)
    assert outcome(new.inverse)[0] == "ValueError"


def test_errors_match_reference():
    a = TruncatedSeries([Fraction(1, 2), 3])
    a_ref = ref.TruncatedSeries(ref.RATIONALS, [Fraction(1, 2), 3])
    b = exp_series(2, 2)
    b_ref = ref.exp_series(2, 2)
    for compute_new, compute_old in (
        (lambda: a * b, lambda: a_ref * b_ref),
        (lambda: a + b, lambda: a_ref + b_ref),
        (lambda: a * 0.5, lambda: a_ref * 0.5),
        (lambda: 0.5 - a, lambda: 0.5 - a_ref),
        (lambda: exp_series(0.5, 3), lambda: ref.exp_series(0.5, 3)),
    ):
        new, old = outcome(compute_new), outcome(compute_old)
        assert new[0] != "ok"
        assert new == old


# -- closed forms at generated admissible points ------------------------------------

nonzero = rationals.filter(bool)


@st.composite
def grammar_points(draw):
    """(x, y, z, w) with root s of (w+y)^2 - 4xz; s = 0 makes the denominator vanish."""
    x, y, w, s = draw(nonzero), draw(rationals), draw(rationals), draw(rationals)
    z = ((w + y) ** 2 - s * s) / (4 * x)
    return {"x": x, "y": y, "z": z, "w": w}, s


@st.composite
def gessel_points(draw):
    r = draw(rationals)
    return {"x": 1 - r * r}, r


@st.composite
def elizalde_noy_points(draw):
    m = draw(nonzero)
    return {"y": (m + 4 / m) / 2 - 1}, (4 / m - m) / 2


def assert_closed_forms_agree(which, assignment, root, order):
    point = EvalPoint(assignment, root)
    assert_same_outcome(
        lambda: closed_form(which, point, order),
        lambda: ref.closed_form(which, point, order),
    )


@pytest.mark.parametrize("which", ["gen_z", "gen_y", "carlitz_F"])
@settings(max_examples=15, deadline=None)
@given(point=grammar_points(), order=st.integers(0, 60))
def test_grammar_closed_forms_match_reference(which, point, order):
    assert_closed_forms_agree(which, *point, order)


@settings(max_examples=15, deadline=None)
@given(point=gessel_points(), order=st.integers(0, 60))
def test_gessel_closed_form_matches_reference(point, order):
    assert_closed_forms_agree("gessel_T", *point, order)


@settings(max_examples=15, deadline=None)
@given(point=elizalde_noy_points(), order=st.integers(0, 60))
def test_elizalde_noy_closed_form_matches_reference(point, order):
    assert_closed_forms_agree("elizalde_noy_U", *point, order)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 17, 60])
def test_no_pdd_closed_form_matches_reference(order):
    assert_same(closed_form("no_pdd_U0", None, order), ref.closed_form("no_pdd_U0", None, order))


def test_vanishing_denominators_match_reference():
    for which, assignment, root in (
        ("gen_z", {"x": 1, "y": 1, "z": 1, "w": 1}, 0),
        ("carlitz_F", {"x": 1, "y": 1, "z": 1, "w": 1}, 0),
        ("gessel_T", {"x": 1}, 0),
        ("elizalde_noy_U", {"y": 1}, 0),
    ):
        with pytest.raises(InadmissiblePointError, match="denominator"):
            closed_form(which, EvalPoint(assignment, root), 5)
        assert_closed_forms_agree(which, assignment, root, 5)


# -- Laurent polynomial series ---------------------------------------------------------

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_small = small_rationals.filter(bool)
laurent_exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(-2, 2), max_size=2)
monomials = laurent_exponents.map(lambda exps: tuple(exps.items()))
single_terms = st.builds(lambda c, mono: LP({mono: c}), nonzero_small, monomials)
polys = st.lists(st.tuples(monomials, small_rationals), max_size=3).map(LP)
laurent_scalars = st.one_of(st.integers(-5, 5), small_rationals, polys)


def assert_same_laurent(new, old):
    # A coefficient is a Fraction where its numerator is an int.
    assert isinstance(new, TruncatedSeries)
    assert new.order == old.order
    assert new.coeffs == old.coeffs
    egf = new.egf_coefficients()
    assert egf == old.egf_coefficients()
    assert all(type(c) in (LP, Fraction) for c in new.coeffs + tuple(egf))
    assert repr(new) == repr(old)
    assert new == TruncatedSeries(old.coeffs)


def laurent_reference(values):
    """The reference series over ``ref.LAURENT`` with coefficients ``values``."""
    return ref.TruncatedSeries(ref.LAURENT, [LP({(): 1}) * v for v in values])


@st.composite
def laurent_operands(draw, order):
    """The same polynomial series in both representations, with varied scales."""
    kind = draw(st.sampled_from(("plain", "exp", "inverse", "scaled")))
    if kind == "exp":
        alpha = draw(laurent_scalars)
        return exp_series(alpha, order), ref.exp_series(alpha, order, ref.LAURENT)
    # Scalar coefficients give integer numerators over a scale E > 1; the
    # reference takes them as constant polynomials.
    size = order + 1
    values = draw(st.lists(st.one_of(polys, small_rationals), min_size=size, max_size=size))
    if kind == "inverse":
        values[0] = draw(st.one_of(single_terms, nonzero_small))
    new, old = TruncatedSeries(values), laurent_reference(values)
    if kind == "inverse":
        return new.inverse(), old.inverse()
    if kind == "scaled":
        c, alpha = draw(laurent_scalars), draw(small_rationals)
        new = new * c + exp_series(alpha, order)
        return new, old * c + ref.exp_series(alpha, order, ref.LAURENT)
    return new, old


@st.composite
def laurent_pairs(draw):
    order = draw(st.integers(0, 5))
    return draw(laurent_operands(order)), draw(laurent_operands(order))


@settings(max_examples=40, deadline=None)
@given(laurent_pairs(), laurent_scalars)
def test_laurent_operations_match_reference(pair, c):
    (a, a_ref), (b, b_ref) = pair
    assert_same_laurent(a, a_ref)
    assert_same_laurent(a + b, a_ref + b_ref)
    assert_same_laurent(a - b, a_ref - b_ref)
    assert_same_laurent(-a, -a_ref)
    assert_same_laurent(a * b, a_ref * b_ref)
    assert (a == b) == (a_ref == b_ref)
    assert_same_laurent(a + c, a_ref + c)
    assert_same_laurent(c + a, c + a_ref)
    assert_same_laurent(a - c, a_ref - c)
    assert_same_laurent(c - a, c - a_ref)
    assert_same_laurent(a * c, a_ref * c)
    assert_same_laurent(c * a, c * a_ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5).flatmap(laurent_operands), single_terms, polys)
def test_laurent_inverse_matches_reference(pair, head, multi):
    a, a_ref = pair
    for c in (head, multi):
        # Replace the constant term; a multi-term or zero one has no reciprocal.
        b, b_ref = a + (c - a.coeffs[0]), a_ref + (c - a_ref.coeffs[0])
        new, old = outcome(b.inverse), outcome(b_ref.inverse)
        # The quotient, against the reciprocal-then-product it replaces.
        quotient = outcome(lambda: a / b)
        old_quotient = outcome(lambda: a_ref * b_ref.inverse())
        assert new[0] == old[0] == quotient[0] == old_quotient[0]
        if c == 0:
            assert new == ("ValueError", "series constant term vanishes; reciprocal does not exist")
            assert old == (
                "ValueError",
                "negative power of a polynomial with 0 terms (only single terms are invertible)",
            )
            assert quotient == new and old_quotient == old
        elif new[0] == "ok":
            assert_same_laurent(new[1], old[1])
            assert b * new[1] == exp_series(0, a.order)
            assert_same_laurent(quotient[1], old_quotient[1])
            assert quotient[1] * b == a
        else:
            assert new == old == quotient == old_quotient
            assert len(c) > 1


@settings(max_examples=40, deadline=None)
@given(laurent_scalars, st.integers(0, 8))
def test_laurent_exp_series_matches_reference(alpha, order):
    new, old = exp_series(alpha, order), ref.exp_series(alpha, order, ref.LAURENT)
    assert_same_laurent(new, old)


@pytest.mark.parametrize("name", BUILTIN_GRAMMAR_NAMES)
@settings(max_examples=10, deadline=None)
@given(
    words=st.lists(
        st.tuples(st.dictionaries(st.sampled_from("xy"), st.integers(-1, 2)), small_rationals),
        max_size=3,
    ),
    order=st.integers(0, 6),
)
def test_gen_series_matches_reference(name, words, order):
    g = builtin_grammar(name)
    p = LP([(tuple(exps.items()), c) for exps, c in words])
    new, old = gen_series(p, g, order), ref.gen_series(p, g, order)
    assert_same_laurent(new, old)


def test_laurent_coefficients_are_polynomials():
    # The type of each coefficient follows its numerator: a polynomial for a
    # polynomial, a Fraction for an int.
    x = LP.variable("x")
    a = TruncatedSeries([1, Fraction(-1, 2), x])
    assert a.coeffs == (1, Fraction(-1, 2), x)
    assert [type(c) for c in a.coeffs] == [Fraction, Fraction, LP]
    assert [type(c) for c in a.egf_coefficients()] == [Fraction, Fraction, LP]
    assert all(type(c) is LP for c in (a * LP({(): 1})).coeffs + (a + x).coeffs)
    assert repr(a) == "TruncatedSeries([1, -1/2, x], order=2)"
    assert (exp_series(0, 2) * 3).coeffs == (3, 0, 0)
    with pytest.raises(TypeError, match="float"):
        TruncatedSeries([x, 0.5])


# -- integer numerators meet polynomial ones ---------------------------------------------


@st.composite
def mixed_pairs(draw):
    """A series of integer numerators and one of polynomial numerators, of one order."""
    order = draw(st.integers(0, 5))
    a, a_ref = draw(operands(order))
    b, b_ref = draw(laurent_operands(order))
    # Times the polynomial 1, every numerator of b is a polynomial.
    return (a, laurent_reference(a_ref.coeffs)), (b * LP({(): 1}), b_ref)


@settings(max_examples=40, deadline=None)
@given(mixed_pairs())
def test_integer_and_polynomial_numerators_mix(pair):
    # At the parent, each sum and product here raised "series rings differ".
    (a, a_ref), (b, b_ref) = pair
    assert all(type(c) is Fraction for c in a.coeffs)
    assert all(type(c) is LP for c in b.coeffs)
    for new, old in ((a, a_ref), (b, b_ref)):
        assert_same_laurent(new, old)
    assert_same_laurent(a + b, a_ref + b_ref)
    assert_same_laurent(b + a, b_ref + a_ref)
    assert_same_laurent(a - b, a_ref - b_ref)
    assert_same_laurent(b - a, b_ref - a_ref)
    assert_same_laurent(a * b, a_ref * b_ref)
    assert_same_laurent(b * a, b_ref * a_ref)
    assert (a == b) == (a_ref == b_ref)


@pytest.mark.parametrize(
    "head, tail",
    [(nonzero_small, polys), (single_terms, small_rationals)],
    ids=["int_head", "polynomial_head"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mixed_reciprocals_match_reference(head, tail, data):
    # An integer constant term folds into the scales over polynomial
    # numerators; a one-term polynomial one is inverted over integer ones.
    order = data.draw(st.integers(0, 5))
    values = [data.draw(head), *data.draw(st.lists(tail, min_size=order, max_size=order))]
    new, old = TruncatedSeries(values), laurent_reference(values)
    assert_same_laurent(new.inverse(), old.inverse())
    assert new * new.inverse() == exp_series(0, order)
