"""The package's rational series against the Fraction-coefficient reference.

``_series_reference`` keeps the earlier representation, one ``Fraction`` per
coefficient.  Every operation here runs on both, from the same Fractions,
and the results must agree through ``coeffs``, ``egf_coefficients()``,
``==`` and ``repr``; errors must agree in type and message.  Operands are
built from plain coefficients and from exponentials, reciprocals and scalar
multiples, so that sums and products meet numerators over different scales.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _series_reference as ref
from gramcalc.series import (
    RATIONALS,
    EvalPoint,
    InadmissiblePointError,
    TruncatedSeries,
    closed_form,
    exp_series,
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
    assert new.ring is RATIONALS
    assert new.order == old.order
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    egf = new.egf_coefficients()
    assert egf == old.egf_coefficients()
    assert all(type(c) is Fraction for c in egf)
    assert repr(new) == repr(old)
    assert new == TruncatedSeries(RATIONALS, old.coeffs)


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
    new, old = TruncatedSeries(RATIONALS, values), ref.TruncatedSeries(ref.RATIONALS, values)
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
    new = TruncatedSeries(RATIONALS, values)
    old = ref.TruncatedSeries(ref.RATIONALS, values)
    assert_same_outcome(new.inverse, old.inverse)
    assert outcome(new.inverse)[0] == "ValueError"


def test_errors_match_reference():
    a = TruncatedSeries(RATIONALS, [Fraction(1, 2), 3])
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
