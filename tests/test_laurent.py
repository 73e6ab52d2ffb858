import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.gdsl import parse_poly


X, Y, Z, W = (LP.variable(v) for v in "xyzw")
P3 = parse_poly("z*w^3 + 4*x*z^2*w + x*y*z^2")


# -- strategies --------------------------------------------------------------

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(-3, 3), max_size=4)
terms = st.lists(st.tuples(fractions, exponents), max_size=5)


@st.composite
def polys(draw):
    result = LP.zero()
    for coeff, exps in draw(terms):
        result = result + LP.term(coeff, exps)
    return result


nonzero_points = st.fixed_dictionaries(
    {
        v: st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
        for v in "xyzw"
    }
)


# -- construction and canonical form -----------------------------------------

def test_zero_and_one():
    assert LP.zero().is_zero()
    assert LP.one() == LP.constant(1)
    assert len(LP.one()) == 1
    assert LP.term(0, {"x": 2}).is_zero()


def test_additive_inverse_cancels():
    assert (X + (-X)).is_zero()


def test_sum_reassembles_known_polynomial():
    assert parse_poly("z*w^3 + 4*x*z^2*w") + parse_poly("x*y*z^2") == P3


def test_rational_coefficients_merge():
    assert LP.term(Fraction(2, 3), {"x": 1}) + LP.term(Fraction(1, 3), {"x": 1}) == X


def test_zero_exponents_never_stored():
    assert LP.term(5, {"x": 0}) == LP.constant(5)
    assert (X * X ** -1) == LP.one()


def test_bad_variable_name_rejected():
    with pytest.raises(ValueError):
        LP.variable("2x")
    with pytest.raises(ValueError):
        LP.term(1, {"": 1})


def test_constructor_canonicalises_monomials():
    yx = LP({(("y", 1), ("x", 1)): 1})
    assert yx == X * Y
    assert (yx + X * Y).format() == "2*x*y"
    xx = LP({(("x", 1), ("x", 1)): 1})
    assert xx == X ** 2
    assert xx.format() == "x^2"
    x0 = LP({(("x", 0),): 1})
    assert x0 == 1
    assert x0.format() == "1"
    assert LP({(("x", 1), ("x", -1)): 3}) == 3
    with pytest.raises(ValueError, match="invalid variable name"):
        LP({(("1x", 1),): 1})


def test_constructor_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        LP.constant(0.1)
    with pytest.raises(TypeError, match="float"):
        LP.term(0.1, {"x": 1})
    with pytest.raises(TypeError, match="float"):
        LP({(("x", 1),): 0.1})
    with pytest.raises(TypeError):
        X * 0.5
    with pytest.raises(TypeError):
        X + 0.5



def test_from_dense_reads_exponents_in_the_given_order():
    assert LP.from_dense("yx", {(2, 1): 3}, 2) == Fraction(3, 2) * X * Y ** 2


@pytest.mark.parametrize(
    "variables, key", [(("x", "y"), (1,)), (("x",), (1, 2, 3)), (("y", "x"), (1,)), ((), (1,))]
)
def test_from_dense_rejects_exponent_tuples_of_the_wrong_length(variables, key):
    with pytest.raises(ValueError, match="exponent tuple"):
        LP.from_dense(variables, {(0,) * len(variables): 1, key: 1})


@pytest.mark.parametrize(
    "variables, denominator, message",
    [
        (("x", "x"), 1, "variables ('x', 'x') are not distinct"),
        (("x", "y"), 0, "the denominator must be positive"),
        (("x", "y"), -2, "the denominator must be positive"),
    ],
    ids=["repeated_variable", "zero_denominator", "negative_denominator"],
)
def test_from_dense_rejects_bad_variables_and_denominators(variables, denominator, message):
    with pytest.raises(ValueError) as exc:
        LP.from_dense(variables, {(1, 0): 1}, denominator)
    assert str(exc.value) == message

# -- products and powers ------------------------------------------------------

def test_laurent_cancellation():
    assert X * X ** -1 == LP.one()
    assert (Z * X ** -1) * X == Z


def test_difference_of_squares_with_fresh_variable():
    s = LP.variable("s")
    assert (W + Y - s) * (W + Y + s) == (W + Y) ** 2 - s ** 2


def test_power_cases():
    assert (W - Y) ** 0 == LP.one()
    assert (X * Z) ** -1 == X ** -1 * Z ** -1
    assert (W + Y) ** 2 == W * W + 2 * W * Y + Y * Y


def test_negative_power_of_sum_rejected():
    with pytest.raises(ValueError):
        (X + Y) ** -1


def test_scalar_arithmetic():
    assert 2 * X == X + X
    assert Fraction(1, 2) * (X + X) == X
    assert X + 1 == X + LP.one()
    assert 1 - X == LP.one() - X


# -- evaluation ---------------------------------------------------------------

def test_eval_row_sum():
    assert P3.eval({"x": 1, "y": 1, "z": 1, "w": 1}) == 6


def test_eval_direct_substitution():
    assert (Z * W).eval({"x": 4, "y": 2, "z": 1, "w": 3}) == 3


def test_eval_negative_exponent():
    assert (X ** -1 * Z).eval({"x": 2, "z": 6}) == 3


def test_eval_missing_assignment():
    with pytest.raises(ValueError, match="missing assignment.*'w'"):
        (Z * W).eval({"z": 1})


def test_eval_zero_at_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        (X ** -1).eval({"x": 0})


def test_eval_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        X.eval({"x": 0.1})
    with pytest.raises(TypeError, match="float"):
        Z.eval({"x": 0.5, "z": 1})


# -- substitution ---------------------------------------------------------------

def test_subst_collapses_to_marginal():
    ones = {v: LP.one() for v in "yzw"}
    assert P3.subst(ones) == LP.one() + 5 * X


def test_subst_identity():
    assert P3.subst({}) == P3
    assert P3.subst({v: LP.variable(v) for v in "xyzw"}) == P3


def test_subst_rejects_sum_image_at_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        (X ** -1).subst({"x": X + Y})


def test_subst_monomial_image_at_negative_exponent():
    assert (X ** -2).subst({"x": 2 * Y}) == LP.term(Fraction(1, 4), {"y": -2})


# -- formatting and serialization ----------------------------------------------

def test_format_conventions():
    assert LP.zero().format() == "0"
    assert LP.constant(7).format() == "7"
    assert LP.constant(Fraction(-2, 3)).format() == "-2/3"
    assert (-X).format() == "-x"
    assert (X - Y).format() == "x - y"
    assert (X ** -1 * Y * -1).format() == "-x^-1*y"


def test_format_respects_var_order():
    p = parse_poly("z*w^2 + x*z^2")
    assert p.format(("x", "y", "z", "w")) == "z*w^2 + x*z^2"
    assert p.format() == "w^2*z + x*z^2"


def test_term_order_is_graded_then_lex():
    p = parse_poly("x + x^2 + 1 + x^-1")
    assert p.format() == "x^2 + x + 1 + x^-1"


def test_json_shape():
    p = parse_poly("-2/3*x^-1*y^2 + z")
    obj = p.to_json_obj()
    assert obj == [
        {"coeff": "1", "exps": {"z": 1}},
        {"coeff": "-2/3", "exps": {"x": -1, "y": 2}},
    ]
    json.dumps(obj)  # serializable


def test_format_parses_back():
    p = parse_poly("-2/3*x^-1*y^2 + z - 5*w")
    assert parse_poly(p.format()) == p


# -- algebraic properties -------------------------------------------------------

@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_additive_identity_and_inverse(a):
    assert a + LP.zero() == a
    assert (a - a).is_zero()
    assert a * LP.one() == a


@settings(max_examples=60)
@given(polys(), polys(), nonzero_points)
def test_eval_is_ring_morphism(a, b, point):
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)


@given(fractions.filter(bool), exponents)
def test_single_term_inverse(coeff, exps):
    m = LP.term(coeff, exps)
    assert m * m ** -1 == LP.one()


@settings(max_examples=60)
@given(polys())
def test_format_round_trip(a):
    assert parse_poly(a.format()) == a
