from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcalc.gdsl import parse_poly
from gramcalc.grammar import builtin_grammar, derive, derive_n
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.series import (
    EvalPoint,
    InadmissiblePointError,
    TruncatedSeries,
    closed_form,
    exp_series,
    gen_series,
)

G = builtin_grammar("paper_G")
X, Y, Z, W = (LP.variable(v) for v in "xyzw")

POINT_A = EvalPoint({"x": 4, "y": 2, "z": 1, "w": 3}, 3)


def rational_series(*values, order=None):
    coeffs = [Fraction(v) for v in values]
    if order is not None:
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(coeffs)


# -- basic arithmetic -----------------------------------------------------------

def test_geometric_inverse():
    geo = rational_series(1, -1, order=8).inverse()
    assert geo.coeffs == tuple([Fraction(1)] * 9)


def test_exponential_law():
    u, v = Fraction(3, 2), Fraction(-5, 3)
    assert exp_series(u, 10) * exp_series(v, 10) == exp_series(u + v, 10)


def test_exp_series_values():
    assert exp_series(0, 4) == rational_series(1, order=4)
    assert exp_series(1, 4).coeffs == (
        Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
    )
    assert exp_series(3, 4).coeffs[2] == Fraction(9, 2)


def test_inverse_times_itself_is_one():
    a = rational_series(2, 5, -7, 1, 3)
    assert a * a.inverse() == rational_series(1, order=4)


def test_inverse_requires_invertible_constant():
    with pytest.raises(ValueError, match="constant term"):
        rational_series(0, 1, order=4).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries([X + Y, X]).inverse()


def test_division_is_one_quotient():
    a, b = rational_series(3, -1, 4, 1, 5), rational_series(-2, 5, -7, 1, 3)
    assert (a / b) * b == a
    assert a / a == exp_series(0, 4)
    with pytest.raises(ValueError, match="constant term"):
        a / rational_series(0, 1, order=4)
    with pytest.raises(ValueError, match="orders differ"):
        a / rational_series(1, 2)
    # The divisor is a series; a scalar multiplies by its reciprocal.
    with pytest.raises(TypeError, match="unsupported operand"):
        a / 2



@pytest.mark.parametrize(
    "make",
    [
        lambda: exp_series(2, -1),
        lambda: exp_series(X, -1),
        lambda: exp_series(0, -1),
        lambda: closed_form("no_pdd_U0", None, -1),
    ],
    ids=["exp_series", "laurent_exp_series", "zero_rate", "closed_form"],
)
def test_negative_series_order_rejected(make):
    with pytest.raises(ValueError, match="^series order must be nonnegative$"):
        make()

@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TruncatedSeries([]), "a truncated series needs at least the t^0 coefficient"),
        (lambda: exp_series(2, 3) * exp_series(X, 4), "series orders differ (3 vs 4)"),
        (
            lambda: TruncatedSeries([LP(), X]).inverse(),
            "series constant term vanishes; reciprocal does not exist",
        ),
        (
            lambda: TruncatedSeries([X + Y, 1]).inverse(),
            "negative power of a polynomial with 2 terms (only single terms are invertible)",
        ),
    ],
    ids=["empty", "orders_differ", "zero_polynomial_head", "two_term_head"],
)
def test_malformed_series_requests_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="orders differ"):
        rational_series(1, 2) * rational_series(1, 2, 3)


def test_scalar_operations():
    a = rational_series(1, 2, 3)
    assert (a * 2).coeffs == (2, 4, 6)
    assert (2 * a).coeffs == (2, 4, 6)
    assert (a + 5).coeffs == (6, 2, 3)
    assert (5 - a).coeffs == (4, -2, -3)


def test_series_equal_only_series():
    assert (exp_series(1, 2) == 3) is False


def test_series_rejects_float_scalars():
    with pytest.raises(TypeError, match="float"):
        exp_series(0.5, 3)
    a = rational_series(1, 2, 3)
    for apply in (
        lambda: a + 0.5,
        lambda: 0.5 + a,
        lambda: a - 0.5,
        lambda: 0.5 - a,
        lambda: a * 0.5,
        lambda: 0.5 * a,
    ):
        with pytest.raises(TypeError, match="float"):
            apply()
    assert (a + Fraction(1, 2)).coeffs == (Fraction(3, 2), 2, 3)


@pytest.mark.parametrize("alpha", [2, X], ids=["rationals", "laurent"])
@pytest.mark.parametrize("value", [0.5, "a"], ids=["float", "str"])
def test_scalar_sums_name_the_bad_scalar(alpha, value):
    # A difference must not negate the operand first: "-0.5" or "bad operand
    # type for unary -" would name another value than the one given.
    s = exp_series(alpha, 3)
    message = f"expected an exact scalar (int or Fraction), got {type(value).__name__} {value!r}"
    for apply in (lambda: s + value, lambda: value + s, lambda: s - value, lambda: value - s):
        with pytest.raises(TypeError) as exc:
            apply()
        assert str(exc.value) == message


# -- generating series over the polynomial ring -----------------------------------

def test_gen_series_first_coefficients():
    s = gen_series(Z, G, 3)
    assert s.coeffs[0] == Z
    assert s.coeffs[1] == Z * W
    assert s.coeffs[2] == derive_n(Z, G, 2).items[2] * Fraction(1, 2)


def test_gen_series_of_inverse_term_is_exponential():
    zx = Z * X ** -1
    assert gen_series(zx, G, 8) == exp_series(W - Y, 8) * zx


def test_gen_series_derivative_relation():
    # d/dt of the series of u is the series of D(u): the EGF data shift by one.
    for u in (Z, Y, Z * W, X * Y):
        egf = gen_series(u, G, 9).egf_coefficients()
        assert egf[1:] == gen_series(derive(u, G), G, 8).egf_coefficients()


def test_gen_series_additive_and_multiplicative():
    u = parse_poly("x*y - 2*z")
    v = parse_poly("w^2 + x")
    order = 7
    assert gen_series(u + v, G, order) == gen_series(u, G, order) + gen_series(v, G, order)
    assert gen_series(u * v, G, order) == gen_series(u, G, order) * gen_series(v, G, order)


def test_product_decomposition_of_gen_z():
    order = 10
    lhs = gen_series(Z, G, order)
    rhs = gen_series(Z * X ** -1, G, order) * gen_series(X, G, order)
    assert lhs == rhs


def test_log_derivative_relation_division_free():
    order = 10
    gz = gen_series(Z, G, order)
    gy = gen_series(Y, G, order)
    lhs = gy * gz + (W - Y) * gz
    rhs = gen_series(derive(Z, G), G, order)
    assert lhs == rhs


# -- evaluation points -------------------------------------------------------------

def test_point_normalizes_to_fractions():
    pt = EvalPoint({"x": 4}, 3)
    assert pt.assignment["x"] == Fraction(4)
    assert pt.discriminant_root == Fraction(3)
    assert type(pt.assignment["x"]) is type(pt.discriminant_root) is Fraction


def test_point_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        EvalPoint({"x": 0.1}, Fraction(1, 2))
    with pytest.raises(TypeError, match="float"):
        EvalPoint({"x": Fraction(3, 4)}, 0.5)


def test_point_root_validation():
    with pytest.raises(InadmissiblePointError, match="squared"):
        closed_form("gen_z", EvalPoint({"x": 4, "y": 2, "z": 1, "w": 3}, 2), 4)
    with pytest.raises(InadmissiblePointError, match="square root"):
        closed_form("gen_z", EvalPoint({"x": 4, "y": 2, "z": 1, "w": 3}), 4)
    with pytest.raises(InadmissiblePointError, match="missing"):
        closed_form("gen_z", EvalPoint({"x": 4, "y": 2, "z": 1}, 3), 4)


def test_point_with_unread_variables_rejected():
    grammar_point = {"x": 3, "y": Fraction(3, 2), "z": Fraction(17, 54), "w": Fraction(5, 3)}
    for which in ("gen_z", "gen_y", "carlitz_F"):
        point = EvalPoint({**grammar_point, "q": 1}, Fraction(5, 2))
        with pytest.raises(InadmissiblePointError, match="also assigns q"):
            closed_form(which, point, 4)
    with pytest.raises(InadmissiblePointError, match="also assigns y"):
        closed_form("gessel_T", EvalPoint({"x": Fraction(48, 49), "y": 2}, Fraction(1, 7)), 4)
    with pytest.raises(InadmissiblePointError, match="also assigns w, x"):
        closed_form(
            "elizalde_noy_U",
            EvalPoint({"x": 1, "y": Fraction(13, 4), "w": 0}, Fraction(15, 4)),
            4,
        )


def test_vanishing_denominator_rejected():
    # (w+y)^2 = 4xz makes the discriminant 0, so the denominator collapses.
    with pytest.raises(InadmissiblePointError, match="denominator"):
        closed_form("gen_z", EvalPoint({"x": 1, "y": 1, "z": 1, "w": 1}, 0), 4)


def test_unknown_closed_form():
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_form("gen_w", POINT_A, 4)
    with pytest.raises(InadmissiblePointError, match="needs an evaluation point"):
        closed_form("gen_z", None, 4)


# -- closed forms ------------------------------------------------------------------

def test_gen_z_closed_form_matches_engine():
    order = 12
    series = closed_form("gen_z", POINT_A, order)
    assert series.coeffs[0] == 1
    assert series.coeffs[1] == 3
    items = derive_n(Z, G, order).items
    egf = series.egf_coefficients()
    for n in range(order + 1):
        assert egf[n] == items[n].eval(POINT_A.assignment)


def test_gen_y_closed_form_matches_engine():
    order = 12
    series = closed_form("gen_y", POINT_A, order)
    assert series.coeffs[0] == 2  # the value of y itself
    items = derive_n(Y, G, order).items
    egf = series.egf_coefficients()
    for n in range(order + 1):
        assert egf[n] == items[n].eval(POINT_A.assignment)


def test_carlitz_series_and_relation():
    order = 10
    f_series = closed_form("carlitz_F", POINT_A, order)
    assert f_series.coeffs[0] == 0
    assert f_series.egf_coefficients()[1] == 1
    # gen_y = y + xz * F, coefficientwise
    assert closed_form("gen_y", POINT_A, order) == f_series * Fraction(4) + Fraction(2)


def test_carlitz_series_matches_enumeration():
    from gramcalc.permstat import KIND_CARLITZ, stat_table, table_to_poly

    order = 7
    egf = closed_form("carlitz_F", POINT_A, order).egf_coefficients()
    for n in range(1, order + 1):
        f_n = table_to_poly(stat_table(n, KIND_CARLITZ))
        assert egf[n] == f_n.eval(POINT_A.assignment)


def test_gessel_series_matches_enumeration():
    from gramcalc.permstat import KIND_EXTERIOR_PDD, stat_table, triangle_poly

    point = EvalPoint({"x": Fraction(3, 4)}, Fraction(1, 2))
    egf = closed_form("gessel_T", point, 8).egf_coefficients()
    for n in range(9):
        t_poly = triangle_poly(stat_table(n, KIND_EXTERIOR_PDD), "T")
        assert egf[n] == t_poly.eval(point.assignment)


def test_elizalde_noy_series_matches_enumeration():
    from gramcalc.permstat import KIND_EXTERIOR_PDD, stat_table, triangle_poly

    point = EvalPoint({"y": Fraction(13, 4)}, Fraction(15, 4))
    egf = closed_form("elizalde_noy_U", point, 8).egf_coefficients()
    for n in range(9):
        u_poly = triangle_poly(stat_table(n, KIND_EXTERIOR_PDD), "U")
        assert egf[n] == u_poly.eval(point.assignment)


def test_marginal_forms_are_specializations_of_gen_z():
    # The exterior-peak series in x is gen_z at y = z = w = 1, and the
    # proper-double-descent series in y is gen_z at x = z = w = 1.
    order = 12
    gessel = closed_form("gessel_T", EvalPoint({"x": Fraction(3, 4)}, Fraction(1, 2)), order)
    via_gen_z = closed_form(
        "gen_z", EvalPoint({"x": Fraction(3, 4), "y": 1, "z": 1, "w": 1}, 1), order
    )
    assert gessel == via_gen_z

    en = closed_form(
        "elizalde_noy_U", EvalPoint({"y": Fraction(13, 4)}, Fraction(15, 4)), order
    )
    via_gen_z = closed_form(
        "gen_z",
        EvalPoint({"x": 1, "y": Fraction(13, 4), "z": 1, "w": 1}, Fraction(15, 4)),
        order,
    )
    assert en == via_gen_z


def test_marginal_forms_match_specialized_derivatives():
    # Independent of enumeration: evaluating the derivatives of z at the
    # corresponding specialization gives the same counting sequences.
    order = 12
    dz = derive_n(Z, G, order).items
    egf_t = closed_form(
        "gessel_T", EvalPoint({"x": Fraction(3, 4)}, Fraction(1, 2)), order
    ).egf_coefficients()
    point_t = {"x": Fraction(3, 4), "y": 1, "z": 1, "w": 1}
    egf_u = closed_form(
        "elizalde_noy_U", EvalPoint({"y": Fraction(13, 4)}, Fraction(15, 4)), order
    ).egf_coefficients()
    point_u = {"x": 1, "y": Fraction(13, 4), "z": 1, "w": 1}
    for n in range(order + 1):
        assert egf_t[n] == dz[n].eval(point_t)
        assert egf_u[n] == dz[n].eval(point_u)


def test_no_pdd_series_values():
    egf = closed_form("no_pdd_U0", None, 14).egf_coefficients()
    assert egf[:6] == [1, 1, 2, 5, 17, 70]
    assert all(value.denominator == 1 for value in egf)


def test_no_pdd_series_matches_enumeration():
    from gramcalc.permstat import KIND_EXTERIOR_PDD, specialize_triangle, stat_table

    egf = closed_form("no_pdd_U0", None, 8).egf_coefficients()
    for n in range(9):
        rows = dict(specialize_triangle(stat_table(n, KIND_EXTERIOR_PDD), "U"))
        assert egf[n] == rows.get(0, 0)


# -- differential: products and reciprocals against a naive convolution --------------


def naive_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def naive_inverse(c):
    out = [1 / c[0]]
    for n in range(1, len(c)):
        out.append(-sum(c[k] * out[n - k] for k in range(1, n + 1)) / c[0])
    return out


def mixed_rationals(seed, length):
    """Mixed-sign rationals with varied denominators and about a fifth zeros."""
    values = []
    for i in range(length):
        k = (seed * 7919 + i * 104729) % 97
        if k % 5 == 0:
            values.append(Fraction(0))
        else:
            values.append(Fraction((-1) ** k * (k + 1) ** (1 + i % 3), 1 + (k * 13) % 23))
    return values


@pytest.mark.parametrize("order", [0, 1, 60, 75])
def test_rational_mul_and_inverse_match_naive_convolution(order):
    a, b = mixed_rationals(1, order + 1), mixed_rationals(2, order + 1)
    a[0] = Fraction(-3, 7)
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    assert list((sa * sb).coeffs) == naive_mul(a, b)
    assert list(sa.inverse().coeffs) == naive_inverse(a)
    assert all(type(c) is Fraction for c in (sa * sb).coeffs + sa.inverse().coeffs)
    zero = TruncatedSeries([Fraction(0)] * (order + 1))
    assert (sa * zero).coeffs == zero.coeffs


def test_laurent_mul_and_inverse_match_naive_convolution():
    a = [X * Y ** -1 * Fraction(-2, 3), LP(), X + Fraction(1, 2) * Z, W ** -2 - Y, 3 * X * Z]
    b = [Y - Fraction(5, 4) * W, X ** -1, LP(), Fraction(7, 2) * Y * Z, LP()]
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    expected = [LP()] * 5
    for i in range(5):
        for j in range(5 - i):
            expected[i + j] = expected[i + j] + a[i] * b[j]
    assert list((sa * sb).coeffs) == expected
    head = a[0] ** -1
    inverse = [head]
    for n in range(1, 5):
        acc = LP()
        for k in range(1, n + 1):
            acc = acc + a[k] * inverse[n - k]
        inverse.append(-(head * acc))
    assert list(sa.inverse().coeffs) == inverse


# -- randomized multiplicativity ----------------------------------------------------

exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 2), max_size=3)
term_lists = st.lists(st.tuples(st.integers(-4, 4), exponents), max_size=3)


@st.composite
def polys(draw):
    return LP([(tuple(exps.items()), coeff) for coeff, exps in draw(term_lists)])


@settings(max_examples=25, deadline=None)
@given(polys(), polys())
def test_gen_series_multiplicative_random(p, q):
    order = 6
    assert gen_series(p * q, G, order) == gen_series(p, G, order) * gen_series(q, G, order)


exact_scalars = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


@st.composite
def series_and_scalar(draw):
    values = draw(st.sampled_from([exact_scalars, st.one_of(exact_scalars, polys())]))
    return TruncatedSeries(draw(st.lists(values, min_size=1, max_size=6))), draw(values)


@settings(max_examples=60, deadline=None)
@given(series_and_scalar())
def test_scalar_sums_are_sums_with_a_constant_series(case):
    s, c = case
    k = exp_series(0, s.order) * c
    assert s + c == c + s == s + k
    assert s - c == s - k
    assert c - s == k - s
    head, *tail = s.coeffs
    assert (s + c).coeffs == (head + c, *tail)
    assert (c - s).coeffs == (c - head, *(-t for t in tail))
