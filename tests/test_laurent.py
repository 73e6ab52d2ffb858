import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import chain, permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramcalc.cli import main
from gramcalc.grammar import builtin_grammar
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.laurent import _bits, _reduce, derivatives, dot
from gramcalc.gdsl import parse_poly


X, Y, Z, W = (LP.variable(v) for v in "xyzw")
P3 = parse_poly("z*w^3 + 4*x*z^2*w + x*y*z^2")


# -- strategies --------------------------------------------------------------

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(-3, 3), max_size=4)
terms = st.lists(st.tuples(fractions, exponents), max_size=5)


@st.composite
def polys(draw):
    return LP([(tuple(exps.items()), coeff) for coeff, exps in draw(terms)])


nonzero_points = st.fixed_dictionaries(
    {
        v: st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
        for v in "xyzw"
    }
)


# -- construction and canonical form -----------------------------------------

def test_zero_and_one():
    assert LP() == 0
    assert LP({(): 1}) == 1
    assert len(LP({(): 1})) == 1
    assert LP({(("x", 2),): 0}) == 0
    # Zero scalars, zero numerators and zero operands give their values with
    # only the variables that occur.
    for zero in (X * 0, 0 * X, X * Fraction(0), dot([X, LP()], [LP(), Y])):
        assert zero == LP() and zero.variables() == frozenset()
    dense = LP.from_dense("xy", {(1, 0): 0, (0, 1): 2})
    assert dense == 2 * Y and dense.variables() == {"y"}


def test_additive_inverse_cancels():
    assert X + (-X) == 0


def test_sum_reassembles_known_polynomial():
    assert parse_poly("z*w^3 + 4*x*z^2*w") + parse_poly("x*y*z^2") == P3


def test_rational_coefficients_merge():
    assert LP({(("x", 1),): Fraction(2, 3)}) + LP({(("x", 1),): Fraction(1, 3)}) == X


def test_zero_exponents_never_stored():
    assert LP({(("x", 0),): 5}) == LP({(): 5})
    assert (X * X ** -1) == LP({(): 1})


def test_bad_variable_name_rejected():
    with pytest.raises(ValueError):
        LP.variable("2x")
    with pytest.raises(ValueError):
        LP({(("", 1),): 1})


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


def test_constructor_sums_to_lowest_terms():
    # Each monomial's numerators are summed over the lcm of the denominators,
    # and ``_reduce`` divides by the gcd: the fields are in lowest terms.
    x, y = (("x", 1),), (("y", 1),)
    thirds = [(x, Fraction(1, 6)), (y, Fraction(5, 4)), (x, Fraction(1, 3)), (y, Fraction(-1, 4))]
    assert LP(thirds) == Fraction(1, 2) * X + Y
    assert LP([*thirds, (x, Fraction(-1, 2))]) == Y
    assert LP([(x, Fraction(1, 6)), (y, Fraction(1, 10))]) == LP.from_dense("xy", {(1, 0): 5, (0, 1): 3}, 30)


def test_construction_over_many_denominators_takes_no_gcd_chain():
    # Reduced by a gcd of their lcm with every numerator in turn, 6000 terms
    # over distinct 10-digit denominators took 33 s, cubic in the terms.  A
    # gcd with one weighted sum of the numerators now comes first, so the
    # chain runs on small numbers.
    code = (
        "from fractions import Fraction\n"
        "from gramcalc.laurent import LaurentPolynomial\n"
        "terms = [((('x', i),), Fraction(1, 10**9 + 2 * i + 1)) for i in range(6000)]\n"
        "print(len(LaurentPolynomial(terms)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=10,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "6000\n", "")


# A factor of 100 digits shared by the denominator and the numerators.
_SHARED = 10**99 + 289


@st.composite
def reductions(draw):
    # Small numerators, so that weighted sums of them are often 0, times a
    # factor that the denominator may share.
    factor = draw(st.sampled_from([1, 2, 6, _SHARED, 6 * _SHARED]))
    values = draw(st.lists(st.integers(-4, 4), max_size=5))
    den = draw(st.sampled_from([1, 2, 3, 4, 12, _SHARED, 2 * _SHARED**2]))
    return [v * factor for v in values], den


@settings(max_examples=150, deadline=None)
@given(reductions())
@example(([2, -1], 3))
@example(([2 * _SHARED, -_SHARED], 3 * _SHARED))
@example(([6 * _SHARED, 10 * _SHARED, 0], 4 * _SHARED))
@example(([0, 0], 12))
def test_reduce_divides_by_the_gcd_in_any_order(case):
    # The gcd is that of the denominator and every numerator, whatever the
    # order of the dict and whether a weighted sum of its values is 0.
    values, den = case
    g = gcd(den, *values)
    names = ("x",) if any(values) else ()
    for ordered in permutations(enumerate(values, 1)):
        num = {(e,): c for e, c in ordered}
        reduced = {k: c // g for k, c in num.items() if c}
        assert _reduce(("x",), num, den) == (names, reduced, den // g)


def test_a_step_reduces_over_a_large_denominator_from_a_small_gcd(monkeypatch):
    # A chain of gcds from the 86 000-digit denominator of this step shrank
    # it a few denominators at a time, in 0.5 s in one order of the sums and
    # 1.0 s in another.  From its gcd with one weighted sum of the
    # numerators, the chain runs on small numbers in any order.
    import gramcalc.laurent as laurent_module

    n = 10**4299
    start = parse_poly(" + ".join(f"1/{n + 2 * i + 1}*x^{i}*z^{20 - i}" for i in range(20)))
    monkeypatch.setattr(laurent_module, "MAX_DERIVE_WORK", 10**9)
    steps = derivatives(start, dict(builtin_grammar("paper_G").rules))
    next(steps)
    calls = []

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(laurent_module, "gcd", counted)
    first = next(steps)
    chains = [args for args in calls if len(args) > 2]
    assert len(chains) == 1 and len(chains[0]) == len(first) + 1
    assert abs(chains[0][0]) < 2**64


def test_constructor_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        LP({(): 0.1})
    with pytest.raises(TypeError, match="float"):
        LP({(("x", 1),): 0.1})
    with pytest.raises(TypeError):
        X * 0.5
    with pytest.raises(TypeError):
        X + 0.5



def test_from_dense_reads_exponents_in_the_given_order():
    assert LP.from_dense("yx", {(2, 1): 3}, 2) == Fraction(3, 2) * X * Y ** 2


@pytest.mark.parametrize(
    "variables, key", [(("x",), (1.5,)), (("x",), (1.0,)), (("x",), ("1",)), (("y", "x"), (1.5, 1))]
)
def test_from_dense_refuses_a_non_integer_exponent(variables, key):
    # As LaurentPolynomial() does: x^1.5 was once built and printed.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        LP.from_dense(variables, {key: 1})


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
    assert X * X ** -1 == LP({(): 1})
    assert (Z * X ** -1) * X == Z


def test_difference_of_squares_with_fresh_variable():
    s = LP.variable("s")
    assert (W + Y - s) * (W + Y + s) == (W + Y) ** 2 - s ** 2


def test_power_cases():
    assert (W - Y) ** 0 == LP({(): 1})
    assert (X * Z) ** -1 == X ** -1 * Z ** -1
    assert (W + Y) ** 2 == W * W + 2 * W * Y + Y * Y


def test_negative_power_of_sum_rejected():
    with pytest.raises(ValueError):
        (X + Y) ** -1


def test_scalar_arithmetic():
    assert 2 * X == X + X
    assert Fraction(1, 2) * (X + X) == X
    assert X + 1 == X + LP({(): 1})
    assert 1 - X == LP({(): 1}) - X


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
    # A float is refused with the same message whether or not its variable occurs.
    message = r"^expected an exact scalar \(int or Fraction\), got float 0\.5$"
    with pytest.raises(TypeError, match=message):
        Z.eval({"x": 0.5, "z": 1})
    with pytest.raises(TypeError, match=message):
        X.eval({"x": 0.5})


def test_eval_reads_ints_and_fractions_exactly():
    p = Fraction(3, 4) * X ** 2 * Z ** -1 - 5 * Y
    for point in (
        {"x": 2, "y": Fraction(1, 3), "z": -3},
        {"x": Fraction(-2, 7), "y": True, "z": Fraction(9, 4)},
        {"x": Fraction(4, 2), "y": 0, "z": 1, "w": 3},
    ):
        value = p.eval(point)
        assert type(value) is Fraction
        x, y, z = (Fraction(point[v]) for v in "xyz")
        assert value == Fraction(3, 4) * x ** 2 / z - 5 * y


# -- renaming -------------------------------------------------------------------

def test_subst_identity():
    assert P3.subst({}) == P3
    assert P3.subst({v: v for v in "xyzw"}) == P3


@pytest.mark.parametrize("target", ["1x", "x y", "", X, 1, None])
def test_subst_rejects_a_target_that_is_not_a_name(target):
    with pytest.raises(ValueError, match="invalid variable name"):
        P3.subst({"x": target})
    with pytest.raises(ValueError, match="invalid variable name"):
        LP({(): 1}).subst({"q": target})


# -- formatting and serialization ----------------------------------------------

def test_format_conventions():
    assert LP().format() == "0"
    assert LP({(): 7}).format() == "7"
    assert LP({(): Fraction(-2, 3)}).format() == "-2/3"
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


def cli_json(p):
    """The JSON terms ``gramcalc derive`` prints for ``p``, as its D^0 under paper_G."""
    argv = ["derive", "--grammar", "paper_G", f"--start={p}", "--n", "0", "--format", "json"]
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return json.loads(out.getvalue())["derivative"]


def test_json_shape():
    assert cli_json(parse_poly("-2/3*x^-1*y^2 + z")) == [
        {"coeff": "1", "exps": {"z": 1}},
        {"coeff": "-2/3", "exps": {"x": -1, "y": 2}},
    ]


def test_format_parses_back():
    p = parse_poly("-2/3*x^-1*y^2 + z - 5*w")
    assert parse_poly(p.format()) == p


@settings(max_examples=80)
@given(polys(), st.permutations("wxyz"))
def test_text_and_json_show_the_sorted_terms(a, var_order):
    # The CLI bounds and prints one ``sorted_terms()`` list, so text and JSON
    # must show its terms, in its order, with its coefficients.
    terms = a.sorted_terms()
    obj = cli_json(a)
    assert [(tuple(sorted(t["exps"].items())), Fraction(t["coeff"])) for t in obj] == terms
    text = a.format(var_order)
    if not terms:
        assert (text, obj) == ("0", [])
        return
    shown = re.split(r" (?=[+-] )", text)
    assert len(shown) == len(terms)
    for piece, (mono, coeff) in zip(shown, terms):
        piece = piece.replace("+ ", "", 1).replace("- ", "-", 1)
        assert parse_poly(piece) == LP({mono: coeff})
        names = re.findall(r"[a-z]", piece)
        assert names == sorted(names, key=var_order.index)


def test_bit_lengths_of_coefficients_and_exponents():
    # ``derivatives`` prices a step by the bit length of the largest numerator
    # or denominator, and of the largest exponent, in absolute value.
    cases = [
        (LP(), 1, 0),
        (LP({(): -5}), 3, 0),
        (LP({(("x", 3),): Fraction(1, 2**80)}), 81, 2),
        (LP({(("x", 1),): -(2**64)}), 65, 1),
        (LP({(("x", 1), ("y", -(2**70))): 3}), 2, 71),
    ]
    for p, coefficient_bits, exponent_bits in cases:
        assert _bits([p._den], p._num.values()) == coefficient_bits
        assert _bits(chain.from_iterable(p._num)) == exponent_bits


def test_a_negative_number_is_charged_by_its_size(monkeypatch):
    # Under eulerian a one-term step forms one product over x and y: 2 + 8
    # units, plus one for a coefficient of 64 bits or more, whatever its sign.
    import gramcalc.laurent as laurent_module

    monkeypatch.setattr(laurent_module, "MAX_DERIVE_WORK", 0)
    rules = dict(builtin_grammar("eulerian").rules)
    for coeff, charge in [(1, 10), (2**64, 11), (-(2**64), 11), (-(2**63) + 1, 10)]:
        steps = derivatives(LP({(("x", 1),): coeff}), rules)
        next(steps)
        with pytest.raises(ValueError, match=f"order 1 needs up to {charge} units"):
            next(steps)


# -- operators outside the ring --------------------------------------------------

def test_unary_plus_is_identity():
    assert +P3 is P3


def test_foreign_operands_are_refused():
    with pytest.raises(TypeError):
        "a" - P3
    with pytest.raises(TypeError):
        P3 - "a"
    with pytest.raises(TypeError):
        P3 ** 1.5
    assert (P3 == "x") is False
    assert (P3 != "x") is True


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
    assert a + LP() == a
    assert a - a == 0
    assert a * LP({(): 1}) == a


@settings(max_examples=60)
@given(polys(), polys(), nonzero_points)
def test_eval_is_ring_morphism(a, b, point):
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)


@given(fractions.filter(bool), exponents)
def test_single_term_inverse(coeff, exps):
    m = LP({tuple(exps.items()): coeff})
    assert m * m ** -1 == LP({(): 1})


@settings(max_examples=60)
@given(polys())
def test_format_round_trip(a):
    assert parse_poly(a.format()) == a
