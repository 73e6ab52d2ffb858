from collections.abc import Hashable
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcalc.gdsl import parse_grammar, parse_poly
from gramcalc.grammar import (
    BUILTIN_GRAMMAR_NAMES,
    Grammar,
    builtin_grammar,
    derive,
    derive_n,
    iter_derive,
)
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.laurent import dot

X, Y, Z, W = (LP.variable(v) for v in "xyzw")
G = builtin_grammar("paper_G")


def test_derive_base_cases():
    assert derive(Z, G) == Z * W
    assert derive(LP({(): 7}), G) == 0
    assert derive(X ** -1, G) == -(X ** -1 * Y)
    assert derive(W - Y, G) == 0
    assert derive((W + Y) ** 2 - 4 * X * Z, G) == 0


def test_derive_sequence_structure():
    seq = derive_n(Z, G, 5)
    assert seq.items[0] == Z
    assert len(seq.items) == 6
    for n in range(5):
        assert seq.items[n + 1] == derive(seq.items[n], G)


def test_fourth_derivatives_match_known_polynomials():
    assert derive_n(Z, G, 4).items[4] == parse_poly(
        "z*w^4 + 11*x*z^2*w^2 + 6*x*y*z^2*w + 5*x^2*z^3 + x*y^2*z^2"
    )
    assert derive_n(Y, G, 4).items[4] == parse_poly(
        "x*z*w^3 + 3*x*y*z*w^2 + 8*x^2*z^2*w + 3*x*y^2*z*w + 8*x^2*y*z^2 + x*y^3*z"
    )


def test_inverse_start_word_stays_closed_form():
    zx = Z * X ** -1
    assert derive_n(zx, G, 3).items[3] == zx * (W - Y) ** 3


def leibniz_holds(u, v, g, n):
    """D^n(uv) equals the binomial convolution of the factors' derivatives."""
    direct = derive_n(u * v, g, n).items[n]
    du = derive_n(u, g, n).items
    dv = derive_n(v, g, n).items
    return direct == dot([comb(n, k) * du[k] for k in range(n + 1)], dv[::-1])


def test_leibniz_examples():
    assert leibniz_holds(Z, W, G, 3)
    assert leibniz_holds(LP({(): 1}), parse_poly("x*y^2 - 3*z"), G, 4)


def test_derive_order_limits():
    with pytest.raises(ValueError):
        derive_n(Z, G, -1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        derive_n(Z, G, 26)
    assert len(derive_n(Z, G, 25).items) == 26


@pytest.mark.parametrize("n", [2.0, 2.5, "2"])
def test_derive_refuses_a_non_integer_order(n):
    # 2.0 once failed inside islice, with a message about its stop argument.
    for derive_to in (lambda: list(iter_derive(Z, G, n)), lambda: derive_n(Z, G, n)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            derive_to()


def test_derive_work_limit_is_exact(monkeypatch):
    import gramcalc.laurent as laurent_module

    # eulerian rules each have one term, and each request runs over x and y,
    # so a step from D^k(x) is charged len(D^k(x)) * |vars of D^k(x)| * (2 + 8).
    g = builtin_grammar("eulerian")
    items = derive_n(X, g, 5).items
    work = sum(len(p) * len(p.variables()) * 10 for p in items[:5])
    monkeypatch.setattr(laurent_module, "MAX_DERIVE_WORK", work)
    assert derive_n(X, g, 5).items == items
    monkeypatch.setattr(laurent_module, "MAX_DERIVE_WORK", work - 1)
    with pytest.raises(ValueError) as exc:
        derive_n(X, g, 5)
    assert str(exc.value) == (
        f"derivative order 5 needs up to {work} units of work, "
        f"over the limit {work - 1} (grammar.MAX_DERIVE_WORK)"
    )
    assert derive_n(X, g, 4).items == items[:5]
    assert derive(X, g) == items[1]
    # The lazy sequence ``verify`` reads charges the same work, step by step:
    # it serves every order below the refused one and refuses that one alike.
    from gramcalc.verify import Derivatives

    lazy = Derivatives(X, g)
    assert [lazy[k] for k in range(5)] == list(items[:5])
    with pytest.raises(ValueError) as lazy_exc:
        lazy[5]
    assert str(lazy_exc.value) == str(exc.value)


def test_derive_work_counts_the_size_of_the_numbers():
    # Each step multiplies 4300-digit exponents into coefficients that grow by
    # as much again.  Counted by terms alone, the 25 steps were charged 1.1 %
    # of the limit and took 20 s before the CLI refused to print the result.
    e = "9" * 4300
    start = parse_poly(f"z^{e}*x^{e} + y^{e}*w^{e}")
    with pytest.raises(ValueError) as exc:
        derive_n(start, G, 25)
    assert str(exc.value) == (
        "derivative order 11 needs up to 32747616 units of work, "
        "over the limit 30000000 (grammar.MAX_DERIVE_WORK)"
    )


def test_derive_work_counts_the_reduction_over_a_large_denominator():
    # Each step reduces its result over the lcm of 20 distinct 4300-digit
    # denominators (0.08 s), and printing D^n takes one gcd over it per term
    # (0.6 s at order 1, 6 s at order 7).  Charged once per step, orders up
    # to 7 were accepted and order 7 took 7.2 s; priced per product at
    # 5.6 ns per squared word, the first step is refused.
    n = 10**4299
    start = parse_poly(" + ".join(f"1/{n + 2 * i + 1}*x^{i}*z^{20 - i}" for i in range(20)))
    with pytest.raises(ValueError) as exc:
        derive_n(start, G, 25)
    assert str(exc.value) == (
        "derivative order 1 needs up to 44422160 units of work, "
        "over the limit 30000000 (grammar.MAX_DERIVE_WORK)"
    )


def test_builtin_rules():
    assert dict(G.rules)["w"] == X * Z
    assert dict(G.rules)["x"] == X * Y
    assert dict(builtin_grammar("eulerian").rules)["x"] == X * Y
    assert dict(builtin_grammar("andre").rules)["y"] == X
    assert dict(builtin_grammar("ramanujan").rules)["x"] == LP({(("x", 3), ("y", 1)): 1})
    assert dict(builtin_grammar("exterior_peak").rules)["y"] == X * X
    assert derive(X, builtin_grammar("ramanujan")) == LP({(("x", 3), ("y", 1)): 1})


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown grammar"):
        builtin_grammar("nope")


def test_grammar_validation():
    with pytest.raises(ValueError, match="undeclared variable"):
        Grammar(rules={"x": X * LP.variable("t")})
    Grammar(rules={"x": X * LP.variable("t")}, inert=frozenset({"t"}))
    with pytest.raises(ValueError, match="both ruled and inert"):
        Grammar(rules={"x": X}, inert=frozenset({"x"}))
    with pytest.raises(ValueError, match="invalid variable name '1x'"):
        Grammar({"1x": X})


def test_inert_names_are_checked_and_frozen():
    # Inert names once skipped the name check, and the set or list given was kept.
    with pytest.raises(ValueError, match="invalid variable name '1 bad'"):
        Grammar({"x": X}, inert={"1 bad"})
    inert = Grammar({"x": X}, inert={"t"}).inert
    assert type(inert) is frozenset and inert == {"t"}
    assert Grammar({"x": X}, inert=["t", "t"]).inert == frozenset({"t"})


def test_inert_string_is_refused_not_split_into_letters():
    # A str was read as its letters: inert="tu" declared the two constants t and u.
    t, u = LP.variable("t"), LP.variable("u")
    with pytest.raises(TypeError, match="inert must be a collection of names, not the str 'tu'"):
        Grammar({"x": X * t * u}, inert="tu")
    assert Grammar({"x": X * LP.variable("tu")}, inert=("tu",)).inert == {"tu"}


def test_unruled_variables_are_constants():
    s = LP.variable("s")
    g = Grammar(rules={"x": X * LP.variable("s")}, inert=frozenset({"s"}))
    assert derive(s, g) == 0
    assert derive(s * X, g) == s * (X * s)


def test_relabeling_collapses_to_classical_grammars():
    to_eulerian = {"z": "x", "y": "x", "x": "y", "w": "y"}
    eulerian = builtin_grammar("eulerian")
    for var, image in G.rules:
        assert image.subst(to_eulerian) == dict(eulerian.rules)[to_eulerian[var]]

    to_exterior = {"z": "x", "w": "y"}
    exterior = builtin_grammar("exterior_peak")
    for var, image in G.rules:
        assert image.subst(to_exterior) == dict(exterior.rules)[to_exterior.get(var, var)]


def test_relabeling_commutes_with_derivation():
    # The variable collapse sends each derivative of z to the corresponding
    # derivative of x under the collapsed grammar.
    to_exterior = {"z": "x", "w": "y"}
    exterior = builtin_grammar("exterior_peak")
    gz = derive_n(Z, G, 6).items
    ex = derive_n(X, exterior, 6).items
    for n in range(7):
        assert gz[n].subst(to_exterior) == ex[n]


def test_parity_closed_form_for_double_inverse():
    m = X ** -1 * Z ** -1
    delta = (W + Y) ** 2 - 4 * X * Z
    items = derive_n(m, G, 8).items
    assert items[1] == -(m * (W + Y))
    assert items[2] == m * ((W + Y) ** 2 - 2 * X * Z)
    for k in range(4):
        assert items[2 * k + 1] == -(m * (W + Y)) * delta ** k
        if 2 * k + 2 <= 8:
            assert items[2 * k + 2] == m * ((W + Y) ** 2 - 2 * X * Z) * delta ** k


def test_grammar_is_declared_unhashable():
    assert not isinstance(G, Hashable)
    with pytest.raises(TypeError):
        hash(G)


# -- differential: derive_n against the textbook product rule ---------------------


def reference_derive(p, g):
    """One derivative by the product rule, written with polynomial operators."""
    result = LP()
    for mono, coeff in p.items():
        for i, (name, exp) in enumerate(mono):
            image = dict(g.rules).get(name)
            if image is None:
                continue
            rest = mono[:i] + mono[i + 1:] + ((name, exp - 1),)
            result = result + LP({rest: coeff * exp}) * image
    return result


def assert_matches_reference(p, g, n):
    items = derive_n(p, g, n).items
    expected = p
    assert items[0] == p
    for k in range(1, n + 1):
        expected = reference_derive(expected, g)
        assert items[k] == expected, f"order {k}"
        assert all(type(c) is Fraction and c for _, c in items[k].items())


RATIONAL_GRAM = """\
vars: a b
inert: t
rule a -> 2/3*a*b - 1/2*t
rule b -> 5/4*a^-1*b + 3/7*b^2*t
start: -3/5*a^-1*b^2 + 1/6*a*t
n: 6
"""


@pytest.mark.parametrize("name", BUILTIN_GRAMMAR_NAMES)
def test_derive_n_matches_product_rule_on_builtins(name):
    g = builtin_grammar(name)
    for var, _ in g.rules:
        assert_matches_reference(LP.variable(var), g, 7)
    variables = sorted(dict(g.rules))
    word = LP({((variables[0], -2), (variables[-1], 1)): Fraction(-7, 3)})
    word = word + LP({((variables[-1], -1),): Fraction(5, 4)}) + 2
    assert_matches_reference(word, g, 6)


def test_derive_n_matches_product_rule_with_rational_rules_and_inert():
    g = parse_grammar(RATIONAL_GRAM)
    assert_matches_reference(g.start, g, g.default_n)
    assert_matches_reference(LP.variable("t"), g, 2)
    assert_matches_reference(LP.variable("a") ** -3 * Fraction(9, 2), g, 4)


def test_derive_n_order_zero_and_zero_word():
    word = parse_poly("-2/3*x^-1*z^2 + 5*y*w^-2")
    assert derive_n(word, G, 0).items == (word,)
    assert derive_n(LP(), G, 3).items == (LP(),) * 4
    assert derive(word, G) == reference_derive(word, G)


# -- properties ----------------------------------------------------------------

exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 2), max_size=4)
term_lists = st.lists(
    st.tuples(st.integers(-6, 6), exponents), max_size=4
)


@st.composite
def polys(draw):
    return LP([(tuple(exps.items()), coeff) for coeff, exps in draw(term_lists)])


@given(polys(), polys())
def test_derive_is_linear_and_leibniz(a, b):
    assert derive(a + b, G) == derive(a, G) + derive(b, G)
    assert derive(a * b, G) == a * derive(b, G) + b * derive(a, G)


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), st.integers(0, 4))
def test_leibniz_identity_random(u, v, n):
    assert leibniz_holds(u, v, G, n)


@given(st.integers(-4, 4).filter(bool), exponents)
def test_inverse_rule(coeff, exps):
    u = LP({tuple((k, v) for k, v in exps.items() if v) or (("x", 1),): coeff})
    assert derive(u * u ** -1, G) == 0
