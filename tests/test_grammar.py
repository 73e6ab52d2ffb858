from collections.abc import Hashable
from fractions import Fraction

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
    leibniz_check,
)
from gramcalc.laurent import LaurentPolynomial as LP

X, Y, Z, W = (LP.variable(v) for v in "xyzw")
G = builtin_grammar("paper_G")


def test_derive_base_cases():
    assert derive(Z, G) == Z * W
    assert derive(LP.constant(7), G).is_zero()
    assert derive(X ** -1, G) == -(X ** -1 * Y)
    assert derive(W - Y, G).is_zero()
    assert derive((W + Y) ** 2 - 4 * X * Z, G).is_zero()


def test_derive_sequence_structure():
    seq = derive_n(Z, G, 5)
    assert seq.items[0] == Z
    assert seq.order() == 5
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


def test_leibniz_examples():
    assert leibniz_check(Z, W, G, 3)
    assert leibniz_check(LP.one(), parse_poly("x*y^2 - 3*z"), G, 4)


def test_derive_order_limits():
    with pytest.raises(ValueError):
        derive_n(Z, G, -1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        derive_n(Z, G, 26)
    assert derive_n(Z, G, 25).order() == 25


def test_derive_work_limit_is_exact(monkeypatch):
    import gramcalc.grammar as grammar_module

    # eulerian rules each have one term, and each request runs over x and y,
    # so a step from D^k(x) is charged len(D^k(x)) * |vars of D^k(x)| * (2 + 8).
    g = builtin_grammar("eulerian")
    items = derive_n(X, g, 5).items
    work = sum(len(p) * len(p.variables()) * 10 for p in items[:5])
    monkeypatch.setattr(grammar_module, "MAX_DERIVE_WORK", work)
    assert derive_n(X, g, 5).items == items
    monkeypatch.setattr(grammar_module, "MAX_DERIVE_WORK", work - 1)
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


def test_builtin_rules():
    assert G.rules["w"] == X * Z
    assert G.rules["x"] == X * Y
    assert builtin_grammar("eulerian").rules["x"] == X * Y
    assert builtin_grammar("andre").rules["y"] == X
    assert builtin_grammar("ramanujan").rules["x"] == LP.term(1, {"x": 3, "y": 1})
    assert builtin_grammar("exterior_peak").rules["y"] == X * X
    assert derive(X, builtin_grammar("ramanujan")) == LP.term(1, {"x": 3, "y": 1})


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


def test_unruled_variables_are_constants():
    s = LP.variable("s")
    g = Grammar(rules={"x": X * LP.variable("s")}, inert=frozenset({"s"}))
    assert derive(s, g).is_zero()
    assert derive(s * X, g) == s * (X * s)


def test_relabeling_collapses_to_classical_grammars():
    to_eulerian = {"z": X, "y": X, "x": Y, "w": Y}
    renamed = {"z": "x", "y": "x", "x": "y", "w": "y"}
    eulerian = builtin_grammar("eulerian")
    for var, image in G.rules.items():
        assert image.subst(to_eulerian) == eulerian.rules[renamed[var]]

    to_exterior = {"z": X, "w": Y}
    renamed = {"z": "x", "x": "x", "w": "y", "y": "y"}
    exterior = builtin_grammar("exterior_peak")
    for var, image in G.rules.items():
        assert image.subst(to_exterior) == exterior.rules[renamed[var]]


def test_relabeling_commutes_with_derivation():
    # The variable collapse sends each derivative of z to the corresponding
    # derivative of x under the collapsed grammar.
    to_exterior = {"z": X, "w": Y}
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


def test_grammar_json_shape():
    obj = G.to_json_obj()
    assert obj["name"] == "paper_G"
    assert sorted(obj["rules"]) == ["w", "x", "y", "z"]
    assert obj["rules"]["z"] == [{"coeff": "1", "exps": {"w": 1, "z": 1}}]
    assert obj["inert"] == []


# -- differential: derive_n against the textbook product rule ---------------------


def reference_derive(p, g):
    """One derivative by the product rule, written with polynomial operators."""
    result = LP.zero()
    for mono, coeff in p.items():
        for i, (name, exp) in enumerate(mono):
            image = g.rules.get(name)
            if image is None:
                continue
            rest = dict(mono[:i] + mono[i + 1:])
            rest[name] = exp - 1
            result = result + LP.term(coeff * exp, rest) * image
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
    for var in g.rules:
        assert_matches_reference(LP.variable(var), g, 7)
    variables = sorted(g.rules)
    word = LP.term(Fraction(-7, 3), {variables[0]: -2, variables[-1]: 1})
    word = word + LP.term(Fraction(5, 4), {variables[-1]: -1}) + 2
    assert_matches_reference(word, g, 6)


def test_derive_n_matches_product_rule_with_rational_rules_and_inert():
    spec = parse_grammar(RATIONAL_GRAM)
    g = spec.to_grammar()
    assert_matches_reference(spec.start, g, spec.default_n)
    assert_matches_reference(LP.variable("t"), g, 2)
    assert_matches_reference(LP.variable("a") ** -3 * Fraction(9, 2), g, 4)


def test_derive_n_order_zero_and_zero_word():
    word = parse_poly("-2/3*x^-1*z^2 + 5*y*w^-2")
    assert derive_n(word, G, 0).items == (word,)
    assert derive_n(LP.zero(), G, 3).items == (LP.zero(),) * 4
    assert derive(word, G) == reference_derive(word, G)


# -- properties ----------------------------------------------------------------

exponents = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 2), max_size=4)
term_lists = st.lists(
    st.tuples(st.integers(-6, 6), exponents), max_size=4
)


@st.composite
def polys(draw):
    result = LP.zero()
    for coeff, exps in draw(term_lists):
        result = result + LP.term(coeff, exps)
    return result


@given(polys(), polys())
def test_derive_is_linear_and_leibniz(a, b):
    assert derive(a + b, G) == derive(a, G) + derive(b, G)
    assert derive(a * b, G) == a * derive(b, G) + b * derive(a, G)


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), st.integers(0, 4))
def test_leibniz_identity_random(u, v, n):
    assert leibniz_check(u, v, G, n)


@given(st.integers(-4, 4).filter(bool), exponents)
def test_inverse_rule(coeff, exps):
    u = LP.term(coeff, {k: v for k, v in exps.items() if v} or {"x": 1})
    assert derive(u * u ** -1, G).is_zero()
