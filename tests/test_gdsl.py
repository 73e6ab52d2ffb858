import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcalc import gdsl
from gramcalc.gdsl import (
    GrammarSpec,
    GrammarSyntaxError,
    format_grammar,
    parse_grammar,
    parse_poly,
)
from gramcalc.grammar import builtin_grammar
from gramcalc.laurent import LaurentPolynomial as LP

MAIN_GRAMMAR_TEXT = """\
# four-variable grammar
vars: x y z w
rule x -> x*y
rule y -> x*z
rule z -> z*w
rule w -> x*z
start: z
n: 8
"""


def test_parse_main_grammar():
    spec = parse_grammar(MAIN_GRAMMAR_TEXT)
    assert spec.declared_vars == ("x", "y", "z", "w")
    assert spec.to_grammar().rules == builtin_grammar("paper_G").rules
    assert spec.start == LP.variable("z")
    assert spec.default_n == 8


@pytest.mark.parametrize("join", [" + ", "*", " - 2*"])
def test_parse_poly_variable_count_is_bounded(join):
    names = [f"v{i}" for i in range(65)]
    assert len(parse_poly(join.join(names[:64])).variables()) == 64
    limit = r"more than 64 variables \(gdsl.MAX_VARIABLES\)"
    with pytest.raises(GrammarSyntaxError, match=limit) as exc:
        parse_poly(join.join(names))
    assert exc.value.column == len(join.join(names[:64]) + join) + 1


def test_grammar_variable_count_is_bounded():
    names = " ".join(f"v{i}" for i in range(64))
    assert len(parse_grammar(f"inert: {names}\n").inert_vars) == 64
    with pytest.raises(GrammarSyntaxError, match="more than 64 variables") as exc:
        parse_grammar(f"vars: x\ninert: {names}\nrule x -> x\n")
    # x and v0..v62 make 64, so v63 is one too many
    assert (exc.value.line, exc.value.column) == (2, f"inert: {names}".index("v63") + 1)


def test_self_rule_is_valid():
    spec = parse_grammar("vars: x\nrule x -> x\n")
    assert spec.rules == (("x", LP.variable("x")),)


def test_undeclared_rule_variable():
    with pytest.raises(GrammarSyntaxError, match="undeclared variable 'q'") as exc:
        parse_grammar("vars: x\nrule q -> x\n")
    assert exc.value.line == 2


def test_undeclared_image_variable():
    with pytest.raises(GrammarSyntaxError, match="undeclared variable 'u'") as exc:
        parse_grammar("vars: x\nrule x -> x*u\n")
    assert exc.value.line == 2
    assert exc.value.column == 13


def test_duplicate_rule():
    text = "vars: x\nrule x -> x\nrule x -> 2*x\n"
    with pytest.raises(GrammarSyntaxError, match="duplicate rule.*'x'"):
        parse_grammar(text)


def test_duplicate_declaration():
    with pytest.raises(GrammarSyntaxError, match="declared twice"):
        parse_grammar("vars: x x\nrule x -> x\n")


def test_zero_denominator():
    with pytest.raises(GrammarSyntaxError, match="zero denominator"):
        parse_grammar("vars: x\nrule x -> 1/0*x\n")


def test_missing_rule_for_declared_variable():
    with pytest.raises(GrammarSyntaxError, match="'y' has no rule"):
        parse_grammar("vars: x y\nrule x -> x*y\n")


def test_syntax_error_carries_location():
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar("vars: x\nrule x -> x*\n")
    assert exc.value.line == 2
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar("vars: x\nrule x -> x + @\n")
    assert exc.value.line == 2
    assert exc.value.column == 15


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("vars x\n", "expected ':', found 'x'", 1, 6),
        ("vars: x\nrule x -> x*\n", "expected 'ident' at end of line", 2, 13),
        ("vars: x\nrule x ->\n", "expected a polynomial at end of line", 2, 10),
        ("vars: x\nrule x -> x y\n", "expected '+' or '-' between terms, found 'y'", 2, 13),
        ("vars: x\nrule x -> x\nn: 4 5\n", "trailing input '5'", 3, 6),
        ("vars: x\nrule x -> x\nstart: x\nstart: x\n", "duplicate 'start:' line", 4, 1),
        ("vars: x\nrule x -> x\nn: 2\n  n: 3\n", "duplicate 'n:' line", 4, 3),
        (
            "vars: x\nrules x -> x\n",
            "expected 'vars:', 'inert:', 'rule', 'start:' or 'n:', found 'rules'",
            2,
            1,
        ),
    ],
    ids=[
        "expected_token", "token_at_end", "poly_at_end", "between_terms", "trailing",
        "duplicate_start", "duplicate_n", "unknown_line",
    ],
)
def test_grammar_rejections_carry_message_and_location(text, message, line, column):
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("", "expected a polynomial at end of line", 1),
        ("x +", "expected 'ident' at end of line", 4),
        ("x y", "expected '+' or '-' between terms, found 'y'", 3),
        ("x ^ y", "expected 'int', found 'y'", 5),
    ],
    ids=["poly_at_end", "token_at_end", "between_terms", "expected_token"],
)
def test_poly_rejections_carry_message_and_location(text, message, column):
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"line 1, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (1, column)


LONG = "9" * 4301
LONG_LITERAL = "more than 4300 digits (gdsl.MAX_LITERAL_DIGITS)"


@pytest.mark.parametrize(
    "text, line, column",
    [
        (f"vars: x\nrule x -> {LONG}*x\n", 2, 11),
        (f"vars: x\nrule x -> 1/{LONG}*x\n", 2, 13),
        (f"vars: x\nrule x -> x^-{LONG}\n", 2, 14),
        (f"vars: x\nrule x -> x\nn: {LONG}\n", 3, 4),
    ],
    ids=["numerator", "denominator", "exponent", "default_n"],
)
def test_long_literal_rejected_at_its_token(text, line, column):
    # Without the bound, int() of such a literal raises a bare ValueError
    # (CPython's own 4300-digit limit) or, where there is none, takes
    # seconds near the 1 MiB file bound.
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar(text)
    assert str(exc.value) == f"line {line}, column {column}: {LONG_LITERAL}"


def test_long_exponent_in_poly_rejected_at_its_token():
    assert gdsl.MAX_LITERAL_DIGITS == 4300
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_poly("x^" + LONG)
    assert str(exc.value) == f"line 1, column 3: {LONG_LITERAL}"


def test_literal_at_the_digit_limit_parses():
    top = "9" * 4300
    p = parse_poly(f"{top}/{top}*x^-{top} + 1/{top}")
    assert p.coefficient({"x": 1 - 10 ** 4300}) == 1
    assert p.coefficient({}) * (10 ** 4300 - 1) == 1
    spec = parse_grammar(f"vars: x\nrule x -> x\nn: {top}\n")
    assert spec.default_n == 10 ** 4300 - 1


def test_juxtaposition_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_poly("2x")
    with pytest.raises(GrammarSyntaxError):
        parse_poly("x y")


def test_parentheses_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_poly("(x + y)")


def test_inert_variables_usable_in_images():
    spec = parse_grammar("vars: x\ninert: t\nrule x -> t*x\n")
    assert spec.inert_vars == ("t",)
    g = spec.to_grammar()
    assert g.inert == frozenset({"t"})


def test_round_trip_main_grammar():
    spec = parse_grammar(MAIN_GRAMMAR_TEXT)
    assert parse_grammar(format_grammar(spec)) == spec


def test_two_line_document_for_inert_only_spec():
    spec = GrammarSpec(declared_vars=(), inert_vars=("t",))
    text = format_grammar(spec)
    assert text == "vars:\ninert: t\n"
    assert parse_grammar(text) == spec


def test_minus_one_coefficient_formats_bare():
    spec = GrammarSpec(
        declared_vars=("x",),
        rules=(("x", LP.term(-1, {"x": 1})),),
    )
    assert "rule x -> -x" in format_grammar(spec)
    assert "-1*x" not in format_grammar(spec)


def test_poly_syntax_directly():
    from fractions import Fraction

    p = parse_poly("-2/3*x^-1*y^2 + z")
    assert p.coefficient({"x": -1, "y": 2}) == Fraction(-2, 3)
    assert p.coefficient({"z": 1}) == 1
    assert len(p) == 2
    assert parse_poly("0").is_zero()
    assert parse_poly("7") == LP.constant(7)
    assert parse_poly("x^0") == LP.one()
    assert parse_poly("+x") == LP.variable("x")


# -- round-trip property over generated specs ---------------------------------

names = st.sampled_from(["x", "y", "z", "w", "a", "b"])
images = st.lists(
    st.tuples(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        st.dictionaries(names, st.integers(-2, 3), max_size=3),
    ),
    max_size=3,
)


@st.composite
def specs(draw):
    declared = tuple(sorted(draw(st.sets(names, min_size=1, max_size=4))))
    pool = set(declared)
    rules = []
    for var in declared:
        poly = LP.zero()
        for coeff, exps in draw(images):
            poly = poly + LP.term(coeff, {k: v for k, v in exps.items() if k in pool})
        rules.append((var, poly))
    start = None
    if draw(st.booleans()):
        start = LP.variable(draw(st.sampled_from(declared)))
    default_n = draw(st.one_of(st.none(), st.integers(0, 12)))
    return GrammarSpec(
        declared_vars=declared, rules=tuple(rules), start=start, default_n=default_n
    )


@settings(max_examples=60)
@given(specs())
def test_round_trip_generated_specs(spec):
    assert parse_grammar(format_grammar(spec)) == spec
