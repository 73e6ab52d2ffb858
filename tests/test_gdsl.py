from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gdsl_reference import GrammarSpec, format_grammar
from gramcalc import gdsl
from gramcalc.gdsl import GrammarSyntaxError, parse_grammar, parse_poly
from gramcalc.grammar import Grammar, builtin_grammar
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


def document(g: Grammar) -> str:
    """``g`` as ``.gram`` text, written by the reference's ``format_grammar``."""
    rules = dict(g.rules)
    declared = tuple(v for v in g.var_order if v in rules)
    inert = tuple(v for v in g.var_order if v in g.inert)
    rules = tuple((v, rules[v]) for v in declared)
    return format_grammar(GrammarSpec(declared, inert, rules, g.start, g.default_n))


def test_parse_main_grammar():
    g = parse_grammar(MAIN_GRAMMAR_TEXT)
    assert g.var_order == ("x", "y", "z", "w")
    assert g.inert == frozenset() and g.name is None
    assert g.start == LP.variable("z")
    assert g.default_n == 8


def test_paper_g_document_is_the_builtin_with_its_start_and_n():
    g = parse_grammar(MAIN_GRAMMAR_TEXT)
    builtin = builtin_grammar("paper_G")
    assert (g.rules, g.var_order) == (builtin.rules, builtin.var_order)
    assert g == builtin._replace(name=None, start=LP.variable("z"), default_n=8)


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
    assert len(parse_grammar(f"inert: {names}\n").inert) == 64
    with pytest.raises(GrammarSyntaxError, match="more than 64 variables") as exc:
        parse_grammar(f"vars: x\ninert: {names}\nrule x -> x\n")
    # x and v0..v62 make 64, so v63 is one too many
    assert (exc.value.line, exc.value.column) == (2, f"inert: {names}".index("v63") + 1)


def test_self_rule_is_valid():
    g = parse_grammar("vars: x\nrule x -> x\n")
    assert g.rules == (("x", LP.variable("x")),)
    assert g.start is None and g.default_n is None


def test_rules_are_pairs_in_rule_line_order():
    g = parse_grammar("vars: x y\nrule y -> x\nrule x -> y\n")
    assert [(name, image) for name, image in g.rules] == [
        ("y", LP.variable("x")), ("x", LP.variable("y")),
    ]
    assert g.var_order == ("x", "y")


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
    assert dict(p.items()) == {(("x", 1 - 10 ** 4300),): 1, (): Fraction(1, 10 ** 4300 - 1)}
    g = parse_grammar(f"vars: x\nrule x -> x\nn: {top}\n")
    assert g.default_n == 10 ** 4300 - 1


DEN = 2**12800  # 12801 bits: 200 64-bit words, rounded down
DEN_WORDS = (
    "common denominators of more than 100000 words, counted once per term "
    "(gdsl.MAX_DENOMINATOR_WORDS)"
)


def test_denominator_words_are_counted_once_per_term():
    # Every term stores its numerator over the common denominator, a term
    # without a denominator of its own too: 500 terms over 200 words fit.
    assert gdsl.MAX_DENOMINATOR_WORDS == 100_000
    word = f"1/{DEN}*x^0" + "".join(f" + x^{i}" for i in range(1, 500))
    assert len(parse_poly(word)) == 500
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_poly(word + " - 2*x^500")
    assert str(exc.value) == f"line 1, column {len(word) + 4}: {DEN_WORDS}"


def test_denominator_words_are_summed_over_a_document():
    image = f"1/{DEN}*x" + "".join(f" + x^{i}" for i in range(2, 251))
    text = f"vars: x y\nrule x -> {image}\nrule y -> {image.replace('x', 'y')}\n"
    # A denominator under 64 bits counts nothing.
    assert parse_grammar(text + "start: 1/3*x\n").start == LP({(("x", 1),): Fraction(1, 3)})
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar(text + f"start: 1/{DEN}*x\n")
    assert str(exc.value) == f"line 4, column 8: {DEN_WORDS}"


def test_denominator_words_refuse_a_later_rule_at_its_term():
    # The first rule's 21 denominators of 4300 digits take 98385 words; the
    # next rule's third term passes the limit.
    n = 10**4299
    first = " + ".join(f"1/{n + 2 * i + 1}*x^{i}" for i in range(21))
    second = [f"1/{n + 2 * i + 43}*y^{i}" for i in range(3)]
    text = f"vars: x y\nrule x -> {first}\nrule y -> {' + '.join(second)}\n"
    with pytest.raises(GrammarSyntaxError) as exc:
        parse_grammar(text)
    column = len("rule y -> " + " + ".join(second[:2]) + " + ") + 1
    assert str(exc.value) == f"line 3, column {column}: {DEN_WORDS}"
    assert len(parse_grammar(text.replace(" + " + second[2], "")).rules) == 2


def test_juxtaposition_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_poly("2x")
    with pytest.raises(GrammarSyntaxError):
        parse_poly("x y")


def test_parentheses_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_poly("(x + y)")


def test_trailing_space_is_one_match():
    # Were it not, each of its positions would start a search that fails
    # after reading the rest: 20 000 trailing spaces took 23 s that way.
    assert gdsl._TOKEN_RE.match(" \t\n" * 3).end() == 9
    assert parse_poly("x" + " " * 100_000 + "# c" + " " * 100_000) == LP.variable("x")


def test_inert_variables_usable_in_images():
    g = parse_grammar("vars: x\ninert: t\nrule x -> t*x\n")
    assert g.inert == frozenset({"t"})
    assert g.var_order == ("x", "t")


def test_round_trip_main_grammar():
    g = parse_grammar(MAIN_GRAMMAR_TEXT)
    assert parse_grammar(document(g)) == g


def test_two_line_document_for_inert_only_spec():
    g = Grammar({}, frozenset({"t"}))
    text = document(g)
    assert text == "vars:\ninert: t\n"
    assert parse_grammar(text) == g


def test_minus_one_coefficient_formats_bare():
    text = document(Grammar({"x": LP({(("x", 1),): -1})}))
    assert "rule x -> -x" in text
    assert "-1*x" not in text


def test_poly_syntax_directly():
    p = parse_poly("-2/3*x^-1*y^2 + z")
    assert dict(p.items()) == {(("x", -1), ("y", 2)): Fraction(-2, 3), (("z", 1),): 1}
    assert len(p) == 2
    assert parse_poly("0") == 0
    assert parse_poly("7") == LP({(): 7})
    assert parse_poly("x^0") == LP({(): 1})
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
        poly = LP([
            (tuple((k, v) for k, v in exps.items() if k in pool), coeff)
            for coeff, exps in draw(images)
        ])
        rules.append((var, poly))
    start = None
    if draw(st.booleans()):
        start = LP.variable(draw(st.sampled_from(declared)))
    default_n = draw(st.one_of(st.none(), st.integers(0, 12)))
    return Grammar(dict(rules), var_order=declared, start=start, default_n=default_n)


@settings(max_examples=60)
@given(specs())
def test_round_trip_generated_specs(g):
    assert parse_grammar(document(g)) == g
