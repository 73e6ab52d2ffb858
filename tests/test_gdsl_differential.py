"""``gdsl`` against the ``.gram`` reader it replaced.

``_gdsl_reference`` keeps the parser as it ran before each line was read
through one cursor.  Hypothesis draws token soup: polynomials and documents
built from identifiers, literals, symbols and stray characters, some well
formed and most not.  Both parsers must return equal results, or raise the
same exception type with the same message, line and column.  Literals stay
at or below 4300 digits, where the two agree; past it only ``gdsl`` locates
the rejection (see ``test_gdsl``).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import _gdsl_reference as ref
from gramcalc import gdsl

NAMES = ["x", "y", "z", "t", "v1", "n", "rule", "vars"]
LITERALS = ["0", "1", "2", "3", "07", "12", "100", "9" * 4300]
SYMBOLS = ["*", "/", "^", "+", "-", ":", "->", "# note", "@", "(", "2x"]

names = st.sampled_from(NAMES)
literals = st.sampled_from(LITERALS)


@st.composite
def terms(draw, pool=names):
    """A term as the grammar spells it: an optional coefficient, then factors."""
    parts = []
    if draw(st.booleans()):
        coeff = draw(literals)
        if draw(st.booleans()):
            coeff += "/" + draw(literals)
        parts.append(coeff)
    for _ in range(draw(st.integers(0 if parts else 1, 3))):
        factor = draw(pool)
        if draw(st.booleans()):
            factor += "^" + draw(st.sampled_from(["", "-"])) + draw(literals)
        parts.append(factor)
    return "*".join(parts)


@st.composite
def well_formed(draw, pool=names):
    text = draw(st.sampled_from(["", "-", "+"])) + draw(terms(pool))
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + draw(terms(pool))
    return text


@st.composite
def soup(draw):
    """Tokens in any order; a literal is never glued to the next token, so
    no literal grows past 4300 digits."""
    tokens = draw(st.lists(names | literals | st.sampled_from(SYMBOLS), max_size=8))
    gaps = st.sampled_from(["", " ", "\t"])
    return "".join(tok + draw(st.just(" ") if tok.isdigit() else gaps) for tok in tokens)


polys = well_formed() | soup()

HEADS = ["vars:", "inert:", "rule x ->", "rule q ->", "start:", "n:", "n: 4", "vars", "rule x",
         "rules", "  n :", "#", ""]


@st.composite
def documents(draw):
    """Declarations, a rule for most declared variables, an optional start
    word and count, and a few stray or malformed lines anywhere."""
    declared = draw(st.lists(names, max_size=4, unique=True))
    inert = [v for v in draw(st.lists(names, max_size=2, unique=True)) if v not in declared]
    pool = st.sampled_from(declared + inert) if declared + inert else names
    images = well_formed(pool) | well_formed() | soup()
    lines = [f"vars: {' '.join(declared)}"]
    if inert or draw(st.booleans()):
        lines.append(f"inert: {' '.join(inert)}")
    for var in declared:
        if draw(st.integers(0, 9)):
            lines.append(f"rule {var} -> {draw(images)}")
    if draw(st.booleans()):
        lines.append(f"start: {draw(images)}")
    if draw(st.booleans()):
        lines.append(f"n: {draw(literals | soup())}")
    for _ in range(draw(st.integers(0, 2))):
        stray = draw(st.sampled_from(HEADS)) + " " + draw(images)
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except Exception as exc:  # the exception is what is compared
        return (
            type(exc).__name__,
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
        )


def assert_same(new, old):
    # Polynomials compare their exact representation; a result's repr is not
    # compared, as printing a 4300-digit exponent passes CPython's limit.
    assert new == old
    assert type(new[1]).__name__ == type(old[1]).__name__


@settings(max_examples=400, deadline=None)
@given(polys, st.sets(names))
@example("x^0 + x*x^-1*y^2 - 0*z", {"x", "y"})
@example(f"{'9' * 4300}/{'9' * 4300}*x^-{'9' * 4300}", None)
@example("2/0*x", set())
@example("x*v1*t^-3 - 3/4*", {"x"})
def test_poly_matches_reference(text, allowed):
    assert_same(outcome(gdsl.parse_poly, text), outcome(ref.parse_poly, text))
    assert_same(
        outcome(gdsl.parse_poly, text, allowed), outcome(ref.parse_poly, text, allowed)
    )


@settings(max_examples=400, deadline=None)
@given(documents())
@example("vars: x y\nrule x -> x*y\nrule y -> x*y\nstart: x\nn: 5\n")
@example("vars: x y\ninert: t\nrule x -> t\n")
@example("vars: x\nrule x -> x\nstart: x\n# again\nstart: x\n")
@example("vars: x\nrule x -> x\nn: 2\nn: 3\n")
@example("vars: x x\n")
@example("inert: t\nvars:\n")
def test_document_matches_reference(text):
    assert_same(outcome(gdsl.parse_grammar, text), outcome(ref.parse_grammar, text))
