"""Construction, equality, hashing and immutability of the record types."""

from fractions import Fraction

import pytest

from gramcalc import (
    CheckReport,
    DerivativeSequence,
    EvalPoint,
    Grammar,
    GrammarSpec,
    LaurentPolynomial as LP,
    StatProfile,
    StatTable,
    builtin_grammar,
)
from gramcalc.gdsl import _Token
from gramcalc.series import RATIONALS, Ring

X = LP.variable("x")
Y = LP.variable("y")
T = LP.variable("t")


def test_grammar_spec_defaults_and_keywords():
    spec = GrammarSpec(("x",))
    assert spec.inert_vars == () and spec.rules == ()
    assert spec.start is None and spec.default_n is None
    assert spec == GrammarSpec(
        declared_vars=("x",), inert_vars=(), rules=(), start=None, default_n=None
    )
    assert spec != GrammarSpec(("x",), default_n=3)
    assert repr(spec) == (
        "GrammarSpec(declared_vars=('x',), inert_vars=(), rules=(), "
        "start=None, default_n=None)"
    )
    full = GrammarSpec(("x",), ("t",), (("x", X * T),), X, 4)
    assert full.var_order() == ("x", "t")
    assert full.to_grammar("g") == Grammar(
        {"x": X * T}, frozenset({"t"}), "g", ("x", "t")
    )


def test_check_report_positional_and_keyword():
    report = CheckReport("id", 3, True)
    assert report.first_failure is None
    assert report == CheckReport(check_id="id", limit=3, passed=True, first_failure=None)
    assert report != CheckReport("id", 3, False, "n=1")
    assert repr(report) == (
        "CheckReport(check_id='id', limit=3, passed=True, first_failure=None)"
    )
    assert report.summary_line() == "PASS  id (limit 3)"
    assert CheckReport("id", 3, False, "n=1").to_json_obj() == {
        "check": "id", "limit": 3, "passed": False, "first_failure": "n=1",
    }


def test_stat_records_compare_by_fields():
    profile = StatProfile(1, 0, 1, 0, 0, 1)
    assert profile == StatProfile(
        exterior_peaks=1, proper_double_descents=0, peaks=1,
        double_descents=0, valleys=0, double_rises=1,
    )
    assert profile.double_rises == 1
    table = StatTable(n=2, kind="peak_dd", counts={(1, 0): 2})
    assert table == StatTable(2, "peak_dd", {(1, 0): 2})
    assert table != StatTable(2, "peak_dd", {(1, 0): 1})
    assert repr(table) == "StatTable(n=2, kind='peak_dd', counts={(1, 0): 2})"


def test_derivative_sequence_fields():
    g = builtin_grammar("eulerian")
    seq = DerivativeSequence(start=X, items=(X, X * Y), grammar=g)
    assert seq == DerivativeSequence(X, (X, X * Y), g)
    assert seq.order() == 1
    assert seq.grammar is g


def test_ring_and_token_fields():
    ring = Ring("r", 1, RATIONALS.dot)
    assert ring.dot is RATIONALS.dot
    assert ring.dot([2, 3], [5, 7]) == 31
    assert ring == Ring(name="r", one=1, dot=RATIONALS.dot)
    assert Ring._fields == ("name", "one", "dot")
    token = _Token("ident", "x", 5)
    assert token == _Token(kind="ident", text="x", column=5)
    assert token.column == 5


def test_grammar_equality_compares_fields():
    rules = {"x": X * Y, "y": X}
    g = Grammar(rules)
    assert g.inert == frozenset() and g.name is None and g.var_order is None
    assert g == Grammar(rules=dict(rules), inert=frozenset(), name=None, var_order=None)
    assert g != Grammar(rules, name="g")
    assert g != Grammar({"x": X * Y, "y": Y})
    assert Grammar({"x": X * T}, frozenset({"t"}), "g", ("x", "t")) == Grammar(
        rules={"x": X * T}, inert=frozenset({"t"}), name="g", var_order=("x", "t")
    )
    assert g.display_order() == ("x", "y")


def test_eval_point_compares_fields_and_is_unhashable():
    point = EvalPoint({"x": 2}, 3)
    assert point == EvalPoint(assignment={"x": Fraction(2)}, discriminant_root=Fraction(3))
    assert point != EvalPoint({"x": 2})
    assert point != EvalPoint({"x": 2}, 5)
    assert EvalPoint({"x": 2}).discriminant_root is None
    with pytest.raises(TypeError):
        hash(point)


@pytest.mark.parametrize(
    "record, field",
    [
        (Grammar({"x": X}), "name"),
        (Grammar({"x": X}), "rules"),
        (EvalPoint({"x": 2}, 3), "assignment"),
        (EvalPoint({"x": 2}, 3), "discriminant_root"),
        (StatTable(2, "peak_dd", {(1, 0): 2}), "counts"),
        (CheckReport("id", 3, True), "passed"),
        (DerivativeSequence(X, (X,), builtin_grammar("eulerian")), "items"),
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_assigning_a_field_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
