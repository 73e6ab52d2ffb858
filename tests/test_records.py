"""Construction, equality, hashing and immutability of the record types."""

from fractions import Fraction

import pytest

from gramcalc import (
    CheckReport,
    DerivativeSequence,
    EvalPoint,
    Grammar,
    LaurentPolynomial as LP,
    StatTable,
    builtin_grammar,
)

X = LP.variable("x")
Y = LP.variable("y")
T = LP.variable("t")


def test_grammar_start_and_default_n_defaults_and_keywords():
    g = Grammar({"x": X * T}, frozenset({"t"}))
    assert g.start is None and g.default_n is None
    assert g.var_order == ("t", "x")  # sorted when none is given
    assert g == Grammar(
        rules={"x": X * T}, inert=frozenset({"t"}), name=None, var_order=("t", "x"),
        start=None, default_n=None,
    )
    assert g != Grammar({"x": X * T}, frozenset({"t"}), default_n=3)
    assert g != Grammar({"x": X * T}, frozenset({"t"}), start=X)
    full = Grammar({"x": X * T}, frozenset({"t"}), "g", ("x", "t"), X, 4)
    assert (full.start, full.default_n) == (X, 4)
    assert full == Grammar(
        {"x": X * T}, frozenset({"t"}), name="g", var_order=("x", "t"), start=X, default_n=4
    )
    assert repr(Grammar({})) == (
        "Grammar(rules=(), inert=frozenset(), name=None, var_order=(), "
        "start=None, default_n=None)"
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
    table = StatTable(n=2, kind="peak_dd", counts={(1, 0): 2})
    assert table == StatTable(2, "peak_dd", {(1, 0): 2})
    assert table != StatTable(2, "peak_dd", {(1, 0): 1})
    assert repr(table) == "StatTable(n=2, kind='peak_dd', counts={(1, 0): 2})"


def test_derivative_sequence_fields():
    g = builtin_grammar("eulerian")
    seq = DerivativeSequence(start=X, items=(X, X * Y), grammar=g)
    assert seq == DerivativeSequence(X, (X, X * Y), g)
    assert seq.grammar is g


def test_grammar_equality_compares_fields():
    rules = {"x": X * Y, "y": X}
    g = Grammar(rules)
    assert g.inert == frozenset() and g.name is None and g.var_order == ("x", "y")
    assert g == Grammar(rules=dict(rules), inert=frozenset(), name=None, var_order=None)
    assert g == Grammar(rules, var_order=("x", "y")) != Grammar(rules, var_order=("y", "x"))
    assert g != Grammar(rules, name="g")
    assert g != Grammar({"x": X * Y, "y": Y})
    assert Grammar({"x": X * T}, frozenset({"t"}), "g", ("x", "t")) == Grammar(
        rules={"x": X * T}, inert=frozenset({"t"}), name="g", var_order=("x", "t")
    )


def test_grammar_rules_are_pairs_in_the_order_given():
    g = Grammar({"y": X, "x": X * Y})
    assert g.rules == (("y", X), ("x", X * Y))
    assert g.var_order == ("x", "y")
    assert Grammar(g.rules) == g
    assert dict(g.rules) == {"x": X * Y, "y": X}
    assert g != Grammar({"x": X * Y, "y": X})
    with pytest.raises(TypeError):
        hash(g)


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
        (Grammar({"x": X}), "start"),
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
