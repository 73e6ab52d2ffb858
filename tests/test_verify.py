import json

import pytest

from gramcalc.grammar import Grammar, builtin_grammar
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.verify import (
    CHECK_IDS,
    ELIZALDE_NOY_POINT,
    GESSEL_POINT,
    GRAMMAR_POINTS,
    check_classical_grammars,
    check_closed_forms,
    check_invariants,
    check_joint_ep_pdd,
    check_peak_dd,
    check_recurrence,
    run_checks,
)


def test_default_suite_passes_at_small_caps():
    reports = run_checks(max_n=5, order=8)
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    for report in reports:
        assert report.passed, report.summary_line()
        assert report.first_failure is None


def test_run_checks_accepts_the_largest_bounds():
    # One below and one past the rejected values (tests/test_cli.py).
    reports = run_checks(("peak_dd", "closed_forms"), max_n=24, order=25)
    assert all(r.passed for r in reports)
    assert run_checks(("peak_dd",), max_n=0, order=0)[0].passed


def test_default_run_derives_each_word_once(monkeypatch):
    import gramcalc.grammar as grammar_module

    real = grammar_module._derive_steps
    calls = []

    def counted(p, g, n):
        calls.append((str(p), g.name, n))
        return real(p, g, n)

    def orders(word):
        return [n for p, name, n in calls if name == "paper_G" and p == word]

    monkeypatch.setattr(grammar_module, "_derive_steps", counted)
    # D^n(z) and D^n(y) under paper_G serve five checks between them; each
    # is derived once, to the largest order any selected check reads.
    assert all(r.passed for r in run_checks())
    assert orders("z") == orders("y") == [12]
    assert len(calls) == len({(p, name) for p, name, _ in calls}) == 11
    calls.clear()
    assert all(r.passed for r in run_checks(("peak_dd", "recurrence"), max_n=3))
    assert orders("z") == [4] and orders("y") == [3]


def test_selected_check_and_unknown_id():
    (report,) = run_checks(("invariants",))
    assert report.passed
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(("nope",))


def test_report_json_shape():
    report = check_invariants()
    obj = report.to_json_obj()
    assert set(obj) == {"check", "limit", "passed", "first_failure"}
    json.dumps(obj)
    assert "PASS" in report.summary_line()


def test_shipped_points_are_admissible():
    for pt in GRAMMAR_POINTS:
        a = pt.assignment
        delta = (a["w"] + a["y"]) ** 2 - 4 * a["x"] * a["z"]
        assert pt.discriminant_root ** 2 == delta
    x = GESSEL_POINT.assignment["x"]
    assert GESSEL_POINT.discriminant_root ** 2 == 1 - x
    y = ELIZALDE_NOY_POINT.assignment["y"]
    assert ELIZALDE_NOY_POINT.discriminant_root ** 2 == (y - 1) * (y + 3)


def test_broken_grammar_reports_smallest_failure():
    rules = dict(builtin_grammar("paper_G").rules)
    rules["z"] = LP.variable("z") * LP.variable("x")  # should be z*w
    mutant = Grammar(rules=rules, name="mutant")
    report = check_joint_ep_pdd(3, mutant)
    assert not report.passed
    assert report.first_failure.startswith("n=1")


def _single_swap_mutants(g: Grammar):
    """Every grammar obtained by moving one variable's exponent onto another."""
    names = sorted(g.rules)
    for var, image in g.rules.items():
        ((mono, coeff),) = list(image.items())
        for src, exp in mono:
            for dst in names:
                if dst == src:
                    continue
                exps = dict(mono)
                del exps[src]
                exps[dst] = exps.get(dst, 0) + exp
                rules = dict(g.rules)
                rules[var] = LP.term(coeff, exps)
                yield f"{var} -> {rules[var]}", Grammar(rules=rules, name=g.name)
        # and a coefficient mutation
        rules = dict(g.rules)
        rules[var] = LP.term(2 * coeff, dict(mono))
        yield f"{var} -> {rules[var]}", Grammar(rules=rules, name=g.name)


def _quick_reports(name: str, mutant: Grammar):
    if name == "paper_G":
        return [
            check_joint_ep_pdd(4, mutant),
            check_peak_dd(4, mutant),
            check_invariants(mutant),
            check_recurrence(4, mutant),
            check_classical_grammars(3, {"paper_G": mutant}),
        ]
    return [check_classical_grammars(4, {name: mutant})]


@pytest.mark.parametrize("name", ["paper_G", "eulerian", "andre", "ramanujan", "exterior_peak"])
def test_any_rule_mutation_fails_some_check(name):
    grammar = builtin_grammar(name)
    mutants = list(_single_swap_mutants(grammar))
    assert mutants
    for label, mutant in mutants:
        reports = _quick_reports(name, mutant)
        assert any(not r.passed for r in reports), f"undetected mutation {label}"


def test_closed_forms_rejects_inadmissible_points():
    from gramcalc.series import EvalPoint, InadmissiblePointError

    with pytest.raises(InadmissiblePointError, match="squared"):
        check_closed_forms(4, points=(EvalPoint({"x": 4}, 2),))
    with pytest.raises(InadmissiblePointError, match="no closed form applies"):
        check_closed_forms(4, points=(EvalPoint({"x": 1, "z": 1}, 1),))


def test_wrong_carlitz_table_fails_verify(monkeypatch, capsys):
    import gramcalc.verify as verify_module
    from gramcalc.cli import main

    real = verify_module.stat_table

    def swapped(n, kind):
        table = real(n, kind)
        if kind != "carlitz_quadruple" or n < 3:
            return table
        counts = dict(table.counts)
        first, last = min(counts), max(counts)
        counts[first], counts[last] = counts[last], counts[first]
        return table._replace(counts=counts)

    monkeypatch.setattr(verify_module, "stat_table", swapped)
    for argv in (["verify"], ["verify", "--check", "peak_dd"], ["verify", "--check", "closed_forms"]):
        assert main(argv) == 2, argv
        assert "FAIL" in capsys.readouterr().out
