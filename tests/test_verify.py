import hashlib
import json

import pytest

from gramcalc.grammar import Grammar, builtin_grammar
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.verify import (
    CHECK_IDS,
    ELIZALDE_NOY_POINT,
    GESSEL_POINT,
    GRAMMAR_POINTS,
    Derivatives,
    check_classical_grammars,
    check_closed_forms,
    check_invariants,
    check_joint_ep_pdd,
    check_peak_dd,
    check_recurrence,
    oracle_store,
    run_checks,
)


_x, _y, _z = LP.variable("x"), LP.variable("y"), LP.variable("z")


def _paper(word):
    return Derivatives(word, builtin_grammar("paper_G"))


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
    import gramcalc.verify as verify_module

    real = grammar_module.iter_derive
    calls = []

    def counted(p, g, n=grammar_module.MAX_N):
        # [word, grammar, the highest order stepped to]
        call = [str(p), g.name, None]
        calls.append(call)
        for call[2], item in enumerate(real(p, g, n)):
            yield item

    def orders(word):
        return [n for p, name, n in calls if name == "paper_G" and p == word]

    monkeypatch.setattr(grammar_module, "iter_derive", counted)
    monkeypatch.setattr(verify_module, "iter_derive", counted)
    # D^n(z) and D^n(y) under paper_G serve five checks between them; each
    # is derived once, to the largest order any selected check reads.
    assert all(r.passed for r in run_checks())
    assert orders("z") == orders("y") == [12]
    assert len(calls) == len({(p, name) for p, name, _ in calls}) == 11
    calls.clear()
    assert all(r.passed for r in run_checks(("peak_dd", "recurrence"), max_n=3))
    assert orders("z") == [4] and orders("y") == [3]


def test_default_run_counts_each_table_once(monkeypatch):
    import gramcalc.permstat as permstat_module
    import gramcalc.verify as verify_module

    real_table = permstat_module.stat_table
    real_poly, real_triangle = verify_module.table_to_poly, verify_module.triangle_poly
    tables, builds = [], []

    def counted_table(n, kind):
        tables.append((n, kind))
        return real_table(n, kind)

    def counted_poly(table):
        builds.append((table.n, table.kind))
        return real_poly(table)

    def counted_triangle(table, which):
        builds.append((table.n, which))
        return real_triangle(table, which)

    for module in (permstat_module, verify_module):
        monkeypatch.setattr(module, "stat_table", counted_table)
    monkeypatch.setattr(verify_module, "table_to_poly", counted_poly)
    monkeypatch.setattr(verify_module, "triangle_poly", counted_triangle)
    # Four checks read the oracle; one store per run counts each table
    # (n, kind) once and builds each table polynomial (n, kind) and each
    # triangle (n, which) once from those tables.
    assert all(r.passed for r in run_checks())
    assert len(tables) == len(set(tables)) == 33
    assert len(builds) == len(set(builds)) == 29 + 42
    # The store lives for one run: the next run counts and builds everything again.
    first = tables[:], builds[:]
    tables.clear()
    builds.clear()
    assert all(r.passed for r in run_checks())
    assert (tables, builds) == first


def _swapped_carlitz(real):
    """``stat_table`` with the first and last carlitz_quadruple counts swapped from n = 3 on."""
    def swapped(n, kind):
        table = real(n, kind)
        if kind != "carlitz_quadruple" or n < 3:
            return table
        counts = dict(table.counts)
        first, last = min(counts), max(counts)
        counts[first], counts[last] = counts[last], counts[first]
        return table._replace(counts=counts)

    return swapped


# Each check as a caller runs it alone, at run_checks' default bounds, with
# derivatives and an oracle store of its own.
_ALONE = {
    "joint_ep_pdd": lambda: check_joint_ep_pdd(8, _paper(_z), oracle_store()),
    "peak_dd": lambda: check_peak_dd(8, _paper(_y), oracle_store()),
    "recurrence": lambda: check_recurrence(8, _paper(_z), _paper(_y), oracle_store()),
    "invariants": check_invariants,
    "closed_forms": lambda: check_closed_forms(12, _paper(_z), _paper(_y), oracle_store()),
    "classical_grammars": lambda: check_classical_grammars(6, _paper(_z), oracle_store()),
}


@pytest.mark.parametrize("tampered", [False, True], ids=["counted", "swapped_carlitz"])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_a_check_alone_reports_as_in_the_full_run(monkeypatch, check_id, tampered):
    import gramcalc.verify as verify_module

    if tampered:
        monkeypatch.setattr(verify_module, "stat_table", _swapped_carlitz(verify_module.stat_table))
    full = {r.check_id: r for r in run_checks()}
    assert [r.passed for r in full.values()] == [
        not (tampered and name in ("peak_dd", "closed_forms")) for name in CHECK_IDS
    ]
    assert run_checks((check_id,)) == [full[check_id]]
    assert _ALONE[check_id]() == full[check_id]


def test_selected_check_and_unknown_id():
    (report,) = run_checks(("invariants",))
    assert report.passed
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(("nope",))


def test_run_checks_refuses_a_str_of_ids():
    # A str is not split into one-letter check ids.
    message = "^ids must be a collection of check ids, not the str 'invariants'$"
    with pytest.raises(TypeError, match=message):
        run_checks("invariants")


@pytest.mark.parametrize("bounds", [{"max_n": 2.5}, {"max_n": 2.0}, {"order": 3.0}, {"order": "3"}])
def test_run_checks_refuses_a_non_integer_bound(bounds):
    # 2.5 once ran the checks that do not read max_n, and passed.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run_checks(("invariants",), **bounds)


def test_run_checks_reads_a_bool_bound_as_an_int():
    # A report once gave ``limit=True``.
    (closed,) = run_checks(("closed_forms",), order=True)
    (joint,) = run_checks(("joint_ep_pdd",), max_n=True)
    for report in (closed, joint):
        assert report.passed and type(report.limit) is int and report.limit == 1


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
    report = check_joint_ep_pdd(3, Derivatives(_z, mutant), oracle_store())
    assert not report.passed
    assert report.first_failure.startswith("n=1")
    # The first failing comparison is the last one made: nothing past D^1(z)
    # is derived, though the check would read up to D^24(z).
    dz = Derivatives(_z, mutant)
    report = check_joint_ep_pdd(24, dz, oracle_store())
    assert report.first_failure.startswith("n=1:")
    assert list(dz) == [_z, _z * _x]


def _single_swap_mutants(g: Grammar):
    """Every grammar obtained by moving one variable's exponent onto another."""
    names = sorted(dict(g.rules))
    for var, image in g.rules:
        ((mono, coeff),) = list(image.items())
        for src, exp in mono:
            for dst in names:
                if dst == src:
                    continue
                exps = dict(mono)
                del exps[src]
                exps[dst] = exps.get(dst, 0) + exp
                rules = dict(g.rules)
                rules[var] = LP({tuple(exps.items()): coeff})
                yield f"{var} -> {rules[var]}", Grammar(rules=rules, name=g.name)
        # and a coefficient mutation
        rules = dict(g.rules)
        rules[var] = LP({mono: 2 * coeff})
        yield f"{var} -> {rules[var]}", Grammar(rules=rules, name=g.name)


def _quick_reports(name: str, mutant: Grammar, oracle):
    if name == "paper_G":
        dz, dy = Derivatives(_z, mutant), Derivatives(_y, mutant)
        return [
            check_joint_ep_pdd(4, dz, oracle),
            check_peak_dd(4, dy, oracle),
            check_invariants(mutant),
            check_recurrence(4, dz, dy, oracle),
            check_classical_grammars(3, dz, oracle, {"paper_G": mutant}),
        ]
    return [check_classical_grammars(4, _paper(_z), oracle, {name: mutant})]


@pytest.mark.parametrize("name", ["paper_G", "eulerian", "andre", "ramanujan", "exterior_peak"])
def test_any_rule_mutation_fails_some_check(name):
    grammar = builtin_grammar(name)
    mutants = list(_single_swap_mutants(grammar))
    assert mutants
    # The oracle does not depend on the grammar, so every mutant reads one store.
    oracle = oracle_store()
    for label, mutant in mutants:
        reports = _quick_reports(name, mutant, oracle)
        assert any(not r.passed for r in reports), f"undetected mutation {label}"


def test_closed_forms_rejects_inadmissible_points():
    from gramcalc.series import EvalPoint, InadmissiblePointError

    dz, dy, oracle = _paper(_z), _paper(_y), oracle_store()
    with pytest.raises(InadmissiblePointError, match="squared"):
        check_closed_forms(4, dz, dy, oracle, points=(EvalPoint({"x": 4}, 2),))
    with pytest.raises(InadmissiblePointError, match="no closed form applies"):
        check_closed_forms(4, dz, dy, oracle, points=(EvalPoint({"x": 1, "z": 1}, 1),))


def test_wrong_carlitz_table_fails_verify(monkeypatch, capsys):
    import gramcalc.verify as verify_module
    from gramcalc.cli import main

    swapped = _swapped_carlitz(verify_module.stat_table)
    monkeypatch.setattr(verify_module, "stat_table", swapped)
    for argv in (["verify"], ["verify", "--check", "peak_dd"], ["verify", "--check", "closed_forms"]):
        assert main(argv) == 2, argv
        assert "FAIL" in capsys.readouterr().out


BUILTIN_NAMES = ["paper_G", "eulerian", "andre", "ramanujan", "exterior_peak"]


def _mutant_first_failures():
    """First failures of every check that reads each single-swap mutant."""
    rows, oracle = [], oracle_store()
    for name in BUILTIN_NAMES:
        for label, mutant in _single_swap_mutants(builtin_grammar(name)):
            if name == "paper_G":
                dz, dy = Derivatives(_z, mutant), Derivatives(_y, mutant)
                reports = [
                    check_joint_ep_pdd(4, dz, oracle),
                    check_peak_dd(4, dy, oracle),
                    check_recurrence(4, dz, dy, oracle),
                    check_invariants(mutant),
                    check_closed_forms(6, dz, dy, oracle),
                    check_classical_grammars(4, dz, oracle, {"paper_G": mutant}),
                ]
            else:
                reports = [check_classical_grammars(4, _paper(_z), oracle, {name: mutant})]
            rows.append([name, label] + [r.first_failure for r in reports])
    return rows


def test_mutant_first_failures_are_pinned():
    # Characterisation: which comparison fails first, and its message, for
    # all 50 mutants.  A change here is a change of behaviour.
    rows = _mutant_first_failures()
    assert len(rows) == 50
    assert all(None not in row for row in rows if row[0] == "paper_G")
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == (
        "354300f74e298f1641588b17107c5be4"
        "6ac2c8cc247387628f190f8a088d4d66"
    )


def _paper_items(word, n):
    from gramcalc.grammar import derive_n

    return derive_n(word, builtin_grammar("paper_G"), n).items


def _tamper(items, n, extra):
    return items[:n] + (items[n] + extra,) + items[n + 1:]


def _patch_derive(monkeypatch, word, n, extra):
    import gramcalc.verify as verify_module

    class Tampered(verify_module.Derivatives):
        """Adds ``extra`` to item ``n`` of the derivatives of ``word``."""

        def __init__(self, p, g):
            super().__init__(p, g)
            self.tampered = p == word

        def __getitem__(self, m):
            item = super().__getitem__(m)
            return item + extra if self.tampered and m == n else item

    monkeypatch.setattr(verify_module, "Derivatives", Tampered)


def _patch_triangle(monkeypatch, which, n):
    import gramcalc.verify as verify_module

    real = verify_module.triangle_poly

    def tampered(table, w):
        poly = real(table, w)
        if (table.n, w) != (n, which):
            return poly
        return poly + LP.variable("x" if w == "T" else "y") ** 7

    monkeypatch.setattr(verify_module, "triangle_poly", tampered)


def _case_gen_y_recombination(monkeypatch):
    import gramcalc.verify as verify_module
    from gramcalc.series import TruncatedSeries

    class Unequal(TruncatedSeries):
        __slots__ = ()
        __hash__ = None

        def __eq__(self, other):
            return False

        def __ne__(self, other):
            return True

    real = verify_module.closed_form

    def unequal_gen_y(which, point, order):
        series = real(which, point, order)
        if which == "gen_y":
            series.__class__ = Unequal
        return series

    monkeypatch.setattr(verify_module, "closed_form", unequal_gen_y)
    return check_closed_forms(2, _paper(_z), _paper(_y), oracle_store())


def _case_relabeled_dz(monkeypatch):
    dz = _paper_items(_z, 3)
    return check_classical_grammars(3, _tamper(dz, 2, _x * _y), oracle_store())


def _case_andre_golden(monkeypatch):
    import gramcalc.verify as verify_module

    golden = list(verify_module._ANDRE_GOLDEN)
    golden[3] = "x*y^3 + 5*x^2*y"
    monkeypatch.setattr(verify_module, "_ANDRE_GOLDEN", tuple(golden))
    return check_classical_grammars(6, _paper(_z), oracle_store())


def _case_carlitz_branch(monkeypatch):
    import gramcalc.verify as verify_module

    real = verify_module.table_to_poly

    def tampered(table):
        poly = real(table)
        return poly + _y ** 9 if (table.kind, table.n) == ("carlitz_quadruple", 2) else poly

    monkeypatch.setattr(verify_module, "table_to_poly", tampered)
    return check_peak_dd(3, _paper(_y), oracle_store())


def _case_oracle_q(monkeypatch):
    import gramcalc.verify as verify_module

    real = verify_module.table_to_poly

    def tampered(table):
        poly = real(table)
        return poly + _y ** 9 if (table.kind, table.n) == ("peak_dd", 2) else poly

    monkeypatch.setattr(verify_module, "table_to_poly", tampered)
    return check_recurrence(3, _paper(_z), _paper(_y), oracle_store())


def _case_t_marginal(monkeypatch):
    _patch_triangle(monkeypatch, "T", 2)
    return check_recurrence(3, _paper(_z), _paper(_y), oracle_store())


def _case_u_marginal(monkeypatch):
    _patch_triangle(monkeypatch, "U", 3)
    return check_recurrence(3, _paper(_z), _paper(_y), oracle_store())


def _case_gessel(monkeypatch):
    _patch_triangle(monkeypatch, "T", 2)
    return check_closed_forms(3, _paper(_z), _paper(_y), oracle_store(), points=(GESSEL_POINT,))


def _case_elizalde_noy(monkeypatch):
    _patch_triangle(monkeypatch, "U", 3)
    points = (ELIZALDE_NOY_POINT,)
    return check_closed_forms(3, _paper(_z), _paper(_y), oracle_store(), points=points)


def _case_carlitz_f(monkeypatch):
    import gramcalc.verify as verify_module

    real = verify_module.table_to_poly

    def tampered(table):
        poly = real(table)
        return poly + _y if (table.kind, table.n) == ("carlitz_quadruple", 2) else poly

    monkeypatch.setattr(verify_module, "table_to_poly", tampered)
    return check_closed_forms(3, _paper(_z), _paper(_y), oracle_store())


def _case_gen_z_third_point(monkeypatch):
    dz = _tamper(_paper_items(_z, 3), 1, _y)
    return check_closed_forms(3, dz, _paper(_y), oracle_store(), points=GRAMMAR_POINTS[2:])


def _case_no_pdd_u0(monkeypatch):
    dz = _tamper(_paper_items(_z, 3), 2, _x)
    return check_closed_forms(3, dz, _paper(_y), oracle_store(), points=())


def _case_zx_inverse(monkeypatch):
    _patch_derive(monkeypatch, _z * _x ** -1, 2, _y)
    return check_invariants()


def _case_xz_inverse(monkeypatch):
    _patch_derive(monkeypatch, _x ** -1 * _z ** -1, 2, _y)
    return check_invariants()


def _case_exterior_marginal(monkeypatch):
    import gramcalc.verify as verify_module

    real = verify_module.specialize_triangle

    def tampered(table, which):
        rows = real(table, which)
        return rows + [(5, 1)] if table.n == 2 else rows

    monkeypatch.setattr(verify_module, "specialize_triangle", tampered)
    return check_classical_grammars(3, _paper(_z), oracle_store())


def _case_eulerian_row_sum(monkeypatch):
    _patch_derive(monkeypatch, _x, 2, _x)
    return check_classical_grammars(3, _paper(_z), oracle_store())


FAILURE_MESSAGES = [
    (_case_gen_y_recombination,
     "point (w=3, x=4, y=2, z=1): gen_y differs from y + xz * carlitz_F"),
    (_case_relabeled_dz, "relabeled D^2(z) differs from the exterior-peak derivative"),
    (_case_andre_golden, "andre D^3(x): expected 'x*y^3 + 5*x^2*y', got 'x*y^3 + 4*x^2*y'"),
    (_case_carlitz_branch,
     "n=2, x*z*carlitz_quadruple: expected x*y^9*z + w*x*z + x*y*z, got w*x*z + x*y*z"),
    (_case_oracle_q,
     "n=2 (Q from oracle): expected w^3*z + 4*w*x*z^2 + x*y*z^2, "
     "got y^9*z + w^3*z + 4*w*x*z^2 + x*y*z^2"),
    (_case_t_marginal, "T marginal, n=1: expected x^7 + x + 1, got x + 1"),
    (_case_u_marginal, "U marginal, n=2: expected y^7 + y + 5, got y + 5"),
    (_case_gessel, "point (x=3/4), gessel_T, n=2: expected 30859/16384, got 7/4"),
    (_case_elizalde_noy,
     "point (y=13/4), elizalde_noy_U, n=3: expected 62883685/16384, got 33/4"),
    (_case_carlitz_f, "point (w=3, x=4, y=2, z=1), carlitz_F, n=2: expected 7, got 5"),
    (_case_gen_z_third_point,
     "point (w=1/2, x=0, y=5/2, z=1), gen_z, n=1: expected 3, got 1/2"),
    (_case_no_pdd_u0, "no_pdd_U0, n=2: expected 3, got 2"),
    (_case_zx_inverse,
     "D^2(z*x^-1): expected w^2*x^-1*z - 2*w*x^-1*y*z + x^-1*y^2*z, "
     "got w^2*x^-1*z - 2*w*x^-1*y*z + x^-1*y^2*z + y"),
    (_case_xz_inverse,
     "D^2(x^-1*z^-1): expected w^2*x^-1*z^-1 + 2*w*x^-1*y*z^-1 - 2 + x^-1*y^2*z^-1, "
     "got y + w^2*x^-1*z^-1 + 2*w*x^-1*y*z^-1 - 2 + x^-1*y^2*z^-1"),
    (_case_exterior_marginal,
     "exterior-peak marginal, n=2: expected x^11*y^-8 + x^3 + x*y^2, got x^3 + x*y^2"),
    (_case_eulerian_row_sum, "eulerian row sum, n=2: expected 2, got 3"),
]


@pytest.mark.parametrize(
    "case, message", FAILURE_MESSAGES, ids=[c.__name__[6:] for c, _ in FAILURE_MESSAGES]
)
def test_failure_message_is_pinned(monkeypatch, case, message):
    # Characterisation: each kind of comparison names its first failure in
    # exactly this form.
    report = case(monkeypatch)
    assert not report.passed
    assert report.first_failure == message
