"""Tests for the benchmark's own logic: span arithmetic, generators, output checks.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import PointFlow, check_output, digest, parse_poly_text  # noqa: E402
from run import DIGESTS, verdict  # noqa: E402
from tracing import request_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, builtin_rules, grammar_point, make_pass  # noqa: E402

from gramcalc import EvalPoint, builtin_grammar, closed_form, derive_n, parse_grammar, parse_poly  # noqa: E402
from gramcalc.cli import main as cli_main  # noqa: E402


def _stdout(argv) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli_main(list(argv)) == 0
    return buffer.getvalue().encode()


# -- span arithmetic ------------------------------------------------------------------


def test_self_times_subtract_covered_child_time():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["grammar.derive_n", 0, 1.0, 4.0],
        ["laurent.mul", 1, 2.0, 3.0],
        ["series.closed_form", 0, 5.0, 9.0],
        ["series.mul", 3, 6.0, 7.0],
        ["series.mul", 3, 6.5, 8.0],  # overlaps its sibling: covered time counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    # Self times of a tree always add up to the root's duration.
    assert sum(self_times(spans[:5])) == pytest.approx(10.0)


def test_request_metrics_count_recursive_spans_once():
    trace = {
        "import_s": 0.5,
        "stdout_bytes": 12,
        "counters": {
            "kernel_compiled": 0, "perms_visited": 6, "derive_max_order": 0,
            "series_max_order": 0, "terms_max": 3, "coeff_bits_max": 4,
        },
        "spans": [
            ["cli.main", -1, 0.0, 10.0],
            ["permstat.stat_table", 0, 1.0, 5.0],
            ["kernel.count_table", 1, 1.5, 4.5],
            ["laurent.pow", 0, 6.0, 9.0],
            ["laurent.mul", 3, 6.0, 8.0],
            ["laurent.mul", 4, 6.5, 7.0],  # a mul inside a mul is not counted twice
        ],
    }
    m = request_metrics(trace)
    assert m["laurent.mul_s"] == pytest.approx(2.0)
    assert m["laurent.mul_calls"] == 2
    assert m["laurent.self_s"] == pytest.approx(3.0)
    assert m["kernel.count_table_s"] == pytest.approx(3.0)
    assert m["permstat.self_s"] == pytest.approx(1.0)
    assert m["permstat.tables_built"] == 1
    assert m["cli.self_s"] == pytest.approx(3.0)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(10.0)


# -- generators -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_passes_are_deterministic_per_seed(workload):
    first = make_pass(workload, 7, "work")
    again = make_pass(workload, 7, "work")
    assert [(r.argv, r.files) for r in first] == [(r.argv, r.files) for r in again]
    assert [r.key() for r in first] == [r.key() for r in again]


def test_algebra_pass_depends_on_seed_but_keeps_its_shape():
    a, b = make_pass("algebra", 1, "work"), make_pass("algebra", 2, "work")
    assert sorted(r.argv for r in a) != sorted(r.argv for r in b)
    assert sorted(r.command for r in a) == sorted(r.command for r in b)
    assert {r.check.get("which") for r in a if r.command == "series"} == {
        "gen_z", "gen_y", "carlitz_F", "gessel_T", "elizalde_noy_U", "no_pdd_U0",
    }


@pytest.mark.parametrize("seed", range(12))
def test_generated_points_are_admissible(seed):
    for request in make_pass("algebra", seed, "work"):
        check = request.check
        if check["kind"] != "series" or check["point"] is None:
            continue
        point = EvalPoint(check["point"], check["root"])
        a = point.assignment
        if check["which"] == "gessel_T":
            point.root_for(1 - a["x"], "1 - x")
        elif check["which"] == "elizalde_noy_U":
            point.root_for((a["y"] - 1) * (a["y"] + 3), "(y-1)(y+3)")
        else:
            point.root_for((a["w"] + a["y"]) ** 2 - 4 * a["x"] * a["z"], "(w+y)^2 - 4xz")
        closed_form(check["which"], point, 3)  # denominators invertible too


@pytest.mark.parametrize("seed", range(12))
def test_generated_gram_text_is_valid(seed):
    (gram,) = [r for r in make_pass("algebra", seed, "work") if r.files]
    (path, text), = gram.files
    assert path.endswith(".gram") and gram.argv[2] == path
    spec = parse_grammar(text)
    assert spec.default_n == gram.check["n"]
    for name, image in spec.rules:
        (coeff, mono), = gram.check["rules"][name]
        assert image == parse_poly("*".join([str(coeff)] + [f"{v}^{e}" for v, e in mono]))


# -- the independent leg ------------------------------------------------------------------


def test_point_flow_matches_evaluated_derive_n():
    rng_point = {"x": Fraction(2, 3), "y": Fraction(-5, 3), "z": Fraction(7, 2), "w": Fraction(1, 4)}
    start = "3/4*x^-2*y*z^-1 - 2*w^2*y^-1"
    start_data = tuple(
        (c, tuple(sorted(m))) for m, c in parse_poly(start).items()
    )
    flow = PointFlow(builtin_rules("paper_G"), rng_point)
    values = flow.derivatives(start_data, 8)
    items = derive_n(parse_poly(start), builtin_grammar("paper_G"), 8).items
    assert values == [p.eval(rng_point) for p in items]


def test_parse_poly_text_round_trips_program_output():
    poly = derive_n(parse_poly("x^-1*z - 2/3*y^2"), builtin_grammar("paper_G"), 5).items[5]
    parsed = parse_poly_text(poly.format(("x", "y", "z", "w")))
    assert parsed == dict(poly.items())


# -- output checks -------------------------------------------------------------------------


def _requests(workload, seed=0):
    return make_pass(workload, seed, "work")


def test_checks_pass_on_correct_output_and_fail_on_corrupt_digest():
    request = next(r for r in _requests("tables") if r.check["n"] == 7)
    out = _stdout(request.argv)
    assert check_output(request, 0, out, {request.key(): digest(out)}) is None
    corrupt = {request.key(): "0" * 64}
    assert check_output(request, 0, out, corrupt) == "stdout differs from the recorded digest"
    assert check_output(request, 1, out, {}) == "exit status 1"


@pytest.mark.parametrize("kind", ["table", "derive", "series"])
def test_cross_leg_checks_catch_a_wrong_number(kind):
    workload = "tables" if kind == "table" else "algebra"
    request = next(
        r for r in _requests(workload)
        if r.check["kind"] == kind and not r.files and r.check.get("order", 0) <= 90
    )
    out = _stdout(request.argv)
    assert check_output(request, 0, out, {}) is None
    # Lower the last nonzero digit; with no digest recorded the other leg must object.
    text = out.decode().rstrip("\n")
    i = max(k for k, ch in enumerate(text) if ch.isdigit() and ch != "0")
    wrong = (text[:i] + str(int(text[i]) - 1) + text[i + 1:] + "\n").encode()
    assert check_output(request, 0, wrong, {}) is not None


def test_recorded_digests_cover_the_default_seed():
    digests = json.loads(DIGESTS.read_text())
    for workload in WORKLOADS:
        for request in make_pass(workload, 0, f"perfbench/out/inputs/{workload}-0"):
            assert request.key() in digests


# -- compare mode ----------------------------------------------------------------------------


def test_verdicts():
    old = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in old]
    slower = [v * 1.2 for v in old]
    pairs = list(zip(old, faster))
    assert verdict(old, faster, pairs, 0.1, True) == ("improved", 10)
    assert verdict(old, slower, list(zip(old, slower)), 0.1, True)[0] == "worse"
    assert verdict(old, list(old), list(zip(old, old)), 0.1, True)[0] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), 0.1, True)[0] == "unresolved"
    assert verdict(old, slower, list(zip(old, slower)), 0.1, False)[0] == "improved"


def test_grammar_point_root_squares_to_discriminant():
    for seed in range(50):
        point, s = grammar_point(random.Random(seed))
        assert s * s == (point["w"] + point["y"]) ** 2 - 4 * point["x"] * point["z"]
        assert s != 0 and point["x"] * point["z"] != 0
