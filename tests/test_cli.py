import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import gramcalc
from gramcalc.cli import main
from gramcalc.verify import CheckReport

MAIN_GRAMMAR_TEXT = """\
vars: x y z w
rule x -> x*y
rule y -> x*z
rule z -> z*w
rule w -> x*z
start: z
n: 4
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_text(capsys):
    code, out, err = run(
        capsys, "derive", "--grammar", "paper_G", "--start", "z", "--n", "4",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "z*w^4 + 11*x*z^2*w^2 + 6*x*y*z^2*w + 5*x^2*z^3 + x*y^2*z^2"
    assert err == ""


def test_derive_json_stable(capsys):
    argv = ("derive", "--grammar", "paper_G", "--start", "z", "--n", "3", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["n"] == 3
    assert payload["derivative"][0] == {"coeff": "1", "exps": {"z": 1, "w": 3}}


def test_derive_from_gram_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "main.gram"
    path.write_text(MAIN_GRAMMAR_TEXT, encoding="utf-8")
    code, from_file, _ = run(capsys, "derive", "--grammar", str(path))
    assert code == 0
    code, from_builtin, _ = run(
        capsys, "derive", "--grammar", "paper_G", "--start", "z", "--n", "4"
    )
    assert code == 0
    assert from_file == from_builtin


def test_derive_flag_overrides_file_default(tmp_path, capsys):
    path = tmp_path / "main.gram"
    path.write_text(MAIN_GRAMMAR_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "derive", "--grammar", str(path), "--n", "1")
    assert code == 0
    assert out.strip() == "z*w"


def test_derive_missing_start(capsys):
    code, out, err = run(capsys, "derive", "--grammar", "eulerian", "--n", "2")
    assert code == 1
    assert "start" in err


def test_derive_missing_order(tmp_path, capsys):
    path = tmp_path / "no_n.gram"
    path.write_text(MAIN_GRAMMAR_TEXT.replace("n: 4\n", ""), encoding="utf-8")
    code, out, err = run(capsys, "derive", "--grammar", str(path))
    assert (code, out) == (1, "")
    assert err == "gramcalc: error: no order: pass --n or add 'n:' to the .gram file\n"


# Every rule is v -> v*(a + ... + h), so D^n(a) holds each of the
# C(n + 8, 7) monomials of degree n + 1: about three times the work every
# two orders, while every n up to MAX_N = 25 passes the order check.
WIDE_GRAMMAR_TEXT = "vars: a b c d e f g h\n" + "".join(
    f"rule {v} -> " + " + ".join(f"{v}*{u}" for u in "abcdefgh") + "\n" for v in "abcdefgh"
)


def test_derive_work_is_bounded(tmp_path, capsys):
    path = tmp_path / "wide.gram"
    path.write_text(WIDE_GRAMMAR_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "derive", "--grammar", str(path), "--start", "a", "--n", "25")
    assert (code, out) == (1, "")
    assert err == (
        "gramcalc: error: derivative order 11 needs up to 44807296 units of work, "
        "over the limit 30000000 (grammar.MAX_DERIVE_WORK)\n"
    )
    code, out, _ = run(capsys, "derive", "--grammar", str(path), "--start", "a", "--n", "6")
    assert code == 0
    assert len(out.split(" + ")) == 1716


def _no_polynomials(monkeypatch):
    """Make building any LaurentPolynomial fail the test."""
    from gramcalc.laurent import LaurentPolynomial

    def refuse(self, *args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(LaurentPolynomial, "__init__", refuse)


def test_derive_variable_count_is_bounded(tmp_path, capsys, monkeypatch):
    # Every term stores one exponent per variable of its polynomial, so a
    # start word of N one-variable terms costs N^2 integers, and inert
    # variables need no rule line.  At N = 2000 this took 0.6 s and 48 MiB.
    inert = " ".join(f"v{i}" for i in range(2000))
    path = tmp_path / "inert.gram"
    start = inert.replace(" ", " + ")
    path.write_text(f"vars: x\ninert: {inert}\nrule x -> x\nstart: x + {start}\n")
    _no_polynomials(monkeypatch)
    code, out, err = run(capsys, "derive", "--grammar", str(path), "--n", "1")
    assert (code, out) == (1, "")
    assert err.startswith("gramcalc: error: line 2, column ")
    assert err.endswith(": more than 64 variables (gdsl.MAX_VARIABLES)\n")


def test_derive_variable_count_at_the_bound(tmp_path, capsys):
    inert = [f"v{i}" for i in range(63)]
    path = tmp_path / "inert.gram"
    path.write_text(f"vars: x\ninert: {' '.join(inert)}\nrule x -> x\nstart: x*{'*'.join(inert)}\n")
    code, out, err = run(capsys, "derive", "--grammar", str(path), "--n", "2")
    assert (code, err) == (0, "")
    assert out == f"x*{'*'.join(inert)}\n"


def test_derive_undeclared_start_variable(capsys):
    code, _, err = run(
        capsys, "derive", "--grammar", "paper_G", "--start", "q", "--n", "1"
    )
    assert code == 1
    assert "undeclared variable 'q'" in err


def test_bad_grammar_source(capsys):
    code, _, err = run(capsys, "derive", "--grammar", "missing", "--start", "z", "--n", "1")
    assert code == 1
    assert "unknown grammar" in err


def test_gram_file_syntax_error_is_diagnosed(tmp_path, capsys):
    path = tmp_path / "broken.gram"
    path.write_text("vars: x\nrule x -> x*\n", encoding="utf-8")
    code, _, err = run(capsys, "derive", "--grammar", str(path), "--n", "1")
    assert code == 1
    assert "line 2" in err


def test_derive_long_start_literal_is_located(capsys):
    start = "z^" + "9" * 4301
    code, out, err = run(capsys, "derive", "--grammar", "paper_G", "--start", start, "--n", "1")
    assert (code, out) == (1, "")
    assert err == (
        "gramcalc: error: line 1, column 3: more than 4300 digits (gdsl.MAX_LITERAL_DIGITS)\n"
    )


NINES = "9" * 4300


@pytest.mark.parametrize(
    "start, n, fmt, what",
    [
        (f"z^{NINES}", 2, "text", "a coefficient of the order-2 derivative"),
        (f"z^{NINES}", 2, "json", "a coefficient of the order-2 derivative"),
        (f"{NINES}*z", 3, "text", "a coefficient of the order-3 derivative"),
        (f"{NINES}*z", 3, "json", "a coefficient of the order-3 derivative"),
        (f"1/{NINES}*x^{NINES}", 2, "text", "the exponent of x in the order-2 derivative"),
        (f"1/{NINES} + 1/{NINES[:-1]}7 + z", 1, "json", "a coefficient of the start word"),
    ],
    ids=["power_n2", "power_n2_json", "multiple_n3", "multiple_n3_json", "exponent", "start_json"],
)
def test_derive_output_digits_are_bounded(capsys, start, n, fmt, what):
    # Printing an integer of more than 4300 digits raises a bare ValueError
    # on CPython since 3.10.7 and succeeds before it; the check comes first.
    argv = ("derive", "--grammar", "paper_G", "--start", start, "--n", str(n), "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"gramcalc: error: {what} has more than 4300 digits (cli.MAX_OUTPUT_DIGITS)\n"


@pytest.mark.parametrize(
    "start, printed",
    [
        (f"{NINES}*z", f"{NINES}*z*w"),
        (f"z^{NINES}", f"{NINES}*z^{NINES}*w"),
        # The start word is printed only in JSON; its 1/a + 1/b has 8600 digits.
        (f"1/{NINES} + 1/{NINES[:-1]}7 + z", "z*w"),
    ],
    ids=["multiple", "power", "start"],
)
def test_derive_output_digits_at_the_bound(capsys, start, printed):
    code, out, err = run(capsys, "derive", "--grammar", "paper_G", "--start", start, "--n", "1")
    assert (code, out, err) == (0, f"{printed}\n", "")


@pytest.mark.parametrize("egf", [(), ("--egf",)], ids=["raw", "egf"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_series_output_digits_are_bounded(capsys, monkeypatch, egf, fmt):
    from gramcalc import cli

    # no_pdd_U0 prints 2017/5040 (raw) and 2017 (EGF) at t^7, then 6679/20160
    # and 13358 at t^8.
    monkeypatch.setattr(cli, "MAX_OUTPUT_DIGITS", 4)
    argv = ("series", "--which", "no_pdd_U0", "--format", fmt, *egf)
    code, out, err = run(capsys, *argv, "--order", "8")
    assert (code, out) == (1, "")
    kind = "EGF coefficient" if egf else "coefficient"
    assert err == (
        f"gramcalc: error: the {kind} of t^8 has more than 4 digits (cli.MAX_OUTPUT_DIGITS)\n"
    )
    code, out, err = run(capsys, *argv, "--order", "7")
    assert (code, err) == (0, "")
    assert ("2017" if egf else "2017/5040") in out


def test_gram_file_over_the_size_limit_is_rejected(tmp_path, capsys):
    limit = 1 << 20
    padding = "# a comment line\n" * (limit // 17 + 1)
    path = tmp_path / "big.gram"
    path.write_text(padding[: limit + 1])
    assert path.stat().st_size == limit + 1
    code, out, err = run(capsys, "derive", "--grammar", str(path), "--n", "1")
    assert code == 1
    assert out == ""
    assert "exceeds the limit of 1048576 bytes" in err
    path.write_text(MAIN_GRAMMAR_TEXT + padding[: limit - len(MAIN_GRAMMAR_TEXT)])
    assert path.stat().st_size == limit
    code, out, _ = run(capsys, "derive", "--grammar", str(path), "--n", "1")
    assert code == 0
    assert out.strip() == "z*w"


def test_table_csv_single_row(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "exterior_pdd", "--n", "1", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "0,0,1"


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "exterior_pdd", "--n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 3,
        "kind": "exterior_pdd",
        "counts": {"0,0": 1, "1,0": 4, "1,1": 1},
    }


def test_table_triangle_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "exterior_pdd", "--n", "3",
        "--triangle", "T", "--format", "csv",
    )
    assert code == 0
    assert out.strip() == "3,0,1\n3,1,5"


def test_table_over_cap(capsys):
    code, out, err = run(capsys, "table", "--kind", "exterior_pdd", "--n", "26")
    assert code == 1
    assert out == ""
    assert "exceeds the limit 25" in err
    code, out, _ = run(capsys, "table", "--kind", "exterior_pdd", "--n", "25", "--triangle", "T")
    assert code == 0
    assert sum(int(line.split("count=")[1]) for line in out.splitlines()) == factorial(25)


def test_series_text(capsys):
    code, out, _ = run(
        capsys, "series", "--which", "gen_z",
        "--point", "x=4,y=2,z=1,w=3", "--root", "3", "--order", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^0: 1"
    assert lines[1] == "t^1: 3"


def test_series_egf_json(capsys):
    code, out, _ = run(
        capsys, "series", "--which", "no_pdd_U0", "--order", "5",
        "--egf", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1", "2", "5", "17", "70"]
    assert payload["egf"] is True


def test_series_inadmissible_point(capsys):
    code, _, err = run(
        capsys, "series", "--which", "gen_z",
        "--point", "x=4,y=2,z=1,w=3", "--root", "2",
    )
    assert code == 1
    assert "squared" in err


def test_series_root_without_point(capsys):
    code, out, err = run(capsys, "series", "--which", "gessel_T", "--root", "1/2")
    assert (code, out) == (1, "")
    assert err == "gramcalc: error: --root given without --point\n"


def test_series_bad_point_syntax(capsys):
    code, _, err = run(capsys, "series", "--which", "gen_z", "--point", "x=4,zap")
    assert code == 1
    assert "bad point component" in err


@pytest.mark.parametrize(
    "point, root, bad",
    [
        ("x=75e-2", "1/2", "'75e-2' in --point"),
        ("x=3/4", "5E-1", "'5E-1' in --root"),
        ("x=0.75", "1e0", "'1e0' in --root"),
    ],
)
def test_series_rejects_exponent_notation(capsys, point, root, bad):
    code, out, err = run(capsys, "series", "--which", "gessel_T", "--point", point, "--root", root)
    assert code == 1
    assert out == ""
    assert f"bad rational {bad}: exponent notation is not accepted" in err


def test_series_accepts_plain_decimals(capsys):
    argv = ("series", "--which", "gessel_T", "--order", "4")
    code, decimal, _ = run(capsys, *argv, "--point", "x= 0.75", "--root", "0.5")
    assert code == 0
    code, fraction, _ = run(capsys, *argv, "--point", "x=3/4", "--root", "1/2")
    assert code == 0
    assert decimal == fraction


@pytest.mark.parametrize(
    "form",
    [
        ("gen_z", "--point", "x=4,y=2,z=1,w=3", "--root", "3"),
        ("gessel_T", "--point", "x=3/4", "--root", "1/2"),
        ("elizalde_noy_U", "--point", "y=13/4", "--root", "15/4"),
        ("no_pdd_U0",),
    ],
)
def test_series_negative_order_rejected(capsys, form):
    code, out, err = run(capsys, "series", "--which", *form, "--order", "-1")
    assert code == 1
    assert out == ""
    assert "nonnegative" in err


def test_series_order_bounded(capsys):
    code, out, err = run(capsys, "series", "--which", "no_pdd_U0", "--order", "301")
    assert code == 1
    assert out == ""
    assert "exceeds the limit 300" in err
    code, out, _ = run(capsys, "series", "--which", "no_pdd_U0", "--order", "300")
    assert code == 0
    assert len(out.splitlines()) == 301


def test_series_duplicate_point_coordinate(capsys):
    code, out, err = run(
        capsys, "series", "--which", "gessel_T", "--point", "x=0,x=3/4", "--root", "1/2"
    )
    assert code == 1
    assert out == ""
    assert "'x'" in err


@pytest.mark.parametrize(
    "point, root, bad",
    [
        ("x=-12345678901/2", "1/2", "'-12345678901/2' in --point"),
        ("x=3/40000000000", "1/2", "'3/40000000000' in --point"),
        ("x=0.00000000001", "1/2", "'0.00000000001' in --point"),
        ("x=3/4", "12345678901/2", "'12345678901/2' in --root"),
    ],
)
def test_series_point_digits_bounded(capsys, point, root, bad):
    code, out, err = run(capsys, "series", "--which", "gessel_T", "--point", point, "--root", root)
    assert code == 1
    assert out == ""
    assert f"bad rational {bad}: more than 10 digits (cli.MAX_POINT_DIGITS)" in err


def test_series_point_digits_at_the_bound(capsys):
    # r = 99991/99989: x = 1 - r^2 = -399960/9997800121 has a 10-digit denominator
    code, out, err = run(
        capsys, "series", "--which", "gessel_T",
        "--point", "x=-399960/9997800121", "--root", "99991/99989", "--order", "3",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["t^0: 1", "t^1: 1"]


def _format_fails(original, good):
    """A method that works ``good`` times and then raises as Python's
    4300-digit int-to-string limit does."""
    calls = iter(range(good))

    def method(self):
        if next(calls, None) is None:
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
        return original(self)

    return method


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--which", "no_pdd_U0", "--order", "12"),
        ("series", "--which", "no_pdd_U0", "--order", "12", "--egf", "--format", "json"),
    ],
)
def test_series_failing_partway_writes_no_stdout(monkeypatch, capsys, argv):
    from fractions import Fraction

    monkeypatch.setattr(Fraction, "__str__", _format_fails(Fraction.__str__, 5))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "4300 digits" in err


def test_verify_failing_partway_writes_no_stdout(monkeypatch, capsys):
    monkeypatch.setattr(CheckReport, "summary_line", _format_fails(CheckReport.summary_line, 2))
    code, out, err = run(capsys, "verify")
    assert (code, out) == (1, "")
    assert "4300 digits" in err


def test_series_no_pdd_rejects_point(capsys):
    code, out, err = run(
        capsys, "series", "--which", "no_pdd_U0", "--point", "x=1", "--order", "3"
    )
    assert code == 1
    assert out == ""
    assert "no_pdd_U0" in err and "no point" in err


@pytest.mark.parametrize(
    "form, unread",
    [
        (("gen_z", "--point=x=3,y=3/2,z=17/54,w=5/3,q=1", "--root=5/2"), "q"),
        (("gessel_T", "--point=x=48/49,y=2", "--root=1/7"), "y"),
        (("elizalde_noy_U", "--point=x=1,y=13/4", "--root=15/4"), "x"),
    ],
)
def test_series_rejects_unread_point_variables(capsys, form, unread):
    code, out, err = run(capsys, "series", "--which", *form, "--order", "3")
    assert code == 1
    assert out == ""
    assert f"also assigns {unread}" in err


def test_bad_flags_exit_1(capsys):
    code, _, err = run(capsys, "bogus-subcommand")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "table", "--kind", "descents", "--n", "2")
    assert code == 1
    code, _, err = run(capsys, "table", "--kind", "peak_dd", "--n", "6", "--jobs", "2")
    assert code == 1
    code, _, err = run(capsys, "table", "--kind", "peak_dd", "--n", "6", "--cap", "10")
    assert code == 1
    assert "--cap" in err


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert out == f"gramcalc {gramcalc.__version__}\n" == "gramcalc 0.1.0\n"
    assert err == ""


def _modules_loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``statement``."""
    code = (
        "import sys\nbefore = set(sys.modules)\n"
        f"{statement}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stderr.split())


# The command line reads its own option table: building an argparse parser
# took longer than a small table request computes.
_PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_cli_import_does_not_load_dataclasses():
    # Every CLI request is a fresh process, so import cost is paid each time;
    # these modules are slow to import and the CLI needs none of them.
    loaded = _modules_loaded("import gramcalc.cli")
    assert "gramcalc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", *_PARSER_MODULES}


def test_import_gramcalc_loads_no_leg():
    loaded = _modules_loaded("import gramcalc")
    assert "gramcalc" in loaded
    assert not {name for name in loaded if name.startswith("gramcalc.")}


_TABLE_SKIPS = {
    "gramcalc.grammar", "gramcalc.laurent", "gramcalc.series", "gramcalc.verify",
    "gramcalc.gdsl", "fractions",
}


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["table", "--kind", "peak_dd", "--n", "5"], _TABLE_SKIPS | {"json"}),
        (["table", "--kind", "exterior_pdd", "--n", "6", "--triangle", "T",
          "--format", "json"], _TABLE_SKIPS),
        (["derive", "--grammar", "paper_G", "--start", "z", "--n", "4"],
         {"gramcalc.permstat", "gramcalc.verify"}),
        (["series", "--which", "gen_z", "--point", "x=4,y=2,z=1,w=3", "--root", "3",
          "--order", "6"], {"gramcalc.permstat", "gramcalc.verify", "gramcalc.gdsl"}),
        (["verify", "--check", "invariants", "--max-n", "3", "--order", "3"], {"gramcalc.gdsl"}),
    ],
    ids=["table", "triangle_json", "derive", "series", "verify"],
)
def test_request_imports_only_its_legs(argv, skipped):
    # A request pays for importing each leg it loads, so it loads only the
    # legs its command runs, and no argument parser library.
    loaded = _modules_loaded(f"from gramcalc.cli import main\nassert main({argv!r}) == 0")
    assert "gramcalc.cli" in loaded
    assert not loaded & (skipped | _PARSER_MODULES)


def test_verify_negative_enum_limit_rejected(capsys):
    # --enum-limit no longer exists; it is rejected as an unknown flag.
    code, out, err = run(
        capsys, "verify", "--check", "closed_forms", "--order", "4", "--enum-limit", "-5"
    )
    assert code == 1
    assert out == ""
    assert "enum" in err
    assert "--enum-limit" in err


@pytest.mark.parametrize(
    "flag, value, limit",
    [
        ("--max-n", "25", "24"),
        ("--max-n", "-1", "24"),
        ("--order", "26", "25"),
        ("--order", "-1", "25"),
    ],
)
def test_verify_bounds_checked_before_any_check(capsys, monkeypatch, flag, value, limit):
    import gramcalc.verify as verify_module

    ran = []
    for check_id in verify_module.CHECK_IDS:
        monkeypatch.setattr(
            verify_module, f"check_{check_id}",
            lambda *args, _id=check_id, **kwargs: ran.append(_id) or CheckReport(_id, 0, True),
        )
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 1
    assert out == ""
    assert flag in err and limit in err
    assert ran == []


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "invariants")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "joint_ep_pdd", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"check": "joint_ep_pdd", "limit": 4, "passed": True, "first_failure": None}
    ]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import gramcalc.verify as verify_module

    def fake_run_checks(ids, max_n, order):
        return [CheckReport("joint_ep_pdd", 4, False, "n=1: expected 0, got 1")]

    monkeypatch.setattr(verify_module, "run_checks", fake_run_checks)
    code, out, _ = run(capsys, "verify")
    assert code == 2
    assert out.startswith("FAIL")
