"""``cli._parse`` against the argparse parser it replaced.

For every argv, both parsers give the same option values, or both reject it
(``main`` exits 1), or both ask for the help or the version (``main`` exits 0
after printing it).  The help text itself is new and pinned here.
"""

import sys

import _cli_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramcalc import cli
from gramcalc._names import BUILTIN_GRAMMAR_NAMES, CHECK_IDS, CLOSED_FORMS, TABLE_KINDS, TRIANGLES
from gramcalc.cli import main

ON_3_11 = sys.version_info[:2] == (3, 11)


def _stuck_to_h(argv) -> bool:
    return any(arg[:2] == "-h" and arg != "-h" for arg in argv)


# Argparse up to 3.12.1 reads text stuck to -h as more short options, and all
# of it must be -h: -hh is -h -h, while -hx and -h= are errors.  Argparse 3.13
# reads -hx as -h.  The 3.11 reading is kept on every version, so these argvs
# are compared with argparse on 3.11 only and pinned below.
_ONLY_ON_3_11 = pytest.mark.skipif(not ON_3_11, reason="argparse 3.11 reading of -hx is pinned")


@pytest.mark.parametrize(
    "argv", [pytest.param(a, marks=_ONLY_ON_3_11) if _stuck_to_h(a) else a for a in ref.CORPUS],
)
def test_corpus_reads_as_argparse(argv):
    assert ref.parsed(argv) == ref.reference(argv)


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["-hh"], ("help",)),
        (["-h=h"], ("help",)),
        (["-hx"], ("error",)),
        (["-h="], ("error",)),
        (["verify", "-hv"], ("error",)),
        (["table", "-hhh", "--bogus"], ("help",)),
    ],
)
def test_text_stuck_to_h(argv, outcome):
    assert ref.parsed(argv) == outcome


# Argparse before 3.13 drops a "--" given after "=" and stores [] as the
# option's value: `verify --check=--` ran every check and `derive --n=--`
# failed with a traceback.  The option table reads "--" as the value, as
# argparse 3.13 does, so the value's type and choices decide.
@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["table", "--kind", "peak_dd", "--n", "5", "--triangle=--"], ("error",)),
        (["derive", "--grammar", "paper_G", "--n=--"], ("error",)),
        (["derive", "--grammar", "paper_G", "--format=--"], ("error",)),
        (["verify", "--check=--"], ("error",)),
        (["derive", "--grammar", "paper_G", "--st=--"], ("ok", {
            "command": "derive", "grammar": "paper_G", "start": "--", "n": None, "format": "text",
        })),
    ],
)
def test_double_dash_after_equals_is_the_value(argv, outcome):
    assert ref.parsed(argv) == outcome


@st.composite
def _mutated_argvs(draw):
    return ref.mutated_argv(lambda options: draw(st.sampled_from(options)))


@settings(max_examples=300, deadline=None)
@given(_mutated_argvs())
def test_mutated_argvs_read_as_argparse(argv):
    assume(ON_3_11 or not _stuck_to_h(argv))
    assert ref.parsed(argv) == ref.reference(argv)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table", "--kind", "peak_dd", "--n", "5", "--jobs", "2"], "--jobs"),
        (["table", "--kind", "peak_dd"], "--n"),
        (["table", "--kind", "descents", "--n", "5"], "--kind"),
        (["table", "--kind", "peak_dd", "--n", "five"], "--n"),
        (["series", "--which", "gessel_T", "--root", "-1/2"], "--root"),
        (["series", "--which", "gessel_T", "--egf=yes"], "--egf"),
        (["derive", "--grammar", "paper_G", "--=x"], "--=x"),
        (["verify", "--max-n"], "--max-n"),
        (["verify", "extra"], "extra"),
        (["bogus"], "bogus"),
    ],
)
def test_errors_name_the_offending_flag(capsys, argv, flag):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gramcalc: error: ")
    assert flag in captured.err


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gramcalc", "table", "--kind", "exterior_pdd", "--n=3"])
    assert main() == 0
    assert capsys.readouterr().out == "(0, 0)  count=1\n(1, 0)  count=4\n(1, 1)  count=1\n"


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_command_option_and_choice(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: gramcalc ")
    if command is None:
        for name, (about, _) in cli._COMMANDS.items():
            assert f"\n  {name}\n      {about}\n" in out
        assert "\n  --version\n" in out
        return
    for name, (kind, _, _, text) in cli._COMMANDS[command][1].items():
        assert text
        assert f"\n  {name}" in out and f"\n      {text}" in out
        for choice in kind if isinstance(kind, tuple) else ():
            assert choice in out
    named = {
        "derive": BUILTIN_GRAMMAR_NAMES, "table": TABLE_KINDS + TRIANGLES,
        "series": CLOSED_FORMS, "verify": CHECK_IDS,
    }
    assert all(name in out for name in named[command])


def test_help_text_is_pinned(capsys):
    assert main(["table", "-h"]) == 0
    assert capsys.readouterr().out == """\
usage: gramcalc table [OPTION ...]

print a permutation statistic table

options:
  -h, --help
      show this help text and exit
  --kind {exterior_pdd,peak_dd,carlitz_quadruple}
      the statistics the table counts (required)
  --n N
      permutations of 1..n (required)
  --triangle {T,U,R,W}
      print this marginal triangle, not the table
  --format {text,json,csv}
      output format (default: text)
"""
    assert main(["--he"]) == 0
    assert capsys.readouterr().out == f"""\
usage: gramcalc COMMAND [OPTION ...]

{cli.__doc__.strip()}

commands and options:
  derive
      print an iterated formal derivative
  table
      print a permutation statistic table
  series
      expand a closed-form series exactly
  verify
      run the verification suite
  -h, --help
      show this help text and exit
  --version
      print the version and exit
"""
