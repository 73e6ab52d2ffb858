"""The argparse parser of ``gramcalc.cli``, kept as a test reference.

``cli`` built this parser on every request until it read its own option
table instead.  ``_build_parser`` and ``_Parser`` are copied unchanged apart
from the exceptions they raise and this docstring; ``CORPUS`` holds the
corner cases of the accepted language and ``mutated_argv`` draws more.
``test_cli_parser`` compares ``cli._parse`` against this parser, and so does

    PYTHONPATH=src python tests/_cli_reference.py

with the standard library only: it prints every argv of the corpus, and of
5000 mutated ones, that the two read differently, and exits 1 if there is
one.  Argvs in a corner of ``CHANGED_CORNERS`` are compared only where the
installed argparse still reads it as 3.11 does.  It is not imported by the
package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from gramcalc import __version__, cli
from gramcalc._names import BUILTIN_GRAMMAR_NAMES, CHECK_IDS, CLOSED_FORMS, TABLE_KINDS, TRIANGLES


class _Error(Exception):
    pass


class _Done(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exiting with status 2
        raise _Error(message)

    def exit(self, status=0, message=None):  # --help/--version return from main
        raise _Done(status)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gramcalc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gramcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="print an iterated formal derivative")
    p_derive.add_argument(
        "--grammar", required=True,
        help=f"builtin name ({', '.join(BUILTIN_GRAMMAR_NAMES)}) or a .gram file",
    )
    p_derive.add_argument("--start", help="start word (DSL term syntax)")
    p_derive.add_argument("--n", type=int, help="derivative order")
    p_derive.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="print a permutation statistic table")
    p_table.add_argument("--kind", required=True, choices=TABLE_KINDS)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument(
        "--triangle", choices=TRIANGLES,
        help="print this marginal triangle instead of the full table",
    )
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_series = sub.add_parser("series", help="expand a closed-form series exactly")
    p_series.add_argument("--which", required=True, choices=CLOSED_FORMS)
    p_series.add_argument("--point", help="comma list of var=rational, e.g. x=4,y=2,z=1,w=3")
    p_series.add_argument("--root", help="exact square root of the discriminant")
    p_series.add_argument("--order", type=int, default=12)
    p_series.add_argument(
        "--egf", action="store_true",
        help="print n! times the coefficients instead of the raw coefficients",
    )
    p_series.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--check", choices=CHECK_IDS, help="run one check only")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--order", type=int, default=12)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_VERSION = f"gramcalc {__version__}"


def reference(argv: list[str]) -> tuple:
    """What argparse makes of ``argv``: ``("ok", vars(namespace))``,
    ``("error",)``, ``("help",)`` or ``("version",)``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = _build_parser().parse_args(list(argv))
    except _Error:
        return ("error",)
    except _Done as done:
        assert done.args[0] == 0
        return ("version",) if out.getvalue() == _VERSION + "\n" else ("help",)
    return ("ok", vars(namespace))


def parsed(argv: list[str]) -> tuple:
    """What ``cli._parse`` makes of ``argv``, in the form of ``reference``."""
    try:
        result = cli._parse(list(argv))
    except cli.CliError:
        return ("error",)
    if isinstance(result, str):
        return ("version",) if result == _VERSION else ("help",)
    return ("ok", vars(result))


_DERIVE = ["derive", "--grammar", "paper_G"]
_TABLE = ["table", "--kind", "peak_dd", "--n", "5"]
_SERIES = ["series", "--which", "gessel_T"]

#: Corner cases of the accepted language, one argv each.
CORPUS = [
    [],
    ["--version"], ["--vers"], ["--v"], ["--version", "bogus"], ["--version=x"], ["--version="],
    ["-h"], ["--help"], ["--he"], ["--h"], ["-hh"], ["-hhh"], ["-hx"], ["-h=x"], ["-h=h"], ["-h="],
    ["--help=x"], ["-h", "--version"], ["--version", "-h"], ["--bogus", "-h"], ["-x", "--help"],
    ["bogus"], ["bogus", "-h"], ["-1"], ["--", "table"], ["--"], ["--bogus"], ["--=x"],
    ["-h", "--=x"], ["--version", "--=x"], ["--bogus", *_TABLE], ["-h", *_TABLE],
    _TABLE, _TABLE + ["--"], ["--", *_TABLE], _TABLE[:3] + ["--", "--n", "5"], _TABLE + ["extra"],
    _TABLE + ["--version"], _TABLE + ["-h"], _TABLE + ["--he"], _TABLE + ["-hh"], _TABLE + ["-hx"],
    _TABLE + ["--help=x"], _TABLE + ["extra", "-h"], _TABLE + ["--jobs", "2"], _TABLE + ["--=x"],
    _TABLE + ["--", "--=x"], _TABLE + ["--=x", "-h"], _TABLE + ["-", "-h"],
    ["table", "--kind=peak_dd", "--n=5"], ["table", "--ki=peak_dd", "--n", "5", "--tri=T"],
    ["table", "--k", "exterior_pdd", "--n", "5", "--t", "W", "--f", "csv"],
    ["table", "--kind", "descents", "--n", "5"], ["table", "--kind", "descents", "-h"],
    ["table", "-h", "--kind", "descents"], ["table", "--n", "x", "-h"], ["table", "--n"],
    ["table", "--kind", "peak_dd", "--n", "-1"], ["table", "--kind", "peak_dd", "--n", "-x"],
    ["table", "--kind", "peak_dd", "--n", " 7 "], ["table", "--kind", "peak_dd", "--n", "1_0"],
    ["table", "--kind", "peak_dd", "--n", "+5"], ["table", "--kind", "peak_dd", "--n", "5.0"],
    ["table", "--kind", "peak_dd", "--n", "-1\n"], ["table", "--kind", "peak_dd", "--n", "-١"],
    ["table", "--kind", "peak_dd", "--n", "--format", "csv"], ["table", "--kind", "peak_dd"],
    ["table", "--n", "5"], ["table"], ["table", "--kind", "peak_dd", "--kind", "exterior_pdd",
                                      "--n", "5", "--n", "6"],
    ["table", "--kind", "peak_dd", "--n", "5", "--format=csv", "--format", "json"],
    ["table", "--kind", "peak_dd", "--n=5", "--triangle", ""],
    ["table", "--kind", "peak_dd", "--n", "5", "--format=json=x"],
    ["derive", "--grammar", "paper_G", "--start", "z", "--n", "4"],
    ["derive", "--grammar", "paper_G", "--start", "-3/2*x + y", "--n", "1"],
    ["derive", "--grammar", "paper_G", "--start", "-3/2*x+y", "--n", "1"],
    ["derive", "--grammar", "paper_G", "--start=-3/2*x+y", "--n", "1"],
    _DERIVE + ["--start", "-"], ["derive", "--grammar", "-", "--start", "--"],
    _DERIVE + ["--start", "- x"], _DERIVE + ["--n", "-1"],
    ["derive", "--gr", "paper_G", "--st", "z"], ["derive", "--g=x.gram", "--s= z"],
    ["derive", "--grammar", "paper_G", "--version"],
    ["derive", "--start", "z"], ["derive", "--grammar"], ["derive", "--grammar", "--start", "z"],
    ["derive", "--grammar", "paper_G", "--start", "-h"],
    ["derive", "--grammar", "paper_G", "--start", "--grammar x"],
    ["derive", "--grammar", "paper_G", "--start", "--gr=a b"],
    _DERIVE + ["--start", "-1.5"], _DERIVE + ["--start", "-.5"], _DERIVE + ["--start", "-1."],
    _DERIVE + ["--start", "-1e5"],
    [*_SERIES, "--point", "x=3/4", "--root", "1/2"], [*_SERIES, "--point=x=3/4", "--root=1/2"],
    [*_SERIES, "--root", "-1/2"], [*_SERIES, "--root=-1/2"], [*_SERIES, "--root", "-1"],
    [*_SERIES, "--root", "-0.5"], [*_SERIES, "--order", "-1"], [*_SERIES, "--order", "--egf"],
    [*_SERIES, "--egf"], [*_SERIES, "--e"], [*_SERIES, "--egf=x"], [*_SERIES, "--egf="],
    [*_SERIES, "--egf", "--egf"], [*_SERIES, "--egf", "1"], [*_SERIES, "--w", "gen_z"],
    ["series", "--which", "gen_zz"], ["series", "--egf"], [*_SERIES, "--point", "--root", "1"],
    [*_SERIES, "--point", "x=1", "--root", "-1/2 "],
    ["verify"], ["verify", "--max-n", "4", "--order", "3", "--check", "recurrence"],
    ["verify", "--max", "4"], ["verify", "--max_n", "4"], ["verify", "--m=-4"],
    ["verify", "--n", "4"],
    ["verify", "--check", "bogus"], ["verify", "--c", "invariants"],
    ["verify", "--enum-limit", "-5"], ["verify", "--format", "csv"], ["verify", "extra"],
    ["verify", "--"], ["verify", "-"], ["verify", "--", "-h"], ["verify", "-h", "--bogus"],
    ["verify", "--bogus", "-h"], ["verify", "--order"], ["verify", "--order", "1", "--order", "2"],
    ["verify", "--=x"], ["verify", "-v"], ["verify", "-hv"], ["verify", "-", "-"],
]


#: The corners that argparse 3.13 releases read differently from 3.10 to
#: 3.12.1, whose reading ``cli._parse`` keeps on every interpreter
#: (``test_cli_parser`` pins it): a probe argv, its old reading, and a test
#: for the argvs in the corner.
CHANGED_CORNERS = [
    # Text stuck to -h is more short options, all of which must be -h; 3.13.0 reads -hx as -h.
    (["-hx"], ("error",), lambda argv: any(arg[:2] == "-h" and arg != "-h" for arg in argv)),
    # "--=x" is an ambiguous prefix of every long option; later 3.13 releases read an unknown one.
    (["-h", "--=x"], ("error",), lambda argv: any(arg[:3] == "--=" for arg in argv)),
    # "--" before the command goes to the subparser; later 3.13 releases drop it.
    (["--", *_TABLE], ("error",), lambda argv: argv[:1] == ["--"]),
]
_READ_ANEW = [in_corner for probe, old, in_corner in CHANGED_CORNERS if reference(probe) != old]


def compared(argv: list[str]) -> bool:
    """Whether the installed argparse reads ``argv`` as 3.11 does, so that
    ``cli._parse`` must read it the same: it is in no corner that this
    argparse, asked the corner's probe, reads anew."""
    return not any(in_corner(argv) for in_corner in _READ_ANEW)


#: Valid argvs to mutate, and the arguments to mutate them with: commands,
#: option strings, their prefixes and near misses, and values.  ``OPTIONS``
#: are also joined to ``VALUES`` by ``=``; ``--`` is never such a value (see
#: ``test_cli_parser``).
BASES = [
    ["derive", "--grammar", "paper_G", "--start", "z", "--n", "4"],
    ["table", "--kind", "peak_dd", "--n", "5", "--triangle", "T", "--format", "csv"],
    ["series", "--which", "gessel_T", "--point", "x=3/4", "--root", "1/2", "--order", "5", "--egf"],
    ["verify", "--check", "invariants", "--max-n", "4", "--order", "3", "--format", "json"],
]
COMMANDS = ["derive", "table", "series", "verify", "bogus"]
OPTIONS = [
    "--grammar", "--gr", "--start", "--s", "--n", "--format", "--f", "--kind", "--k", "--triangle",
    "--which", "--point", "--root", "--r", "--order", "--o", "--egf", "--e", "--check", "--max-n",
    "--max", "--help", "--he", "-h", "-hh", "-hx", "--version", "--v", "--jobs", "-x", "--", "-",
]
VALUES = [
    "paper_G", "z", "-3/2*x + y", "-3/2*x+y", "5", "-1", "-1.5", "-.5", "-1.", "x", "text", "json",
    "csv", "peak_dd", "exterior_pdd", "T", "gen_z", "gessel_T", "x=3/4", "1/2", "-1/2",
    "invariants", "", " 7", "-1\n", "=", "h",
]


def mutated_argv(choose) -> list[str]:
    """One of ``BASES`` with up to four arguments inserted, deleted or
    replaced; ``choose(sequence)`` picks one item of a sequence."""
    argv = list(choose(BASES))
    for _ in range(choose(range(5))):
        at = choose(range(len(argv) + 1))
        word = choose(OPTIONS + VALUES + COMMANDS)
        if choose(range(4)) == 0:
            word = f"{choose(OPTIONS[:-2])}={choose(VALUES)}"
        edit = choose(("insert", "delete", "replace"))
        argv[at:at + (edit != "insert")] = [] if edit == "delete" else [word]
    return argv


def main() -> int:
    import random

    mutated = [mutated_argv(random.Random(seed).choice) for seed in range(5000)]
    found, counts = 0, []
    for name, argvs in (("corpus", CORPUS), ("mutated", mutated)):
        argvs = [argv for argv in argvs if compared(argv)]
        differ = [argv for argv in argvs if parsed(argv) != reference(argv)]
        for argv in differ:
            print(f"{argv!r}\n  argparse: {reference(argv)!r}\n  cli:      {parsed(argv)!r}")
        found += len(differ)
        counts.append(f"{len(differ)} of {len(argvs)} {name} argvs")
    print(
        f"Python {sys.version.split()[0]}: {' and '.join(counts)} read differently; "
        f"{len(CHANGED_CORNERS) - len(_READ_ANEW)} of {len(CHANGED_CORNERS)} changed corners compared"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
