"""Command-line front end: derivation, tables, series, verification.

Exit status: 0 on success, 1 on bad flags or bad input (with a diagnostic on
stderr), 2 when a verification check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from ._names import BUILTIN_GRAMMAR_NAMES, CHECK_IDS, CLOSED_FORMS, TABLE_KINDS, TRIANGLES

if TYPE_CHECKING:
    from .gdsl import GrammarSpec
    from .grammar import Grammar
    from .series import EvalPoint


#: The largest ``.gram`` file ``derive --grammar`` reads, in bytes.
MAX_GRAMMAR_BYTES = 1 << 20

#: The most digits in the numerator or the denominator of a ``--point`` or
#: ``--root`` value, once reduced.  Closed-form work grows with these digits
#: times the order; at this bound every form prints at ``series.MAX_ORDER``.
MAX_POINT_DIGITS = 10


class CliError(Exception):
    pass


class _Done(Exception):
    """``--help`` or ``--version`` printed its text; ``args[0]`` is the status."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exiting with status 2
        raise CliError(message)

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


def _load_grammar(source: str) -> tuple[Grammar, GrammarSpec | None]:
    if source in BUILTIN_GRAMMAR_NAMES:
        from .grammar import builtin_grammar

        return builtin_grammar(source), None
    if source.endswith(".gram") or os.path.exists(source):
        from .gdsl import parse_grammar

        with open(source, "rb") as handle:
            data = handle.read(MAX_GRAMMAR_BYTES + 1)
        if len(data) > MAX_GRAMMAR_BYTES:
            raise CliError(
                f"grammar file '{source}' exceeds the limit of {MAX_GRAMMAR_BYTES} bytes"
            )
        spec = parse_grammar(data.decode("utf-8"))
        return spec.to_grammar(name=os.path.basename(source)), spec
    raise CliError(
        f"unknown grammar '{source}': not a builtin "
        f"({', '.join(BUILTIN_GRAMMAR_NAMES)}) and not a file"
    )


def _json(payload) -> str:
    import json  # only --format json needs it

    return json.dumps(payload)


def _rational(text: str, flag: str):
    """``text`` as a Fraction: ``p``, ``p/q`` or a plain decimal, no exponent part.

    The reduced numerator and denominator have at most ``MAX_POINT_DIGITS`` digits.
    """
    from fractions import Fraction

    try:
        if "e" in text.lower():  # 1e9999999 would build a huge integer
            raise ValueError("exponent notation is not accepted")
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) >= 10**MAX_POINT_DIGITS:
            raise ValueError(f"more than {MAX_POINT_DIGITS} digits (cli.MAX_POINT_DIGITS)")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r} in {flag}: {exc}") from None


def _parse_point(text: str | None, root: str | None) -> EvalPoint | None:
    if text is None:
        if root is not None:
            raise CliError("--root given without --point")
        return None
    from .series import EvalPoint

    assignment = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece or "=" not in piece:
            raise CliError(f"bad point component {piece!r} (expected var=rational)")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name in assignment:
            raise CliError(f"variable '{name}' is assigned twice in --point")
        assignment[name] = _rational(value, "--point")
    root_value = None if root is None else _rational(root, "--root")
    return EvalPoint(assignment, root_value)


# Each command returns its exit status and its stdout lines, and ``main`` writes
# them only then: a request that exits 1 writes nothing to stdout.


def _cmd_derive(args) -> tuple[int, list[str]]:
    from .grammar import derive_n

    grammar, spec = _load_grammar(args.grammar)
    if args.start is not None:
        from .gdsl import parse_poly

        allowed = set(grammar.rules) | set(grammar.inert)
        start = parse_poly(args.start, allowed)
    elif spec is not None and spec.start is not None:
        start = spec.start
    else:
        raise CliError("no start word: pass --start or add 'start:' to the .gram file")
    n = args.n
    if n is None and spec is not None:
        n = spec.default_n
    if n is None:
        raise CliError("no order: pass --n or add 'n:' to the .gram file")
    result = derive_n(start, grammar, n).items[n]
    order = grammar.display_order()
    if args.format == "json":
        payload = {
            "grammar": grammar.name,
            "start": start.format(order),
            "n": n,
            "derivative": result.to_json_obj(),
        }
        return 0, [_json(payload)]
    return 0, [result.format(order)]


def _cmd_table(args) -> tuple[int, list[str]]:
    from . import permstat

    table = permstat.stat_table(args.n, args.kind)
    if args.triangle:
        rows = permstat.specialize_triangle(table, args.triangle)
        if args.format == "csv":
            return 0, [permstat.triangle_csv(args.n, rows)]
        if args.format == "json":
            payload = {
                "n": args.n,
                "triangle": args.triangle,
                "rows": [{"k": k, "count": c} for k, c in rows],
            }
            return 0, [_json(payload)]
        return 0, [f"k={k}  count={count}" for k, count in rows]
    if args.format == "csv":
        return 0, [permstat.table_csv(table)]
    if args.format == "json":
        payload = {
            "n": table.n,
            "kind": table.kind,
            "counts": permstat.table_json_dict(table),
        }
        return 0, [_json(payload)]
    return 0, [f"{key}  count={count}" for key, count in sorted(table.counts.items())]


def _cmd_series(args) -> tuple[int, list[str]]:
    from .series import closed_form

    point = _parse_point(args.point, args.root)
    series = closed_form(args.which, point, args.order)
    values = series.egf_coefficients() if args.egf else list(series.coeffs)
    if args.format == "json":
        payload = {
            "which": args.which,
            "order": args.order,
            "egf": bool(args.egf),
            "coefficients": [str(v) for v in values],
        }
        return 0, [_json(payload)]
    return 0, [f"t^{n}: {value}" for n, value in enumerate(values)]


def _cmd_verify(args) -> tuple[int, list[str]]:
    from .verify import run_checks

    ids = (args.check,) if args.check else None
    reports = run_checks(ids, max_n=args.max_n, order=args.order)
    status = 0 if all(r.passed for r in reports) else 2
    if args.format == "json":
        return status, [_json([r.to_json_obj() for r in reports])]
    return status, [report.summary_line() for report in reports]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    commands = {
        "derive": _cmd_derive, "table": _cmd_table, "series": _cmd_series, "verify": _cmd_verify,
    }
    try:
        args = parser.parse_args(argv)
        status, lines = commands[args.command](args)
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return status
    except _Done as done:
        return done.args[0]
    except (CliError, ValueError, OSError) as exc:  # InadmissiblePointError is a ValueError
        print(f"gramcalc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
