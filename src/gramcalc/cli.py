"""Command-line front end: derivation, tables, series, verification.

Exit status: 0 on success, 1 on bad flags or bad input (with a diagnostic on
stderr), 2 when a verification check fails.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
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

#: The most digits of any integer a request prints: a numerator, denominator
#: or exponent of a ``derive`` result (or of its start word, in JSON), or a
#: ``series`` coefficient's numerator or denominator.  It is CPython's default limit on printing an integer, checked
#: before any text is formatted, so an over-size request exits 1 on every
#: interpreter.
MAX_OUTPUT_DIGITS = 4300


class CliError(Exception):
    pass


#: Each command's help and options.  An option maps to its type (``str``,
#: ``int``, ``bool`` for a flag, or the tuple of values it accepts), its
#: default, whether it is required, and its help.
_COMMANDS = {
    "derive": ("print an iterated formal derivative", {
        "--grammar": (str, None, True, f"{', '.join(BUILTIN_GRAMMAR_NAMES)} or a .gram file"),
        "--start": (str, None, False, "start word (DSL term syntax)"),
        "--n": (int, None, False, "derivative order"),
        "--format": (("text", "json"), "text", False, "output format"),
    }),
    "table": ("print a permutation statistic table", {
        "--kind": (TABLE_KINDS, None, True, "the statistics the table counts"),
        "--n": (int, None, True, "permutations of 1..n"),
        "--triangle": (TRIANGLES, None, False, "print this marginal triangle, not the table"),
        "--format": (("text", "json", "csv"), "text", False, "output format"),
    }),
    "series": ("expand a closed-form series exactly", {
        "--which": (CLOSED_FORMS, None, True, "the closed form"),
        "--point": (str, None, False, "comma list of var=rational, e.g. x=4,y=2,z=1,w=3"),
        "--root": (str, None, False, "exact square root of the discriminant"),
        "--order": (int, 12, False, "the last power of t"),
        "--egf": (bool, False, False, "print n! times the coefficients, not the coefficients"),
        "--format": (("text", "json"), "text", False, "output format"),
    }),
    "verify": ("run the verification suite", {
        "--check": (CHECK_IDS, None, False, "run one check only"),
        "--max-n": (int, 8, False, "the largest n the derivative checks compare"),
        "--order": (int, 12, False, "the largest order the closed forms are compared to"),
        "--format": (("text", "json"), "text", False, "output format"),
    }),
}

_HELP = ("-h", "--help")


def _read(arg: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """None if ``arg`` is a value, else the option of ``names`` it names (None
    if none) and the text after its ``=``.  An option may be shortened to a
    unique prefix; a value may begin with ``-`` only if it is a negative
    number or holds a space."""
    if arg[:1] != "-" or len(arg) == 1:
        return None
    head, eq, tail = arg.partition("=")
    if arg in names or eq and head in names:
        return head, tail if eq else None
    if arg[1] == "-":
        found = [(name, tail if eq else None) for name in names if name.startswith(head)]
        if len(found) > 1:
            raise CliError(f"ambiguous option: {arg} could match {', '.join(n for n, _ in found)}")
        if found:
            return found[0]
    elif arg[1] == "h":  # -hh is -h -h
        return "-h", arg[2:]
    # argparse's ^-\d+$|^-\d*\.\d+$, where $ also matches before a last newline
    whole, dot, part = arg[1:].removesuffix("\n").partition(".")
    if (whole.isdecimal() or dot and not whole) and (part.isdecimal() or not dot) or " " in arg:
        return None
    return None, None


def _scan(args: list[str], names: tuple[str, ...]) -> list:
    """``_read`` of every argument before any is acted on; after ``--``, every
    argument is a value, and ``--`` itself is neither a value nor an option."""
    cut = args.index("--") if "--" in args else len(args)
    reads = [_read(arg, names) for arg in args[:cut]]
    return reads + [("--", None)] * (cut < len(args)) + [None] * (len(args) - cut - 1)


def _flag(name: str, explicit: str | None) -> None:
    if explicit is not None and not (name == "-h" and explicit and not explicit.strip("h")):
        raise CliError(f"argument {name}: ignored explicit argument {explicit!r}")


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise CliError(f"argument {name}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise CliError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The command and its option values, or the text ``--help`` or ``--version``
    asks for.  Each option acts where it stands, so an error before ``--help``
    wins over it; the last value given for an option wins."""
    extras, reads = [], _scan(argv, (*_HELP, "--version"))
    for at, (arg, read) in enumerate(zip(argv, reads)):
        if read is None or read[0] == "--":
            break
        if read[0] is None:
            extras.append(arg)
            continue
        _flag(*read)
        return _help(None) if read[0] in _HELP else f"gramcalc {__version__}"
    else:
        raise CliError("the following arguments are required: command")
    command, args = argv[at], argv[at + 1:]
    if command not in _COMMANDS:
        choices = ", ".join(_COMMANDS)
        raise CliError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = _COMMANDS[command][1]
    values = {name[2:].replace("-", "_"): spec[1] for name, spec in options.items()}
    given, reads, at = set(), _scan(args, (*_HELP, *options)), 0
    while at < len(args):
        name, explicit = reads[at] or (None, None)
        at += 1
        if name in _HELP:
            _flag(name, explicit)
            return _help(command)
        if name not in options:  # a value, "--" or an unknown option
            extras.append(args[at - 1])
            continue
        kind = options[name][0]
        if kind is bool:
            _flag(name, explicit)
        elif explicit is None:
            if at == len(args) or reads[at] is not None:
                raise CliError(f"argument {name}: expected one argument")
            explicit, at = args[at], at + 1
        values[name[2:].replace("-", "_")] = True if kind is bool else _value(name, kind, explicit)
        given.add(name)
    missing = [name for name, spec in options.items() if spec[2] and name not in given]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise CliError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **values)


def _help(command: str | None) -> str:
    """The ``--help`` text of ``command``, or of ``gramcalc`` itself."""
    rows = [("-h, --help", "show this help text and exit")]
    if command is None:
        about, heading = (__doc__ or "").strip(), "commands and options"
        rows[:0] = [(name, text) for name, (text, _) in _COMMANDS.items()]
        rows.append(("--version", "print the version and exit"))
    else:
        (about, options), heading = _COMMANDS[command], "options"
        metavars = {bool: "", int: " N", str: " TEXT"}
        for name, (kind, default, required, text) in options.items():
            metavar = f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else metavars[kind]
            note = " (required)" if required else f" (default: {default})" if default else ""
            rows.append((name + metavar, text + note))
    lines = [f"usage: gramcalc {command or 'COMMAND'} [OPTION ...]", "", about, "", f"{heading}:"]
    for flag, text in rows:
        lines += [f"  {flag}", f"      {text}"]
    return "\n".join(lines)


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


def _check_digits(values) -> None:
    """Refuse the first ``(name, integer)`` of ``values`` with more than
    ``MAX_OUTPUT_DIGITS`` digits.  It is measured against a power of ten, as
    the text of such an integer is what an interpreter may refuse to build."""
    limit = 10**MAX_OUTPUT_DIGITS
    for name, value in values:
        if not -limit < value < limit:
            raise CliError(
                f"{name} has more than {MAX_OUTPUT_DIGITS} digits (cli.MAX_OUTPUT_DIGITS)"
            )


def _printed_integers(poly, what: str):
    """The integers ``poly.format()`` and ``poly.to_json_obj()`` print, named, in display order."""
    for mono, coeff in poly.sorted_terms():
        yield f"a coefficient of {what}", coeff.numerator
        yield f"a coefficient of {what}", coeff.denominator
        for name, exp in mono:
            yield f"the exponent of {name} in {what}", exp


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
    _check_digits(_printed_integers(result, f"the order-{n} derivative"))
    if args.format == "json":
        _check_digits(_printed_integers(start, "the start word"))
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
    kind = "EGF coefficient" if args.egf else "coefficient"
    _check_digits(
        (f"the {kind} of t^{n}", part)
        for n, value in enumerate(values)
        for part in (value.numerator, value.denominator)
    )
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
    commands = {
        "derive": _cmd_derive, "table": _cmd_table, "series": _cmd_series, "verify": _cmd_verify,
    }
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        status, lines = (0, [args]) if isinstance(args, str) else commands[args.command](args)
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return status
    except (CliError, ValueError, OSError) as exc:  # InadmissiblePointError is a ValueError
        print(f"gramcalc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
