"""Command-line front end: derivation, tables, series, verification.

Exit status: 0 on success, 1 on bad flags or bad input (with a diagnostic on
stderr), 2 when a verification check fails.
"""

# The docstring above is the text of ``gramcalc --help``.  The process entry
# point, for ``python -m gramcalc.cli`` and the ``gramcalc`` script, is
# ``run()``, which ends the process without interpreter teardown;
# ``main(argv)`` serves one request and returns its exit status.

from __future__ import annotations

import atexit
import errno
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from ._names import BUILTIN_GRAMMAR_NAMES, CHECK_IDS, CLOSED_FORMS, TABLE_KINDS, TRIANGLES

if TYPE_CHECKING:
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
#: ``series`` coefficient's numerator or denominator.  It is CPython's default
#: limit on printing an integer, checked before any text is formatted, so an
#: over-size request exits 1 on every interpreter.
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


def _load_grammar(source: str) -> Grammar:
    if source in BUILTIN_GRAMMAR_NAMES:
        from .grammar import builtin_grammar

        return builtin_grammar(source)
    if source.endswith(".gram") or os.path.exists(source):
        from .gdsl import parse_grammar

        with open(source, "rb") as handle:
            data = handle.read(MAX_GRAMMAR_BYTES + 1)
        if len(data) > MAX_GRAMMAR_BYTES:
            raise CliError(
                f"grammar file '{source}' exceeds the limit of {MAX_GRAMMAR_BYTES} bytes"
            )
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # The decoder reports a position after a byte order mark it strips.
            at = exc.start + len(data) - len(exc.object)
            raise CliError(
                f"grammar file '{source}' is not UTF-8 text ({exc.reason} at byte {at})"
            ) from None
        return parse_grammar(text)._replace(name=os.path.basename(source))
    raise CliError(
        f"unknown grammar '{source}': not a builtin "
        f"({', '.join(BUILTIN_GRAMMAR_NAMES)}) and not a file"
    )


def _json(payload) -> str:
    import json  # only --format json needs it

    return json.dumps(payload)


def _rational(text: str, flag: str):
    """``text`` as a Fraction: ``p``, ``p/q`` or a plain decimal, no exponent part.

    Only ASCII digits, signs, ``.`` and ``/`` are read, so that every supported
    interpreter's ``Fraction`` takes the same values (3.11 added ``3_0/4_0``,
    3.12 ``3 / 4``).  The reduced numerator and denominator have at most
    ``MAX_POINT_DIGITS`` digits.
    """
    from fractions import Fraction

    try:
        stray = set(text.strip()) - set("0123456789+-./")
        if stray and stray <= {"e", "E"}:  # 1e9999999 would build a huge integer
            raise ValueError("exponent notation is not accepted")
        if stray:
            raise ValueError("expected p, p/q or a plain decimal")
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) >= 10**MAX_POINT_DIGITS:
            raise ValueError(f"more than {MAX_POINT_DIGITS} digits (cli.MAX_POINT_DIGITS)")
        return value
    except ZeroDivisionError:
        raise CliError(f"bad rational {text!r} in {flag}: the denominator is zero") from None
    except ValueError as exc:
        raise CliError(f"bad rational {text!r} in {flag}: {exc}") from None


def _parse_point(text: str | None, root: str | None) -> EvalPoint | None:
    if text is None:
        if root is not None:
            raise CliError("--root given without --point")
        return None
    from .laurent import check_variable_name
    from .series import EvalPoint

    assignment = {}
    for piece in text.split(","):
        piece = piece.strip()
        name, eq, value = piece.partition("=")
        try:  # a component without "=" names nothing
            name = check_variable_name(name.strip() if eq else None)
        except ValueError:
            raise CliError(f"bad point component {piece!r} (expected var=rational)") from None
        if name in assignment:
            raise CliError(f"variable '{name}' is assigned twice in --point")
        assignment[name] = _rational(value, "--point")
    root_value = None if root is None else _rational(root, "--root")
    return EvalPoint(assignment, root_value)


def _check_digits(values, name) -> None:
    """Refuse the first ``(key, integer)`` of ``values`` with more than
    ``MAX_OUTPUT_DIGITS`` digits, named by ``name(key)``: only that one name is
    formatted.  It is measured against a power of ten, as the text of such an
    integer is what an interpreter may refuse to build."""
    limit = 10**MAX_OUTPUT_DIGITS
    for key, value in values:
        if not -limit < value < limit:
            raise CliError(
                f"{name(key)} has more than {MAX_OUTPUT_DIGITS} digits (cli.MAX_OUTPUT_DIGITS)"
            )


def _printable_terms(poly, what: str) -> list:
    """``poly.sorted_terms()``, which text and JSON print, once every integer in
    it (numerator, denominator, then exponents of each term) passes ``_check_digits``."""
    terms = poly.sorted_terms()
    _check_digits(
        # A coefficient's parts are keyed None, an exponent by its variable.
        ((key, value) for mono, c in terms
         for key, value in ((None, c.numerator), (None, c.denominator), *mono)),
        lambda key: f"the exponent of {key} in {what}" if key else f"a coefficient of {what}",
    )
    return terms


# Each command returns its exit status and its stdout lines, and ``main`` writes
# them only then: a request that exits 1 writes nothing to stdout.


def _cmd_derive(args) -> tuple[int, list[str]]:
    from .grammar import iter_derive
    from .laurent import format_terms

    grammar = _load_grammar(args.grammar)
    # A builtin grammar has no file to add a default to.
    hint = "" if args.grammar in BUILTIN_GRAMMAR_NAMES else " or add '{}:' to the .gram file"
    start = grammar.start
    if args.start is not None:
        from .gdsl import parse_poly

        start = parse_poly(args.start, dict(grammar.rules).keys() | grammar.inert)
    if start is None:
        raise CliError("no start word: pass --start" + hint.format("start"))
    n = grammar.default_n if args.n is None else args.n
    if n is None:
        raise CliError("no order: pass --n" + hint.format("n"))
    for result in iter_derive(start, grammar, n):  # only D^n is kept
        pass
    terms = _printable_terms(result, f"the order-{n} derivative")
    if args.format == "json":
        payload = {
            "grammar": grammar.name,
            "start": format_terms(_printable_terms(start, "the start word"), grammar.var_order),
            "n": n,
            "derivative": [{"coeff": str(c), "exps": dict(mono)} for mono, c in terms],
        }
        return 0, [_json(payload)]
    return 0, [format_terms(terms, grammar.var_order)]


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
        ((n, part) for n, value in enumerate(values)
         for part in (value.numerator, value.denominator)),
        lambda n: f"the {kind} of t^{n}",
    )
    if args.format == "json":
        payload = {
            "which": args.which,
            "order": args.order,
            "egf": bool(args.egf),
            "coefficients": [str(v) for v in values],
        }
        return 0, [_json(payload)]
    # str(), as in the JSON: Fraction.__format__ no longer calls it from Python 3.13 on
    return 0, [f"t^{n}: {value!s}" for n, value in enumerate(values)]


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
        if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()  # a full disk or a closed pipe is reported here, not at exit
        return status
    except (CliError, ValueError, OSError) as exc:  # InadmissiblePointError is a ValueError
        print(f"gramcalc: error: {exc}", file=sys.stderr)
        return 1


def _end(status: int) -> NoReturn:
    """The last step of ``run``: end the process with ``status`` as soon as the
    ``atexit`` callbacks registered before it have run."""
    atexit.unregister(_end)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # main has reported a failed write; bytes it left are dropped
                pass
    os._exit(status)


def run() -> NoReturn:
    """The process entry point: ``main()``, then exit with its status.

    The exit is a ``sys.exit``, so other threads are joined and a profiler or
    a tracer that runs the module still prints its report; then the first
    ``atexit`` callback, ``_end``, runs the others and ends the process without
    interpreter teardown (clearing every module, the last garbage
    collections), which takes longer than a small request computes.  The
    status is ``main``'s even where such a tool catches the ``SystemExit``.
    """
    status = main()
    atexit.register(_end, status)
    sys.exit(status)


if __name__ == "__main__":
    run()
