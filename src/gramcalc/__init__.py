"""Exact grammar calculus on Laurent polynomials, with a permutation oracle.

The package has three legs that check each other: a formal-derivative engine
over substitution grammars (`grammar`, on top of `laurent`), a
permutation-statistics oracle (`permstat`), and a truncated exponential
generating series engine with exact closed forms (`series`).  The statistic
tables come from a transfer recurrence over S_n that grows a permutation one
letter at a time; the tests check it against brute force over S_n.  The
`verify` module binds the legs into named cross-checks and `cli` exposes
everything on the command line.

Importing the package loads none of the legs.  Each leg is imported on first
use: when a public name such as ``gramcalc.stat_table`` or a submodule such
as ``gramcalc.series`` is first looked up (PEP 562), so that a command-line
request pays only for the legs it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, grouped under the leg that defines it.
_LEGS = {
    "gdsl": ("GrammarSpec", "GrammarSyntaxError", "format_grammar", "parse_grammar", "parse_poly"),
    "grammar": (
        "BUILTIN_GRAMMAR_NAMES",
        "DerivativeSequence",
        "Grammar",
        "builtin_grammar",
        "derive",
        "derive_n",
        "leibniz_check",
    ),
    "laurent": ("LaurentPolynomial",),
    "permstat": (
        "StatProfile",
        "StatTable",
        "specialize_triangle",
        "stat_profile",
        "stat_table",
        "table_to_poly",
        "triangle_poly",
    ),
    "series": (
        "CLOSED_FORMS",
        "EvalPoint",
        "InadmissiblePointError",
        "LAURENT",
        "RATIONALS",
        "TruncatedSeries",
        "closed_form",
        "exp_series",
        "gen_series",
    ),
    "verify": ("CheckReport", "run_checks"),
}
_ORIGIN = {name: leg for leg, names in _LEGS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Import a leg, or the leg that defines a public name, on first use."""
    if name in _LEGS:
        return import_module(f".{name}", __name__)
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LEGS})
