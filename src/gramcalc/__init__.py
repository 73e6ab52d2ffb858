"""Exact grammar calculus on Laurent polynomials, with a permutation oracle.

The package has three legs that check each other: a formal-derivative engine
over substitution grammars (`grammar`, on top of `laurent`), a
permutation-statistics oracle (`permstat`), and a truncated exponential
generating series engine with exact closed forms (`series`).  The statistic
tables come from a transfer recurrence over S_n that grows a permutation one
letter at a time; the tests check it against brute force over S_n.  The
`verify` module binds the legs into named cross-checks and `cli` exposes
everything on the command line.
"""

from .gdsl import GrammarSpec, GrammarSyntaxError, format_grammar, parse_grammar, parse_poly
from .grammar import (
    BUILTIN_GRAMMAR_NAMES,
    DerivativeSequence,
    Grammar,
    builtin_grammar,
    derive,
    derive_n,
    leibniz_check,
)
from .laurent import LaurentPolynomial
from .permstat import (
    StatProfile,
    StatTable,
    specialize_triangle,
    stat_profile,
    stat_table,
    table_to_poly,
    triangle_poly,
)
from .series import (
    CLOSED_FORMS,
    EvalPoint,
    InadmissiblePointError,
    LAURENT,
    RATIONALS,
    TruncatedSeries,
    closed_form,
    exp_series,
    gen_series,
)
from .verify import CheckReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_GRAMMAR_NAMES",
    "CLOSED_FORMS",
    "CheckReport",
    "DerivativeSequence",
    "EvalPoint",
    "Grammar",
    "GrammarSpec",
    "GrammarSyntaxError",
    "InadmissiblePointError",
    "LAURENT",
    "LaurentPolynomial",
    "RATIONALS",
    "StatProfile",
    "StatTable",
    "TruncatedSeries",
    "builtin_grammar",
    "closed_form",
    "derive",
    "derive_n",
    "exp_series",
    "format_grammar",
    "gen_series",
    "leibniz_check",
    "parse_grammar",
    "parse_poly",
    "run_checks",
    "specialize_triangle",
    "stat_profile",
    "stat_table",
    "table_to_poly",
    "triangle_poly",
]
