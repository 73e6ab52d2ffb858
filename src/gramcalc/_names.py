"""The names and limits the command line offers, kept free of imports.

Each leg re-exports its own constants from here under its public name
(``grammar.MAX_N``, ``permstat.TABLE_KINDS``, ``series.CLOSED_FORMS``,
``verify.CHECK_IDS``, ``gdsl.MAX_VARIABLES`` and so on), so that ``cli`` can
list its options and their choices without importing any leg.
"""

#: Iterated derivatives grow factorially, so this is the largest derivative
#: order, and the largest n a statistic table is built for: every derivative
#: order has a table to check it.
MAX_N = 25

#: The most work the derivatives of one request may take.  Before each step,
#: the term products it may form (terms times the image terms of their ruled
#: variables) are charged one unit per variable plus 8, as a product's
#: coefficient and dict update cost about as much as 8 exponents.  At this
#: limit the slowest request found took about 3 s (2-vCPU VM, Python 3.11),
#: whatever the number of variables; the builtins use under 1 % of it.
MAX_DERIVE_WORK = 30_000_000

#: The most variables a ``.gram`` document declares or a polynomial written
#: in its term syntax uses.  Every term stores one exponent per variable of
#: its polynomial, so a word of N one-variable terms costs N^2 integers; at
#: this limit such a word parses and derives once in about 5 ms (2-vCPU VM,
#: Python 3.11), and the builtins use at most 4.
MAX_VARIABLES = 64

#: The most digits of an integer literal in a ``.gram`` document or in a
#: polynomial written in its term syntax.  This is CPython's default limit on
#: converting a string to an int, so no literal it converts is refused; where
#: the interpreter has no such limit, one literal near the 1 MiB file bound
#: took 8.5-10 s to convert (2-vCPU VM, Python 3.11 with the limit off).
MAX_LITERAL_DIGITS = 4300

BUILTIN_GRAMMAR_NAMES = ("paper_G", "eulerian", "andre", "ramanujan", "exterior_peak")

TABLE_KINDS = ("exterior_pdd", "peak_dd", "carlitz_quadruple")

TRIANGLES = ("T", "U", "R", "W")

CLOSED_FORMS = (
    "gen_z",
    "gen_y",
    "gessel_T",
    "elizalde_noy_U",
    "no_pdd_U0",
    "carlitz_F",
)

CHECK_IDS = (
    "joint_ep_pdd",
    "peak_dd",
    "recurrence",
    "invariants",
    "closed_forms",
    "classical_grammars",
)
