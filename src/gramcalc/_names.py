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

#: The most work the derivatives of one request may take.  Before each
#: step, ``laurent.derivatives`` charges the term products it may form
#: (terms times the image terms of their ruled variables) one unit per
#: variable plus 8, as a product's coefficient and dict update cost about as
#: much as 8 exponents.
#: Large numbers add ``c * (m + 32) / 32`` units per product, where ``c``
#: is the 64-bit words (rounded down) of the largest numerator or
#: denominator of the last derivative, and ``m`` those of the largest
#: exponent of the start word or integer of a rule image, the numbers a
#: product multiplies by (the steps grow an exponent by a few bits at
#: most).  Numbers under 64 bits add nothing.  A 4300-digit ``m`` makes
#: that about 8 units per word of ``c``; with rule images of 4300-digit
#: coefficients, the costliest shape found, a product took 710 to 780 ns
#: (about 7.5 units at 100 ns) per word of ``c``: timed on ``rule x ->
#: (N+1)/N*x`` with N = 10^4299, whose 25 steps from ``x`` take 1.0 s.  At
#: this limit the slowest request found took about 3 s (2-vCPU VM, Python
#: 3.11), whatever the number of variables; the builtins use under 1 % of
#: it.  A product also adds ``d * d / 18`` units (5.6 ns per squared word at
#: 100 ns a unit), ``d`` the words of the last derivative's denominator
#: times the images'.  That pays for two costs over such a denominator: the
#: step's one reduction, which costs about one gcd of two d-word numbers
#: (4.6 to 5.2 ns per squared word for 500 to 4000 words, Python 3.10 to
#: 3.13), and the output walk's reductions, one ``Fraction`` per printed
#: term (0.5 to 0.8 ns per term and squared word), as a product yields at
#: most one term.  Charged once per step instead, a start word with 20
#: distinct 4300-digit denominators was accepted under ``paper_G`` up to
#: order 7, which took 7.2 s, 6 s of it printing; charged per product, it is
#: refused before its first step (0.08 s, and 0.6 s to print).
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

#: The most 64-bit words (rounded down) of the common denominator of a
#: polynomial in that term syntax, counted once per term, as every term
#: stores its numerator over it, and summed over a ``.gram`` document's
#: polynomials.  Uncounted, k distinct 4300-digit denominators take time
#: about quadratic in k to read: 1.9 s for k = 40 and 12 s for k = 100.
#: Each denominator grows term by term and the term that passes the limit is
#: refused, so a refused word costs no more than an accepted one.  21 such
#: denominators fit: they are read in 0.38 to 0.48 s (Python 3.10 to 3.13),
#: and ``derive --n 0`` reads and prints them in about 0.9 s (2-vCPU VM,
#: Python 3.11).  One under 64 bits counts nothing.
MAX_DENOMINATOR_WORDS = 100_000

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
