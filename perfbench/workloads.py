"""Seeded request lists for the three benchmark workloads.

Each workload turns a seed into one *pass*: a list of ``Request`` objects,
issued in order, each as a fresh ``python -m gramcalc.cli ...`` child.  The
program sees only the generated argv and the generated ``.gram`` files.

* ``verify``: ``gramcalc verify`` at its defaults.  Nearly all of its time is
  S_n enumeration in ``permstat``; the algebra is the rest.
* ``tables``: all three table kinds at n = 7, 8, 9 and the T/U/R/W triangles at
  n = 9, in a seed-shuffled order with the output formats rotated.  Every
  request starts with a cold table cache and never builds a polynomial.
* ``algebra``: ``derive`` and ``series`` requests built from seed-generated
  start words, ``.gram`` text and admissible points, plus one
  ``verify --check invariants``.  ``permstat`` is never called.

The shape of a pass (which grammar, how many terms, which order, which
coefficient kind) is fixed per slot, so its cost barely depends on the seed;
the seed picks the words, points, formats and request order.  Every request is
one on which the program must succeed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: A Laurent polynomial as data: ``((coeff, ((var, exp), ...)), ...)``.
Poly = tuple

WORKLOADS = ("verify", "tables", "algebra")

# The builtin grammars the algebra workload uses, written out here as data so
# the output checks do not depend on the program's own grammar tables.
BUILTIN_RULES = {
    "paper_G": {"x": "x*y", "y": "x*z", "z": "z*w", "w": "x*z"},
    "eulerian": {"x": "x*y", "y": "x*y"},
    "andre": {"x": "x*y", "y": "x"},
    "ramanujan": {"x": "x^3*y", "y": "x*y^2"},
    "exterior_peak": {"x": "x*y", "y": "x^2"},
}

TABLE_KINDS = ("exterior_pdd", "peak_dd", "carlitz_quadruple")
TRIANGLE_KIND = {"T": "exterior_pdd", "U": "exterior_pdd", "R": "peak_dd", "W": "peak_dd"}
TABLE_FORMATS = ("text", "csv", "json")

# Small nonzero rationals for start-word coefficients and evaluation points.
_INTS = (1, 2, 3, 5, -1, -2, -3)
_RATS = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 3), (3, 4), (-5, 3), (7, 2), (-1, 4), (5, 6)))


@dataclass(frozen=True)
class Request:
    """One CLI request: argv after ``gramcalc``, files it reads, and what to check."""

    argv: tuple[str, ...]
    check: dict = field(hash=False, compare=False)
    files: tuple[tuple[str, str], ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0]

    def key(self) -> str:
        """Identity of the request: argv plus the content of every file it reads."""
        payload = [list(self.argv), [[p, _sha(t)] for p, t in self.files]]
        return json.dumps(payload, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- polynomial data ------------------------------------------------------------


def fmt_poly(poly: Poly) -> str:
    """DSL text of a polynomial given as data (terms in the given order)."""
    pieces = []
    for coeff, mono in poly:
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        mag = abs(coeff)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not pieces:
            pieces.append(f"-{text}" if coeff < 0 else text)
        else:
            pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
    return "".join(pieces) or "0"


def parse_monomial_text(text: str) -> Poly:
    """Parse a single-term rule image like ``x^3*y`` (coefficient 1)."""
    mono = []
    for factor in text.split("*"):
        name, _, exp = factor.partition("^")
        mono.append((name, int(exp) if exp else 1))
    return ((Fraction(1), tuple(sorted(mono))),)


def builtin_rules(name: str) -> dict[str, Poly]:
    return {v: parse_monomial_text(img) for v, img in BUILTIN_RULES[name].items()}


def _random_word(rng: random.Random, variables, patterns, coeffs: str) -> Poly:
    """One term per sign pattern: '+' an exponent in 1..2, '-' in -2..-1, '0' absent.

    Fixing the signs per slot keeps the size of the derivative, and so the
    cost of a request, nearly independent of the seed.
    """
    terms = []
    for i, pattern in enumerate(patterns):
        mono = tuple(sorted(
            (v, rng.choice((1, 2)) * (1 if sign == "+" else -1))
            for v, sign in zip(variables, pattern) if sign != "0"
        ))
        integer = coeffs == "int" or (coeffs == "mixed" and i % 2 == 0)
        terms.append((Fraction(rng.choice(_INTS if integer else _RATS)), mono))
    return tuple(terms)


def _random_point(rng: random.Random, variables) -> dict[str, Fraction]:
    """A point with every coordinate nonzero (negative exponents stay defined)."""
    return {v: rng.choice(_RATS + (Fraction(2), Fraction(-3))) for v in variables}


# -- admissible points for the closed forms --------------------------------------


def grammar_point(rng: random.Random) -> tuple[dict[str, Fraction], Fraction]:
    """(x, y, z, w) and s with s^2 = (w+y)^2 - 4xz, s != 0 and x*z != 0.

    y, w and s have denominators 2, 3 and 2, so s never equals w + y and the
    point's numbers have about the same size for every seed.
    """
    y = Fraction(rng.choice((3, 5, 7)), 2)
    w = Fraction(rng.choice((4, 5, 7)), 3)
    s = Fraction(rng.choice((1, 3, 5)), 2)
    x = Fraction(rng.choice((2, 3, -2, -3)))
    z = ((w + y) ** 2 - s * s) / (4 * x)
    return {"x": x, "y": y, "z": z, "w": w}, s


def gessel_point(rng: random.Random) -> tuple[dict[str, Fraction], Fraction]:
    """x = 1 - r^2 with r != 0, so r is the root of 1 - x."""
    r = Fraction(rng.choice((1, 2, 3)), rng.choice((4, 5, 7)))
    return {"x": 1 - r * r}, r


def elizalde_noy_point(rng: random.Random) -> tuple[dict[str, Fraction], Fraction]:
    """y with (y-1)(y+3) = q^2, q != 0: y + 1 -+ q = m, 4/m for rational m != 2."""
    m = Fraction(rng.choice((1, 3, 5)), rng.choice((2, 4)))
    return {"y": (m + 4 / m) / 2 - 1}, (4 / m - m) / 2


# -- the workloads -----------------------------------------------------------------


def verify_pass(rng: random.Random, workdir: str) -> list[Request]:
    return [Request(("verify",), {"kind": "verify", "checks": 6})]


def tables_pass(rng: random.Random, workdir: str) -> list[Request]:
    jobs = [(kind, n, None) for kind in TABLE_KINDS for n in (7, 8, 9)]
    jobs += [(TRIANGLE_KIND[t], 9, t) for t in ("T", "U", "R", "W")]
    rng.shuffle(jobs)
    offset = rng.randrange(len(TABLE_FORMATS))
    requests = []
    for i, (kind, n, tri) in enumerate(jobs):
        fmt = TABLE_FORMATS[(i + offset) % len(TABLE_FORMATS)]
        argv = ["table", "--kind", kind, "--n", str(n)]
        if tri:
            argv += ["--triangle", tri]
        argv += ["--format", fmt]
        check = {"kind": "table", "table": kind, "n": n, "triangle": tri, "format": fmt}
        requests.append(Request(tuple(argv), check))
    return requests


# Slots of the algebra pass: (grammar, sign pattern per term, n, coefficient
# kind).  The shape is fixed so that a pass costs about the same for every seed.
_DERIVE_SLOTS = (
    ("paper_G", ("-+0+",), 25, "int"),
    ("paper_G", ("+0-+", "0+-0"), 20, "rational"),
    ("paper_G", ("++++", "-0+0", "0-0+"), 15, "mixed"),
    ("paper_G", ("--++", "+00-"), 18, "int"),
    ("eulerian", ("+-", "-+", "++"), 25, "rational"),
    ("andre", ("-+", "+0"), 25, "int"),
    ("ramanujan", ("++", "+-", "0-"), 22, "mixed"),
    ("exterior_peak", ("--", "0+"), 25, "rational"),
)
# Closed form -> order.  All six forms, orders spanning 60..150.
_SERIES_SLOTS = (
    ("gen_z", 150),
    ("gen_y", 120),
    ("carlitz_F", 90),
    ("gessel_T", 150),
    ("elizalde_noy_U", 60),
    ("no_pdd_U0", 150),
)


def gram_document(rng: random.Random) -> tuple[str, dict[str, Poly], Poly, int]:
    """A three-variable ``.gram`` file: single-term rules, a start word and n."""
    names = ("a", "b", "c")
    rules = {}
    for v in names:
        mono = ((v, 1), (rng.choice([u for u in names if u != v]), 1))
        rules[v] = ((Fraction(rng.choice((1, 2, 3))), tuple(sorted(mono))),)
    start = _random_word(rng, names, ("+-0", "0+-"), "mixed")
    n = 14
    lines = ["# generated benchmark grammar", "vars: " + " ".join(names)]
    lines += [f"rule {v} -> {fmt_poly(rules[v])}" for v in names]
    lines += [f"start: {fmt_poly(start)}", f"n: {n}"]
    return "\n".join(lines) + "\n", rules, start, n


def algebra_pass(rng: random.Random, workdir: str) -> list[Request]:
    requests = []
    for grammar, patterns, n, coeffs in _DERIVE_SLOTS:
        rules = builtin_rules(grammar)
        variables = tuple(rules)
        start = _random_word(rng, variables, patterns, coeffs)
        fmt = rng.choice(("text", "json"))
        argv = ("derive", "--grammar", grammar, f"--start={fmt_poly(start)}",
                "--n", str(n), "--format", fmt)
        check = {"kind": "derive", "rules": rules, "start": start, "n": n,
                 "format": fmt, "point": _random_point(rng, variables)}
        requests.append(Request(argv, check))

    text, rules, start, n = gram_document(rng)
    path = f"{workdir}/g{hashlib.sha256(text.encode()).hexdigest()[:12]}.gram"
    fmt = rng.choice(("text", "json"))
    check = {"kind": "derive", "rules": rules, "start": start, "n": n,
             "format": fmt, "point": _random_point(rng, tuple(rules))}
    requests.append(Request(("derive", "--grammar", path, "--format", fmt), check, ((path, text),)))

    for which, order in _SERIES_SLOTS:
        if which in ("gen_z", "gen_y", "carlitz_F"):
            point, root = grammar_point(rng)
        elif which == "gessel_T":
            point, root = gessel_point(rng)
        elif which == "elizalde_noy_U":
            point, root = elizalde_noy_point(rng)
        else:
            point, root = None, None
        egf = rng.random() < 0.5
        fmt = rng.choice(("text", "json"))
        argv = ["series", "--which", which, "--order", str(order)]
        if point is not None:
            argv.append("--point=" + ",".join(f"{v}={q}" for v, q in point.items()))
            argv.append(f"--root={root}")
        if egf:
            argv.append("--egf")
        argv += ["--format", fmt]
        check = {"kind": "series", "which": which, "point": point, "root": root,
                 "order": order, "egf": egf, "format": fmt}
        requests.append(Request(tuple(argv), check))

    requests.append(Request(("verify", "--check", "invariants"), {"kind": "verify", "checks": 1}))
    rng.shuffle(requests)
    return requests


_PASSES = {"verify": verify_pass, "tables": tables_pass, "algebra": algebra_pass}


def make_pass(workload: str, seed: int, workdir: str) -> list[Request]:
    """The request list of one pass; the same seed always gives the same list."""
    return _PASSES[workload](random.Random(f"{workload}:{seed}"), workdir)
