"""Output checks for benchmark requests, computed outside the timed region.

Every request is checked twice over:

* byte for byte, against the stdout digest recorded for the same request
  (argv plus file contents) in ``digests.json``, when one was recorded;
* against a different leg than the one that produced the output:

  - an ``exterior_pdd``/``peak_dd`` table, and each T/U/R/W triangle, against
    the coefficients of ``derive_n`` of z/y under ``paper_G``;
  - the (peaks - 1, double descents) marginal of a ``carlitz_quadruple`` table
    against the same ``peak_dd`` coefficients;
  - a ``derive`` result and a ``series`` expansion against the derivatives
    evaluated at a point by ``PointFlow`` below, which uses only the grammar's
    rules and the product rule, never the program's polynomial or series code;
  - ``verify`` output must report every check as passed.

A check returns ``None`` on success and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from workloads import Poly, builtin_rules


# -- derivatives evaluated at a point -------------------------------------------


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) for k in range(n + 1))


class _Seq:
    """The values D^0(f)(p), D^1(f)(p), ... of one expression, built on demand."""

    def __init__(self):
        self.values: list[Fraction] = []

    def get(self, n: int) -> Fraction:
        while len(self.values) <= n:
            self.values.append(self._compute(len(self.values)))
        return self.values[n]


class _Var(_Seq):
    def __init__(self, value: Fraction):
        super().__init__()
        self.value = value
        self.rule: _Seq | None = None

    def _compute(self, n):
        return self.value if n == 0 else self.rule.get(n - 1)


class _Const(_Seq):
    def __init__(self, value: Fraction):
        super().__init__()
        self.value = value

    def _compute(self, n):
        return self.value if n == 0 else Fraction(0)


class _Product(_Seq):
    """Leibniz: D^n(fg) = sum_k C(n,k) D^k(f) D^(n-k)(g)."""

    def __init__(self, f: _Seq, g: _Seq):
        super().__init__()
        self.f, self.g = f, g

    def _compute(self, n):
        f, g, row = self.f, self.g, _binomials(n)
        return sum((row[k] * f.get(k) * g.get(n - k) for k in range(n + 1)), Fraction(0))


class _Inverse(_Seq):
    """1/f, from D^n(f * (1/f)) = 0 for n >= 1."""

    def __init__(self, f: _Seq):
        super().__init__()
        self.f = f

    def _compute(self, n):
        if n == 0:
            return 1 / self.f.get(0)
        f, row = self.f, _binomials(n)
        acc = sum((row[k] * f.get(k) * self.get(n - k) for k in range(1, n + 1)), Fraction(0))
        return -acc * self.values[0]


class _Sum(_Seq):
    def __init__(self, parts: list[tuple[Fraction, _Seq]]):
        super().__init__()
        self.parts = parts

    def _compute(self, n):
        return sum((c * s.get(n) for c, s in self.parts), Fraction(0))


class PointFlow:
    """Derivatives under a grammar, evaluated exactly at one point.

    ``rules`` maps each variable to its image (a ``Poly``).  Variables with a
    negative exponent anywhere must be nonzero at the point.
    """

    def __init__(self, rules: dict[str, Poly], point: dict[str, Fraction]):
        self._vars = {v: _Var(Fraction(point[v])) for v in rules}
        self._inverses: dict[str, _Seq] = {}
        for v, image in rules.items():
            self._vars[v].rule = self.node(image)

    def _factor(self, name: str, exp: int) -> list[_Seq]:
        if exp > 0:
            return [self._vars[name]] * exp
        if name not in self._inverses:
            self._inverses[name] = _Inverse(self._vars[name])
        return [self._inverses[name]] * -exp

    def node(self, poly: Poly) -> _Seq:
        parts = []
        for coeff, mono in poly:
            factors = [f for name, exp in mono for f in self._factor(name, exp)]
            term: _Seq = factors[0] if factors else _Const(Fraction(1))
            for f in factors[1:]:
                term = _Product(term, f)
            parts.append((Fraction(coeff), term))
        return _Sum(parts)

    def derivatives(self, poly: Poly, n: int) -> list[Fraction]:
        """[D^k(poly) at the point for k = 0..n]."""
        seq = self.node(poly)
        return [seq.get(k) for k in range(n + 1)]


_Z = ((Fraction(1), (("z", 1),)),)
_Y = ((Fraction(1), (("y", 1),)),)


def series_egf(which: str, point: dict[str, Fraction] | None, order: int) -> list[Fraction]:
    """n! times the coefficients of a closed form, from derivatives at a point."""
    rules = builtin_rules("paper_G")
    full = dict(point or {})
    if which == "gessel_T":
        full = {"x": full["x"], "y": 1, "z": 1, "w": 1}
    elif which == "elizalde_noy_U":
        full = {"x": 1, "y": full["y"], "z": 1, "w": 1}
    elif which == "no_pdd_U0":
        full = {"x": 1, "y": 0, "z": 1, "w": 1}
    flow = PointFlow(rules, full)
    if which in ("gen_y", "carlitz_F"):
        values = flow.derivatives(_Y, order)
        if which == "carlitz_F":
            # gen_y = y + x*z*carlitz_F
            xz = Fraction(full["x"]) * Fraction(full["z"])
            values = [Fraction(0)] + [v / xz for v in values[1:]]
        return values
    return flow.derivatives(_Z, order)


# -- parsing the program's output ----------------------------------------------------


def parse_poly_text(text: str) -> dict[tuple, Fraction]:
    """Parse the canonical text form ``c*x^a*y^b - ...`` into {monomial: coeff}."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signed = [("-", pieces[0][1:]) if pieces[0].startswith("-") else ("+", pieces[0])]
    signed += zip(pieces[1::2], pieces[2::2])
    terms: dict[tuple, Fraction] = {}
    for sign, piece in signed:
        coeff = Fraction(1)
        mono = []
        for factor in piece.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            mono.append((name, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        if key in terms:
            raise ValueError(f"monomial {key} printed twice")
        terms[key] = -coeff if sign == "-" else coeff
    return terms


def _derive_terms(stdout: str, fmt: str) -> dict[tuple, Fraction]:
    if fmt == "json":
        payload = json.loads(stdout)
        return {
            tuple(sorted(t["exps"].items())): Fraction(t["coeff"])
            for t in payload["derivative"]
        }
    return parse_poly_text(stdout)


def _eval_terms(terms: dict[tuple, Fraction], point: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = coeff
        for name, exp in mono:
            value *= Fraction(point[name]) ** exp
        total += value
    return total


def _series_values(stdout: str, fmt: str) -> list[Fraction]:
    if fmt == "json":
        return [Fraction(c) for c in json.loads(stdout)["coefficients"]]
    values = []
    for n, line in enumerate(stdout.splitlines()):
        head, _, value = line.partition(": ")
        if head != f"t^{n}":
            raise ValueError(f"unexpected series line {line!r}")
        values.append(Fraction(value))
    return values


def _table_counts(stdout: str, fmt: str, triangle: str | None) -> dict[tuple, int]:
    """{key tuple: count}; for a triangle the key is (k,)."""
    counts: dict[tuple, int] = {}
    if fmt == "json":
        payload = json.loads(stdout)
        if triangle:
            return {(row["k"],): row["count"] for row in payload["rows"]}
        return {
            tuple(int(p) for p in key.split(",")): c for key, c in payload["counts"].items()
        }
    for line in stdout.splitlines():
        if fmt == "csv":
            fields = [int(p) for p in line.split(",")]
            key = tuple(fields[1:-1]) if triangle else tuple(fields[:-1])
            count = fields[-1]
        elif triangle:
            k, _, count = line.partition("  count=")
            key = (int(k.removeprefix("k=")),)
        else:
            k, _, count = line.partition("  count=")
            key = tuple(int(p) for p in k.strip("()").split(","))
        if key in counts:
            raise ValueError(f"key {key} printed twice")
        counts[key] = int(count)
    return counts


# -- the checks ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _derived(var: str, n: int) -> dict[tuple, int]:
    """{(x, y, z, w) exponents: coefficient} of D^n(var) under paper_G, via ``derive_n``."""
    from gramcalc import LaurentPolynomial, builtin_grammar, derive_n

    poly = derive_n(LaurentPolynomial.variable(var), builtin_grammar("paper_G"), n).items[n]
    out = {}
    for mono, coeff in poly.items():
        e = dict(mono)
        out[(e.get("x", 0), e.get("y", 0), e.get("z", 0), e.get("w", 0))] = int(coeff)
    return out


def _table_as_poly(kind: str, n: int, counts: dict[tuple, int]) -> dict[tuple, int]:
    """Weights of ``permstat.table_to_poly``; carlitz keys are marginalised to peak_dd."""
    out: dict[tuple, int] = {}
    for key, count in counts.items():
        if kind == "exterior_pdd":
            i, j = key
            exps = (i, j, i + 1, n - 2 * i - j)
        else:
            i, j = key if kind == "peak_dd" else (key[0] + 1, key[1])
            exps = (i, j, i, n + 1 - 2 * i - j)
        out[exps] = out.get(exps, 0) + count
    return out


def _check_table(check: dict, stdout: str) -> str | None:
    kind, n, tri = check["table"], check["n"], check["triangle"]
    counts = _table_counts(stdout, check["format"], tri)
    expected = _derived("z" if kind == "exterior_pdd" else "y", n)
    if tri:
        axis = 0 if tri in ("T", "R") else 1
        marginal: dict[tuple, int] = {}
        for exps, c in expected.items():
            marginal[(exps[axis],)] = marginal.get((exps[axis],), 0) + c
        if counts != marginal:
            return f"triangle {tri} n={n} differs from the derive_n marginal"
        return None
    if _table_as_poly(kind, n, counts) != expected:
        return f"{kind} table n={n} differs from derive_n of {'z' if kind == 'exterior_pdd' else 'y'}"
    if sum(counts.values()) != factorial(n):
        return f"{kind} table n={n} does not sum to n!"
    return None


def _check_derive(check: dict, stdout: str) -> str | None:
    terms = _derive_terms(stdout, check["format"])
    point, n = check["point"], check["n"]
    got = _eval_terms(terms, point)
    expected = PointFlow(check["rules"], point).derivatives(check["start"], n)[n]
    if got != expected:
        return f"derive n={n}: value {got} at the check point, expected {expected}"
    return None


def _check_series(check: dict, stdout: str) -> str | None:
    values = _series_values(stdout, check["format"])
    order = check["order"]
    expected = series_egf(check["which"], check["point"], order)
    if not check["egf"]:
        expected = [v / factorial(n) for n, v in enumerate(expected)]
    if len(values) != order + 1:
        return f"series {check['which']}: {len(values)} coefficients, expected {order + 1}"
    for n, (got, want) in enumerate(zip(values, expected)):
        if got != want:
            return f"series {check['which']} n={n}: got {got}, expected {want}"
    return None


def _check_verify(check: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != check["checks"] or not all(line.startswith("PASS  ") for line in lines):
        return f"verify did not pass all {check['checks']} checks"
    return None


_CHECKERS = {
    "table": _check_table,
    "derive": _check_derive,
    "series": _check_series,
    "verify": _check_verify,
}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_output(request, exit_code: int, stdout: bytes, digests: dict[str, str]) -> str | None:
    """None when the request's output is right, else the reason it is not."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    recorded = digests.get(request.key())
    if recorded is not None and recorded != digest(stdout):
        return "stdout differs from the recorded digest"
    try:
        return _CHECKERS[request.check["kind"]](request.check, stdout.decode())
    except (ValueError, KeyError, TypeError, ZeroDivisionError, UnicodeDecodeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"

