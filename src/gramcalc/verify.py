"""Named verification checks tying the three engines together.

Every check computes its two sides through disjoint code paths (symbolic
derivative vs. permutation statistic tables vs. closed-form series), reports the
smallest failing index, and is deterministic.  Every check takes its
derivatives as ``Derivatives``, which derive each order when it is first read;
``run_checks`` shares D^n(z) and D^n(y), so it derives each word once.  It
shares the statistics oracle too: every check that reads the oracle takes
an ``oracle_store``, which counts each table once and builds each table
polynomial and each triangle from it once, as the checks first read them.

Each check is one stream of ``(label, got, expected)`` comparisons, yielded
lazily and in order.  The first difference wins: the check fails with
``"{label}: expected {expected}, got {got}"`` (a ``_Bare`` label is the whole
message), and nothing after that comparison is computed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial
from operator import index
from typing import Iterable, NamedTuple

from ._names import CHECK_IDS, MAX_N, TRIANGLES
from .grammar import Grammar, builtin_grammar, iter_derive
from .laurent import LaurentPolynomial, dot
from .permstat import (
    KIND_CARLITZ,
    KIND_EXTERIOR_PDD,
    KIND_PEAK_DD,
    TRIANGLE_SOURCE,
    specialize_triangle,
    stat_table,
    table_to_poly,
    triangle_poly,
)
from .series import EvalPoint, InadmissiblePointError, closed_form

_X = LaurentPolynomial.variable("x")
_Y = LaurentPolynomial.variable("y")
_Z = LaurentPolynomial.variable("z")
_W = LaurentPolynomial.variable("w")
_ONE = LaurentPolynomial({(): 1})


class CheckReport(NamedTuple):
    check_id: str
    limit: int
    passed: bool
    first_failure: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "check": self.check_id,
            "limit": self.limit,
            "passed": self.passed,
            "first_failure": self.first_failure,
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.check_id} (limit {self.limit})"
        if self.first_failure:
            line += f": {self.first_failure}"
        return line


class _Bare(str):
    """A case label that is the whole failure message, without the two sides."""


def _report(check_id: str, limit: int, cases: Iterable[tuple]) -> CheckReport:
    """Fail on the first ``(label, got, expected)`` case whose sides differ."""
    for label, got, expected in cases:
        if got != expected:
            if not isinstance(label, _Bare):
                label = f"{label}: expected {expected}, got {got}"
            return CheckReport(check_id, limit, False, label)
    return CheckReport(check_id, limit, True)


class _Lazy(dict):
    """``self[key]`` is ``build(key)``, computed on first read and kept."""

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        self[key] = self.build(key)
        return self[key]


def oracle_store() -> _Lazy:
    """The statistics oracle of one run, each entry built when first read and kept.

    ``store[n, kind]`` is ``stat_table(n, kind)``, the one place a table is
    counted.  ``store[kind]`` is a row whose item n is
    ``table_to_poly(store[n, kind])``, and ``store[which]`` one whose item n is
    ``triangle_poly(store[n, kind], which)`` for the triangle's source kind.
    The functions are looked up in this module when an entry is built, and
    nothing outlives the store, so a run sees the functions it runs with.
    """
    def row(name):
        if name in TRIANGLES:
            kind = TRIANGLE_SOURCE[name][0]
            return _Lazy(lambda n: triangle_poly(store[n, kind], name))
        return _Lazy(lambda n: table_to_poly(store[n, name]))

    store = _Lazy(lambda key: stat_table(*key) if isinstance(key, tuple) else row(key))
    return store


class Derivatives(list):
    """``self[n]`` is ``D^n(word)`` under ``grammar``, derived when first read.

    The list holds ``D^0 .. D^m`` for the largest m read so far.
    """

    __slots__ = ("_steps",)

    def __init__(self, word: LaurentPolynomial, grammar: Grammar) -> None:
        super().__init__()
        self._steps = iter_derive(word, grammar)

    def __getitem__(self, n: int) -> LaurentPolynomial:
        if n >= len(self):
            self.extend(islice(self._steps, n + 1 - len(self)))
        return super().__getitem__(n)


def _convolution(head: LaurentPolynomial, left, right, n: int) -> LaurentPolynomial:
    """``head + sum_{k<n} C(n,k) left[k] right[n-k]``, built once from its terms."""
    return dot(
        [head] + [comb(n, k) * left[k] for k in range(n)],
        [_ONE] + [right[n - k] for k in range(n)],
    )


# Shipped admissible points.  The three full assignments make the grammar
# discriminant (w+y)^2 - 4xz a perfect rational square; the single-variable
# points do the same for the marginal formulas' discriminants.
GRAMMAR_POINTS = (
    EvalPoint({"x": 4, "y": 2, "z": 1, "w": 3}, 3),
    EvalPoint({"x": 4, "y": 1, "z": 1, "w": 4}, 3),
    EvalPoint({"x": 0, "y": Fraction(5, 2), "z": 1, "w": Fraction(1, 2)}, 3),
)
GESSEL_POINT = EvalPoint({"x": Fraction(3, 4)}, Fraction(1, 2))
ELIZALDE_NOY_POINT = EvalPoint({"y": Fraction(13, 4)}, Fraction(15, 4))
SHIPPED_POINTS = GRAMMAR_POINTS + (GESSEL_POINT, ELIZALDE_NOY_POINT)


def check_joint_ep_pdd(max_n: int, dz, oracle: _Lazy) -> CheckReport:
    """D^n(z) equals the counted (exterior peak, proper double descent) polynomial."""
    counted = oracle[KIND_EXTERIOR_PDD]
    cases = ((f"n={n}", dz[n], counted[n]) for n in range(max_n + 1))
    return _report("joint_ep_pdd", max_n, cases)


def check_peak_dd(max_n: int, dy, oracle: _Lazy) -> CheckReport:
    """D^n(y) equals the counted (peak, double descent) polynomial.

    It also equals x*z times the counted carlitz_quadruple polynomial.
    """
    peak_dd, carlitz = oracle[KIND_PEAK_DD], oracle[KIND_CARLITZ]

    def cases():
        xz = _X * _Z
        for n in range(1, max_n + 1):
            yield f"n={n}", dy[n], peak_dd[n]
            yield f"n={n}, x*z*carlitz_quadruple", dy[n], xz * carlitz[n]

    return _report("peak_dd", max_n, cases())


def check_recurrence(max_n: int, dz, dy, oracle: _Lazy) -> CheckReport:
    """The convolution recurrence, symbolically and on the four marginal triangles.

    Checks P(n+1) = w P(n) + sum_k C(n,k) P(k) Q(n-k) with Q taken both from
    the derivative engine (self-consistency) and from the statistic tables (cross
    check), then the same shape for the T/R and U/W marginals.
    """
    def cases():
        for n in range(max_n + 1):
            for label, q in (("engine", dy), ("oracle", oracle[KIND_PEAK_DD])):
                rhs = _convolution(_W * dz[n], dz, q, n)
                yield f"n={n} (Q from {label})", rhs, dz[n + 1]
        for n in range(max_n + 1):
            for name, other in ("T", "R"), ("U", "W"):
                left, right = oracle[name], oracle[other]
                yield f"{name} marginal, n={n}", _convolution(left[n], left, right, n), left[n + 1]

    return _report("recurrence", max_n, cases())


def check_invariants(grammar: Grammar | None = None) -> CheckReport:
    """Exact derivative identities: the two invariants and the inverse-term forms."""
    g = grammar or builtin_grammar("paper_G")
    w_minus_y = _W - _Y
    delta = (_W + _Y) ** 2 - 4 * _X * _Z
    zx_inv = _Z * _X ** -1
    xz_inv = _X ** -1 * _Z ** -1

    def cases():
        zx_items = Derivatives(zx_inv, g)
        yield "D(w - y)", Derivatives(w_minus_y, g)[1], 0
        yield "D((w+y)^2 - 4xz)", Derivatives(delta, g)[1], 0
        yield "D(x^-1)", Derivatives(_X ** -1, g)[1], -(_X ** -1 * _Y)
        yield "D(z*x^-1)", zx_items[1], zx_inv * w_minus_y
        # Each expected side below is an earlier one times one factor, taken
        # only once the comparison before it has passed.
        expected = zx_inv
        for n in range(11):
            if n:
                expected *= w_minus_y
            yield f"D^{n}(z*x^-1)", zx_items[n], expected
        items = Derivatives(xz_inv, g)
        yield "D^0(x^-1*z^-1)", items[0], xz_inv
        # D^n(x^-1*z^-1) is a head of n's parity times delta^((n-1)//2).
        by_parity = [None, None]
        for n in range(1, 13):
            if n > 2:
                by_parity[n % 2] *= delta
            elif n == 1:
                by_parity[1] = -(xz_inv * (_W + _Y))
            else:
                by_parity[0] = xz_inv * ((_W + _Y) ** 2 - 2 * _X * _Z)
            yield f"D^{n}(x^-1*z^-1)", items[n], by_parity[n % 2]

    return _report("invariants", 12, cases())


def _check_point_forms(pt: EvalPoint, order: int, dz, dy, oracle):
    a = dict(pt.assignment)
    tag = "point (" + ", ".join(f"{k}={a[k]}" for k in sorted(a)) + ")"
    if {"x", "y", "z", "w"} <= set(a):
        egf_z = closed_form("gen_z", pt, order).egf_coefficients()
        gen_y = closed_form("gen_y", pt, order)
        egf_y = gen_y.egf_coefficients()
        for n in range(order + 1):
            yield f"{tag}, gen_z, n={n}", egf_z[n], dz[n].eval(a)
            yield f"{tag}, gen_y, n={n}", egf_y[n], dy[n].eval(a)
        f_series = closed_form("carlitz_F", pt, order)
        egf_f = f_series.egf_coefficients()
        for n in range(order + 1):
            carlitz = oracle[KIND_CARLITZ][n].eval(a) if n else 0  # F_0 = 0
            yield f"{tag}, carlitz_F, n={n}", egf_f[n], carlitz
        recombined = f_series * (a["x"] * a["z"]) + a["y"]
        yield _Bare(f"{tag}: gen_y differs from y + xz * carlitz_F"), recombined, gen_y
    elif set(a) in ({"x"}, {"y"}):
        form, which = ("gessel_T", "T") if "x" in a else ("elizalde_noy_U", "U")
        egf = closed_form(form, pt, order).egf_coefficients()
        for n in range(order + 1):
            yield f"{tag}, {form}, n={n}", egf[n], oracle[which][n].eval(a)
    else:
        raise InadmissiblePointError(f"{tag}: no closed form applies to this assignment")


def check_closed_forms(
    order: int, dz, dy, oracle: _Lazy, points: tuple[EvalPoint, ...] | None = None
) -> CheckReport:
    """Closed-form series against the derivative engine and the statistics oracle.

    Full assignments are checked against evaluated D^n(z) and D^n(y), the
    carlitz_F coefficients against the evaluated Carlitz table polynomials
    (F_0 = 0), and the series identity gen_y = y + xz * carlitz_F; x-only and y-only points
    against the counted exterior-peak and proper-double-descent marginals.
    The point-free reciprocal series is checked against a specialization of
    D^n(z).  Every comparison runs for all n up to ``order``.
    """
    def cases():
        for pt in SHIPPED_POINTS if points is None else points:
            yield from _check_point_forms(pt, order, dz, dy, oracle)
        u0 = closed_form("no_pdd_U0", None, order).egf_coefficients()
        no_pdd_point = {"x": 1, "y": 0, "z": 1, "w": 1}
        for n in range(order + 1):
            yield f"no_pdd_U0, n={n}", u0[n], dz[n].eval(no_pdd_point)

    return _report("closed_forms", order, cases())


# Frozen reference output for the two classical grammars that have no
# statistics oracle here: the n-th derivative of x, canonically formatted.
_ANDRE_GOLDEN = (
    "x",
    "x*y",
    "x*y^2 + x^2",
    "x*y^3 + 4*x^2*y",
    "x*y^4 + 11*x^2*y^2 + 4*x^3",
    "x*y^5 + 26*x^2*y^3 + 34*x^3*y",
    "x*y^6 + 57*x^2*y^4 + 180*x^3*y^2 + 34*x^4",
)
_RAMANUJAN_GOLDEN = (
    "x",
    "x^3*y",
    "3*x^5*y^2 + x^4*y^2",
    "15*x^7*y^3 + 10*x^6*y^3 + 2*x^5*y^3",
    "105*x^9*y^4 + 105*x^8*y^4 + 40*x^7*y^4 + 6*x^6*y^4",
    "945*x^11*y^5 + 1260*x^10*y^5 + 700*x^9*y^5 + 196*x^8*y^5 + 24*x^7*y^5",
    "10395*x^13*y^6 + 17325*x^12*y^6 + 12600*x^11*y^6 + 5068*x^10*y^6 + "
    "1148*x^9*y^6 + 120*x^8*y^6",
)

# Relabelings that collapse the four-variable grammar onto the classical
# two-variable ones.
_TO_EULERIAN = {"z": "x", "y": "x", "x": "y", "w": "y"}
_TO_EXTERIOR = {"z": "x", "x": "x", "w": "y", "y": "y"}


def check_classical_grammars(
    max_n: int, dz, oracle: _Lazy, grammars: dict[str, Grammar] | None = None
) -> CheckReport:
    """Sanity checks for the built-in grammar catalog.

    The Eulerian derivatives of x must have row sums n!; relabeling the
    four-variable rules must reproduce the Eulerian and exterior-peak rules;
    the exterior-peak derivatives of x must carry the counted exterior-peak
    counts; the Andre and Ramanujan derivative sequences must match their
    frozen reference output.
    """
    def get(name: str) -> Grammar:
        return (grammars or {}).get(name) or builtin_grammar(name)

    g, eulerian, exterior = map(get, ("paper_G", "eulerian", "exterior_peak"))

    def cases():
        items = Derivatives(_X, eulerian)
        for n in range(max_n + 1):
            yield f"eulerian row sum, n={n}", items[n].eval({"x": 1, "y": 1}), factorial(n)
        for name, image in g.rules:
            expected = dict(eulerian.rules)[_TO_EULERIAN[name]]
            yield f"relabeled rule for '{name}'", image.subst(_TO_EULERIAN), expected
            expected = dict(exterior.rules)[_TO_EXTERIOR[name]]
            yield f"relabeled (exterior) rule for '{name}'", image.subst(_TO_EXTERIOR), expected
        ep_items = Derivatives(_X, exterior)
        for n in range(max_n + 1):
            rows = specialize_triangle(oracle[n, KIND_EXTERIOR_PDD], "T")
            expected = LaurentPolynomial.from_dense(
                "xy", {(2 * k + 1, n - 2 * k): count for k, count in rows}
            )
            yield f"exterior-peak marginal, n={n}", ep_items[n], expected
            label = _Bare(f"relabeled D^{n}(z) differs from the exterior-peak derivative")
            yield label, dz[n].subst(_TO_EXTERIOR), ep_items[n]
        for name, golden in (("andre", _ANDRE_GOLDEN), ("ramanujan", _RAMANUJAN_GOLDEN)):
            seq = Derivatives(_X, get(name))
            for n in range(min(max_n, len(golden) - 1) + 1):
                yield f"{name} D^{n}(x)", f"'{seq[n].format(('x', 'y'))}'", f"'{golden[n]}'"

    return _report("classical_grammars", max_n, cases())


def run_checks(
    ids: tuple[str, ...] | None = None,
    max_n: int = 8,
    order: int = 12,
) -> list[CheckReport]:
    """Run the selected checks (all of them by default) and collect reports.

    The recurrence check derives to ``max_n + 1`` and ``closed_forms``
    compares tables up to ``order``, so both are read as integers and bounded
    by ``MAX_N`` before any check runs.  ``D^n(z)`` and ``D^n(y)`` under
    ``paper_G`` are derived once, as far as the selected checks read them,
    and shared by every check that reads them, and so is one ``oracle_store``.
    """
    max_n, order = index(max_n), index(order)
    if not 0 <= max_n < MAX_N:
        raise ValueError(f"--max-n {max_n} is outside 0..{MAX_N - 1}")
    if not 0 <= order <= MAX_N:
        raise ValueError(f"--order {order} is outside 0..{MAX_N}")
    if isinstance(ids, str):
        raise TypeError(f"ids must be a collection of check ids, not the str {ids!r}")
    selected = CHECK_IDS if ids is None else tuple(ids)
    for check_id in selected:
        if check_id not in CHECK_IDS:
            raise ValueError(f"unknown check '{check_id}' (choose from {CHECK_IDS})")
    paper_g = builtin_grammar("paper_G")
    dz, dy = Derivatives(_Z, paper_g), Derivatives(_Y, paper_g)
    oracle = oracle_store()
    runners = {
        "joint_ep_pdd": lambda: check_joint_ep_pdd(max_n, dz, oracle),
        "peak_dd": lambda: check_peak_dd(max_n, dy, oracle),
        "recurrence": lambda: check_recurrence(max_n, dz, dy, oracle),
        "invariants": check_invariants,
        "closed_forms": lambda: check_closed_forms(order, dz, dy, oracle),
        "classical_grammars": lambda: check_classical_grammars(min(max_n, 6), dz, oracle),
    }
    return [runners[check_id]() for check_id in selected]
