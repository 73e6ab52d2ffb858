"""Named verification checks tying the three engines together.

Every check computes its two sides through disjoint code paths (symbolic
derivative vs. permutation statistic tables vs. closed-form series), reports the
smallest failing index, and is deterministic.  The shipped admissible points
are re-validated (root squared equals the discriminant) at import time.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from ._names import CHECK_IDS, MAX_N
from .grammar import Grammar, builtin_grammar, derive, derive_n
from .laurent import LaurentPolynomial, dot
from .permstat import (
    KIND_CARLITZ,
    KIND_EXTERIOR_PDD,
    KIND_PEAK_DD,
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
_ONE = LaurentPolynomial.one()


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


def _report(check_id: str, limit: int, failure: str | None) -> CheckReport:
    return CheckReport(check_id, limit, failure is None, failure)


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


def _validate_shipped_points() -> None:
    for pt in GRAMMAR_POINTS:
        a = pt.assignment
        pt.root_for((a["w"] + a["y"]) ** 2 - 4 * a["x"] * a["z"], "(w+y)^2 - 4xz")
    GESSEL_POINT.root_for(1 - GESSEL_POINT.assignment["x"], "1 - x")
    y = ELIZALDE_NOY_POINT.assignment["y"]
    ELIZALDE_NOY_POINT.root_for((y - 1) * (y + 3), "(y-1)(y+3)")


_validate_shipped_points()


def check_joint_ep_pdd(
    max_n: int = 8, grammar: Grammar | None = None, *, _dz=None
) -> CheckReport:
    """D^n(z) equals the counted (exterior peak, proper double descent) polynomial."""
    g = grammar or builtin_grammar("paper_G")
    items = _dz or derive_n(_Z, g, max_n).items
    failure = None
    for n in range(max_n + 1):
        expected = table_to_poly(stat_table(n, KIND_EXTERIOR_PDD))
        if items[n] != expected:
            failure = f"n={n}: expected {expected}, got {items[n]}"
            break
    return _report("joint_ep_pdd", max_n, failure)


def check_peak_dd(
    max_n: int = 8, grammar: Grammar | None = None, *, _dy=None
) -> CheckReport:
    """D^n(y) equals the counted (peak, double descent) polynomial.

    It also equals x*z times the counted carlitz_quadruple polynomial.
    """
    g = grammar or builtin_grammar("paper_G")
    items = _dy or derive_n(_Y, g, max_n).items
    failure = None
    for n in range(1, max_n + 1):
        expected = table_to_poly(stat_table(n, KIND_PEAK_DD))
        if items[n] != expected:
            failure = f"n={n}: expected {expected}, got {items[n]}"
            break
        expected = _X * _Z * table_to_poly(stat_table(n, KIND_CARLITZ))
        if items[n] != expected:
            failure = f"n={n}, x*z*carlitz_quadruple: expected {expected}, got {items[n]}"
            break
    return _report("peak_dd", max_n, failure)


def check_recurrence(
    max_n: int = 9, grammar: Grammar | None = None, *, _dz=None, _dy=None
) -> CheckReport:
    """The convolution recurrence, symbolically and on the four marginal triangles.

    Checks P(n+1) = w P(n) + sum_k C(n,k) P(k) Q(n-k) with Q taken both from
    the derivative engine (self-consistency) and from the statistic tables (cross
    check), then the same shape for the T/R and U/W marginals.
    """
    g = grammar or builtin_grammar("paper_G")
    p_items = _dz or derive_n(_Z, g, max_n + 1).items
    q_items = _dy or derive_n(_Y, g, max_n).items
    q_oracle = {
        m: table_to_poly(stat_table(m, KIND_PEAK_DD)) for m in range(1, max_n + 1)
    }
    failure = None
    for n in range(max_n + 1):
        for label, q in (("engine", q_items), ("oracle", q_oracle)):
            rhs = _convolution(_W * p_items[n], p_items, q, n)
            if p_items[n + 1] != rhs:
                failure = f"n={n} (Q from {label}): expected {p_items[n + 1]}, got {rhs}"
                break
        if failure:
            break
    if failure is None:
        t_polys = [triangle_poly(m, "T") for m in range(max_n + 2)]
        r_polys = {m: triangle_poly(m, "R") for m in range(1, max_n + 1)}
        u_polys = [triangle_poly(m, "U") for m in range(max_n + 2)]
        w_polys = {m: triangle_poly(m, "W") for m in range(1, max_n + 1)}
        for n in range(max_n + 1):
            t_rhs = _convolution(t_polys[n], t_polys, r_polys, n)
            u_rhs = _convolution(u_polys[n], u_polys, w_polys, n)
            if t_polys[n + 1] != t_rhs:
                failure = f"T marginal, n={n}: expected {t_polys[n + 1]}, got {t_rhs}"
                break
            if u_polys[n + 1] != u_rhs:
                failure = f"U marginal, n={n}: expected {u_polys[n + 1]}, got {u_rhs}"
                break
    return _report("recurrence", max_n, failure)


def check_invariants(grammar: Grammar | None = None) -> CheckReport:
    """Exact derivative identities: the two invariants and the inverse-term forms."""
    g = grammar or builtin_grammar("paper_G")
    zero = LaurentPolynomial.zero()
    delta = (_W + _Y) ** 2 - 4 * _X * _Z
    zx_inv = _Z * _X ** -1
    xz_inv = _X ** -1 * _Z ** -1
    zx_items = derive_n(zx_inv, g, 10).items
    checks: list[tuple[str, LaurentPolynomial, LaurentPolynomial]] = [
        ("D(w - y)", derive(_W - _Y, g), zero),
        ("D((w+y)^2 - 4xz)", derive(delta, g), zero),
        ("D(x^-1)", derive(_X ** -1, g), -(_X ** -1 * _Y)),
        ("D(z*x^-1)", zx_items[1], zx_inv * (_W - _Y)),
    ]
    failure = None
    for label, got, expected in checks:
        if got != expected:
            failure = f"{label}: expected {expected}, got {got}"
            break
    if failure is None:
        for n in range(11):
            expected = zx_inv * (_W - _Y) ** n
            if zx_items[n] != expected:
                failure = f"D^{n}(z*x^-1): expected {expected}, got {zx_items[n]}"
                break
    if failure is None:
        items = derive_n(xz_inv, g, 12).items
        even_head = (_W + _Y) ** 2 - 2 * _X * _Z
        for n in range(13):
            if n == 0:
                expected = xz_inv
            elif n % 2 == 1:
                expected = -(xz_inv * (_W + _Y)) * delta ** ((n - 1) // 2)
            else:
                expected = xz_inv * even_head * delta ** ((n - 2) // 2)
            if items[n] != expected:
                failure = f"D^{n}(x^-1*z^-1): expected {expected}, got {items[n]}"
                break
    return _report("invariants", 12, failure)


def _check_point_forms(
    pt: EvalPoint, order: int, dz_items, dy_items, carlitz_items
) -> str | None:
    a = dict(pt.assignment)
    keys = set(a)
    tag = "point (" + ", ".join(f"{k}={a[k]}" for k in sorted(a)) + ")"
    if {"x", "y", "z", "w"} <= keys:
        egf_z = closed_form("gen_z", pt, order).egf_coefficients()
        egf_y = closed_form("gen_y", pt, order).egf_coefficients()
        for n in range(order + 1):
            expected = dz_items[n].eval(a)
            if egf_z[n] != expected:
                return f"{tag}, gen_z, n={n}: expected {expected}, got {egf_z[n]}"
            expected = dy_items[n].eval(a)
            if egf_y[n] != expected:
                return f"{tag}, gen_y, n={n}: expected {expected}, got {egf_y[n]}"
        f_series = closed_form("carlitz_F", pt, order)
        egf_f = f_series.egf_coefficients()
        for n in range(order + 1):
            expected = carlitz_items[n].eval(a)
            if egf_f[n] != expected:
                return f"{tag}, carlitz_F, n={n}: expected {expected}, got {egf_f[n]}"
        xz = a["x"] * a["z"]
        recombined = f_series * xz + a["y"]
        if recombined != closed_form("gen_y", pt, order):
            return f"{tag}: gen_y differs from y + xz * carlitz_F"
        return None
    if keys == {"x"}:
        egf = closed_form("gessel_T", pt, order).egf_coefficients()
        for n in range(order + 1):
            expected = triangle_poly(n, "T").eval(a)
            if egf[n] != expected:
                return f"{tag}, gessel_T, n={n}: expected {expected}, got {egf[n]}"
        return None
    if keys == {"y"}:
        egf = closed_form("elizalde_noy_U", pt, order).egf_coefficients()
        for n in range(order + 1):
            expected = triangle_poly(n, "U").eval(a)
            if egf[n] != expected:
                return f"{tag}, elizalde_noy_U, n={n}: expected {expected}, got {egf[n]}"
        return None
    raise InadmissiblePointError(f"{tag}: no closed form applies to this assignment")


def check_closed_forms(
    order: int = 12,
    points: tuple[EvalPoint, ...] | None = None,
    grammar: Grammar | None = None,
    *,
    _dz=None,
    _dy=None,
) -> CheckReport:
    """Closed-form series against the derivative engine and the statistics oracle.

    Full assignments are checked against evaluated D^n(z) and D^n(y), the
    carlitz_F coefficients against the evaluated Carlitz table polynomials
    (F_0 = 0), and the series identity gen_y = y + xz * carlitz_F; x-only and y-only points
    against the counted exterior-peak and proper-double-descent marginals.
    The point-free reciprocal series is checked against a specialization of
    D^n(z).  Every comparison runs for all n up to ``order``.
    """
    g = grammar or builtin_grammar("paper_G")
    pts = SHIPPED_POINTS if points is None else tuple(points)
    dz_items = _dz or derive_n(_Z, g, order).items
    dy_items = _dy or derive_n(_Y, g, order).items
    carlitz_items = [LaurentPolynomial.zero()] + [
        table_to_poly(stat_table(n, KIND_CARLITZ)) for n in range(1, order + 1)
    ]
    failure = None
    for pt in pts:
        failure = _check_point_forms(pt, order, dz_items, dy_items, carlitz_items)
        if failure:
            break
    if failure is None:
        u0 = closed_form("no_pdd_U0", None, order).egf_coefficients()
        no_pdd_point = {"x": 1, "y": 0, "z": 1, "w": 1}
        for n in range(order + 1):
            expected = dz_items[n].eval(no_pdd_point)
            if u0[n] != expected:
                failure = f"no_pdd_U0, n={n}: expected {expected}, got {u0[n]}"
                break
    return _report("closed_forms", order, failure)


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
_TO_EULERIAN = {
    "z": _X, "y": _X, "x": _Y, "w": _Y,
}
_TO_EULERIAN_NAME = {"z": "x", "y": "x", "x": "y", "w": "y"}
_TO_EXTERIOR = {
    "z": _X, "x": _X, "w": _Y, "y": _Y,
}
_TO_EXTERIOR_NAME = {"z": "x", "x": "x", "w": "y", "y": "y"}


def check_classical_grammars(
    max_n: int = 6,
    grammars: dict[str, Grammar] | None = None,
    *,
    _dz=None,
) -> CheckReport:
    """Sanity checks for the built-in grammar catalog.

    The Eulerian derivatives of x must have row sums n!; relabeling the
    four-variable rules must reproduce the Eulerian and exterior-peak rules;
    the exterior-peak derivatives of x must carry the counted exterior-peak
    counts; the Andre and Ramanujan derivative sequences must match their
    frozen reference output.
    """
    lookup = grammars or {}

    def get(name: str) -> Grammar:
        return lookup.get(name) or builtin_grammar(name)

    g = get("paper_G")
    eulerian = get("eulerian")
    exterior = get("exterior_peak")
    ones = {"x": 1, "y": 1}
    failure = None

    items = derive_n(_X, eulerian, max_n).items
    for n in range(max_n + 1):
        if items[n].eval(ones) != factorial(n):
            failure = f"eulerian row sum, n={n}: expected {factorial(n)}, got {items[n].eval(ones)}"
            break

    if failure is None:
        for name, image in g.rules.items():
            expected = eulerian.rules[_TO_EULERIAN_NAME[name]]
            got = image.subst(_TO_EULERIAN)
            if got != expected:
                failure = (
                    f"relabeled rule for '{name}': expected {expected}, got {got}"
                )
                break
            expected = exterior.rules[_TO_EXTERIOR_NAME[name]]
            got = image.subst(_TO_EXTERIOR)
            if got != expected:
                failure = (
                    f"relabeled (exterior) rule for '{name}': expected {expected}, got {got}"
                )
                break

    if failure is None:
        ep_items = derive_n(_X, exterior, max_n).items
        gz_items = _dz or derive_n(_Z, g, max_n).items
        for n in range(max_n + 1):
            rows = specialize_triangle(stat_table(n, KIND_EXTERIOR_PDD), "T")
            expected = LaurentPolynomial.from_dense(
                "xy", {(2 * k + 1, n - 2 * k): count for k, count in rows}
            )
            if ep_items[n] != expected:
                failure = f"exterior-peak marginal, n={n}: expected {expected}, got {ep_items[n]}"
                break
            if gz_items[n].subst(_TO_EXTERIOR) != ep_items[n]:
                failure = f"relabeled D^{n}(z) differs from the exterior-peak derivative"
                break

    if failure is None:
        for label, name, golden in (
            ("andre", "andre", _ANDRE_GOLDEN),
            ("ramanujan", "ramanujan", _RAMANUJAN_GOLDEN),
        ):
            seq = derive_n(_X, get(name), min(max_n, len(golden) - 1)).items
            for n, poly in enumerate(seq):
                if poly.format(("x", "y")) != golden[n]:
                    failure = (
                        f"{label} D^{n}(x): expected '{golden[n]}', "
                        f"got '{poly.format(('x', 'y'))}'"
                    )
                    break
            if failure:
                break

    return _report("classical_grammars", max_n, failure)


def run_checks(
    ids: tuple[str, ...] | None = None,
    max_n: int = 8,
    order: int = 12,
) -> list[CheckReport]:
    """Run the selected checks (all of them by default) and collect reports.

    The recurrence check derives to ``max_n + 1`` and ``closed_forms``
    compares tables up to ``order``, so both are bounded by ``MAX_N`` and are
    checked before any check runs.  ``D^n(z)`` and ``D^n(y)`` under
    ``paper_G`` are derived once, to the largest order a selected check
    reads, and handed to every check that reads them.
    """
    if not 0 <= max_n < MAX_N:
        raise ValueError(f"--max-n {max_n} is outside 0..{MAX_N - 1}")
    if not 0 <= order <= MAX_N:
        raise ValueError(f"--order {order} is outside 0..{MAX_N}")
    selected = CHECK_IDS if ids is None else tuple(ids)
    for check_id in selected:
        if check_id not in CHECK_IDS:
            raise ValueError(f"unknown check '{check_id}' (choose from {CHECK_IDS})")
    paper_g = builtin_grammar("paper_G")
    classical_n = min(max_n, 6)

    def derived(word: LaurentPolynomial, orders: dict[str, int]):
        wanted = [orders[check_id] for check_id in selected if check_id in orders]
        return derive_n(word, paper_g, max(wanted)).items if wanted else None

    dz = derived(_Z, {
        "joint_ep_pdd": max_n,
        "recurrence": max_n + 1,
        "closed_forms": order,
        "classical_grammars": classical_n,
    })
    dy = derived(_Y, {"peak_dd": max_n, "recurrence": max_n, "closed_forms": order})
    runners = {
        "joint_ep_pdd": lambda: check_joint_ep_pdd(max_n, _dz=dz),
        "peak_dd": lambda: check_peak_dd(max_n, _dy=dy),
        "recurrence": lambda: check_recurrence(max_n, _dz=dz, _dy=dy),
        "invariants": check_invariants,
        "closed_forms": lambda: check_closed_forms(order, _dz=dz, _dy=dy),
        "classical_grammars": lambda: check_classical_grammars(classical_n, _dz=dz),
    }
    return [runners[check_id]() for check_id in selected]
