"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is exact; comparisons are equality of polynomials over
the rationals or of rational series coefficients (zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import permutations
from math import comb

from _permstat_reference import stat_profile
from gramcalc.gdsl import parse_poly
from gramcalc.grammar import builtin_grammar, derive, derive_n
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.laurent import dot
from gramcalc.permstat import (
    KIND_CARLITZ,
    KIND_EXTERIOR_PDD,
    KIND_PEAK_DD,
    specialize_triangle,
    stat_table,
    table_to_poly,
    triangle_poly,
)
from gramcalc.series import closed_form, gen_series
from gramcalc.verify import ELIZALDE_NOY_POINT, GESSEL_POINT, GRAMMAR_POINTS

G = builtin_grammar("paper_G")
X, Y, Z, W = (LP.variable(v) for v in "xyzw")
VAR_ORDER = ("x", "y", "z", "w")


def _passed(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS  {text}")


def test_criterion_1_joint_distribution_polynomials():
    started = time.perf_counter()
    items = derive_n(Z, G, 8).items
    for n in range(9):
        assert items[n] == table_to_poly(stat_table(n, KIND_EXTERIOR_PDD)), n
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(1, f"derivatives of z match enumeration for n <= 8 ({elapsed:.2f}s)")


def test_criterion_2_peak_distribution_polynomials():
    items_y = derive_n(Y, G, 8).items
    for n in range(1, 9):
        assert items_y[n] == table_to_poly(stat_table(n, KIND_PEAK_DD)), n
    d4z = derive_n(Z, G, 4).items[4]
    assert dict(d4z.items())[(("w", 1), ("x", 1), ("y", 1), ("z", 2))] == 6
    assert dict(items_y[4].items())[(("x", 2), ("y", 1), ("z", 2))] == 8
    _passed(2, "derivatives of y match enumeration for n <= 8, spot coefficients 6 and 8")


# Transcribed term lists (as printed) and their canonical rendering.
PRINTED_POLYNOMIALS = [
    # (label, printed source text, canonical form, engine polynomial factory)
    ("P1", "z*w", "z*w",
     lambda: derive_n(Z, G, 1).items[1]),
    ("P2", "z*w^2 + x*z^2", "z*w^2 + x*z^2",
     lambda: derive_n(Z, G, 2).items[2]),
    ("P3", "z*w^3 + 4*x*z^2*w + x*y*z^2", "z*w^3 + 4*x*z^2*w + x*y*z^2",
     lambda: derive_n(Z, G, 3).items[3]),
    ("P4", "z*w^4 + 11*x*z^2*w^2 + 6*x*y*z^2*w + 5*x^2*z^3 + x*y^2*z^2",
     "z*w^4 + 11*x*z^2*w^2 + 6*x*y*z^2*w + 5*x^2*z^3 + x*y^2*z^2",
     lambda: derive_n(Z, G, 4).items[4]),
    ("P5",
     "z*w^5 + 26*x*z^2*w^3 + 23*x*y*z^2*w^2 + 43*x^2*z^3*w + 8*x*y^2*z^2*w"
     " + 18*x^2*y*z^3 + x*y^3*z^2",
     "z*w^5 + 26*x*z^2*w^3 + 23*x*y*z^2*w^2 + 43*x^2*z^3*w + 8*x*y^2*z^2*w"
     " + 18*x^2*y*z^3 + x*y^3*z^2",
     lambda: derive_n(Z, G, 5).items[5]),
    ("Q1", "x*z", "x*z",
     lambda: derive_n(Y, G, 1).items[1]),
    ("Q2", "x*y*z + x*z*w", "x*z*w + x*y*z",
     lambda: derive_n(Y, G, 2).items[2]),
    ("Q3", "x*y^2*z + 2*x^2*z^2 + 2*x*y*z*w + x*z*w^2",
     "x*z*w^2 + 2*x*y*z*w + 2*x^2*z^2 + x*y^2*z",
     lambda: derive_n(Y, G, 3).items[3]),
    ("Q4", "x*z*w^3 + 3*x*y*z*w^2 + 8*x^2*z^2*w + 3*x*y^2*z*w + 8*x^2*y*z^2 + x*y^3*z",
     "x*z*w^3 + 3*x*y*z*w^2 + 8*x^2*z^2*w + 3*x*y^2*z*w + 8*x^2*y*z^2 + x*y^3*z",
     lambda: derive_n(Y, G, 4).items[4]),
    ("F1", "1", "1",
     lambda: table_to_poly(stat_table(1, KIND_CARLITZ))),
    ("F2", "y + w", "w + y",
     lambda: table_to_poly(stat_table(2, KIND_CARLITZ))),
    ("F3", "y^2 + 2*x*z + 2*y*w + w^2", "w^2 + 2*y*w + 2*x*z + y^2",
     lambda: table_to_poly(stat_table(3, KIND_CARLITZ))),
    ("F4", "w^3 + 3*y*w^2 + 8*x*z*w + 3*y^2*w + 8*x*y*z + y^3",
     "w^3 + 3*y*w^2 + 8*x*z*w + 3*y^2*w + 8*x*y*z + y^3",
     lambda: table_to_poly(stat_table(4, KIND_CARLITZ))),
]


def test_criterion_3_printed_polynomials_verbatim():
    for label, printed, canonical, engine in PRINTED_POLYNOMIALS:
        transcribed = parse_poly(printed)
        assert transcribed.format(VAR_ORDER) == canonical, label
        assert engine().format(VAR_ORDER) == canonical, label
    _passed(3, "all 13 printed polynomials match character for character")


def test_criterion_4_recurrence():
    max_n = 9  # recurrence instances 0..9, so polynomials up to index 10
    p_items = derive_n(Z, G, max_n + 1).items
    q_oracle = {m: table_to_poly(stat_table(m, KIND_PEAK_DD)) for m in range(1, max_n + 1)}
    for n in range(max_n + 1):
        rhs = W * p_items[n]
        for k in range(n):
            rhs = rhs + comb(n, k) * (p_items[k] * q_oracle[n - k])
        assert p_items[n + 1] == rhs, n

    ep_tables = [stat_table(m, KIND_EXTERIOR_PDD) for m in range(max_n + 2)]
    pd_tables = {m: stat_table(m, KIND_PEAK_DD) for m in range(1, max_n + 1)}
    t_polys = [triangle_poly(table, "T") for table in ep_tables]
    r_polys = {m: triangle_poly(table, "R") for m, table in pd_tables.items()}
    u_polys = [triangle_poly(table, "U") for table in ep_tables]
    w_polys = {m: triangle_poly(table, "W") for m, table in pd_tables.items()}
    for n in range(max_n + 1):
        t_rhs, u_rhs = t_polys[n], u_polys[n]
        for k in range(n):
            t_rhs = t_rhs + comb(n, k) * (t_polys[k] * r_polys[n - k])
            u_rhs = u_rhs + comb(n, k) * (u_polys[k] * w_polys[n - k])
        assert t_polys[n + 1] == t_rhs, n
        assert u_polys[n + 1] == u_rhs, n
    _passed(4, "convolution recurrence holds symbolically and on both marginals, n <= 9")


def test_criterion_5_derivative_invariants():
    assert derive(W - Y, G) == 0
    delta = (W + Y) ** 2 - 4 * X * Z
    assert derive(delta, G) == 0

    zx = Z * X ** -1
    items = derive_n(zx, G, 10).items
    for n in range(11):
        assert items[n] == zx * (W - Y) ** n, n

    m = X ** -1 * Z ** -1
    items = derive_n(m, G, 12).items
    even_head = (W + Y) ** 2 - 2 * X * Z
    for n in range(13):
        if n == 0:
            expected = m
        elif n % 2 == 1:
            expected = -(m * (W + Y)) * delta ** ((n - 1) // 2)
        else:
            expected = m * even_head * delta ** ((n - 2) // 2)
        assert items[n] == expected, n
    _passed(5, "both invariants and both inverse-term closed forms hold exactly")


def test_criterion_6_closed_forms_at_admissible_points():
    started = time.perf_counter()
    order = 12
    dz = derive_n(Z, G, order).items
    dy = derive_n(Y, G, order).items
    for pt in GRAMMAR_POINTS:
        a = pt.assignment
        egf_z = closed_form("gen_z", pt, order).egf_coefficients()
        egf_y = closed_form("gen_y", pt, order).egf_coefficients()
        f_series = closed_form("carlitz_F", pt, order)
        via_f = (f_series * (a["x"] * a["z"]) + a["y"]).egf_coefficients()
        for n in range(order + 1):
            assert egf_z[n] == dz[n].eval(a), (pt, n)
            assert egf_y[n] == dy[n].eval(a), (pt, n)
            assert via_f[n] == egf_y[n], (pt, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(6, f"three admissible points, n <= 12, exact ({elapsed:.2f}s)")


def test_criterion_7_marginal_generating_functions():
    order = 10
    egf_t = closed_form("gessel_T", GESSEL_POINT, order).egf_coefficients()
    egf_u = closed_form("elizalde_noy_U", ELIZALDE_NOY_POINT, order).egf_coefficients()
    for n in range(order + 1):
        table = stat_table(n, KIND_EXTERIOR_PDD)
        assert egf_t[n] == triangle_poly(table, "T").eval(GESSEL_POINT.assignment), n
        assert egf_u[n] == triangle_poly(table, "U").eval(ELIZALDE_NOY_POINT.assignment), n
    _passed(7, "exterior-peak series at x=3/4 and double-descent series at y=13/4, n <= 10")


def test_criterion_8_no_double_descent_series():
    order = 12
    egf = closed_form("no_pdd_U0", None, order).egf_coefficients()
    assert egf[:5] == [1, 1, 2, 5, 17]
    point = {"x": 1, "y": 0, "z": 1, "w": 1}
    dz = derive_n(Z, G, order).items
    for n in range(order + 1):
        assert egf[n] == dz[n].eval(point), n
    for n in range(9):
        rows = dict(specialize_triangle(stat_table(n, KIND_EXTERIOR_PDD), "U"))
        assert egf[n] == rows.get(0, 0), n
    _passed(8, "reciprocal series counts double-descent-free permutations, n <= 12")


def test_criterion_9_property_suite():
    rng = random.Random(682347)

    def random_poly():
        result = LP()
        for _ in range(rng.randint(1, 3)):
            exps = {v: rng.randint(0, 2) for v in "xyzw"}
            result = result + LP({tuple(exps.items()): rng.randint(-5, 5)})
        return result

    for _ in range(100):
        u, v, n = random_poly(), random_poly(), rng.randint(0, 5)
        du, dv = derive_n(u, G, n).items, derive_n(v, G, n).items
        convolution = dot([comb(n, k) * du[k] for k in range(n + 1)], dv[::-1])
        assert derive_n(u * v, G, n).items[n] == convolution

    for n in range(1, 9):
        for p in permutations(range(1, n + 1)):
            profile = stat_profile(p)
            assert profile.peaks == profile.valleys + 1
            four = (
                profile.peaks
                + profile.valleys
                + profile.double_descents
                + profile.double_rises
            )
            assert four == n

    order = 10
    for _ in range(5):
        p, q = random_poly(), random_poly()
        assert gen_series(p * q, G, order) == gen_series(p, G, order) * gen_series(q, G, order)
        assert gen_series(p + q, G, order) == gen_series(p, G, order) + gen_series(q, G, order)

    gz = gen_series(Z, G, order)
    gy = gen_series(Y, G, order)
    assert gy * gz + (W - Y) * gz == gen_series(derive(Z, G), G, order)
    assert gz == gen_series(Z * X ** -1, G, order) * gen_series(X, G, order)
    _passed(9, "Leibniz on 100 random triples, profile laws on S_1..S_8, series identities")
