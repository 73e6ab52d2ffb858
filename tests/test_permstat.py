import os
import random
import subprocess
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from _permstat_reference import stat_profile
from gramcalc.gdsl import parse_poly
from gramcalc.grammar import builtin_grammar, derive_n
from gramcalc.laurent import LaurentPolynomial as LP
from gramcalc.permstat import (
    KIND_CARLITZ,
    KIND_EXTERIOR_PDD,
    KIND_PEAK_DD,
    TABLE_KINDS,
    specialize_triangle,
    stat_table,
    table_csv,
    table_json_dict,
    table_to_poly,
    triangle_csv,
    triangle_poly,
)

G = builtin_grammar("paper_G")


# -- the brute-force oracle (tests/_permstat_reference.py) --------------------------

def test_profile_worked_example():
    profile = stat_profile((3, 5, 6, 4, 1, 2))
    assert profile.exterior_peaks == 1
    assert profile.proper_double_descents == 1


def test_profile_peaks_and_double_descents():
    profile = stat_profile((4, 3, 5, 6, 7, 2, 1))
    assert profile.peaks == 2
    assert profile.double_descents == 2
    assert profile.valleys == 1
    assert profile.double_rises == 2


def test_profile_identity_permutation():
    profile = stat_profile(tuple(range(1, 9)))
    assert profile.exterior_peaks == 0
    assert profile.proper_double_descents == 0


def test_profile_singleton():
    profile = stat_profile((1,))
    assert profile.peaks == 1
    assert profile.valleys == 0
    assert profile.double_descents == 0
    assert profile.double_rises == 0
    assert profile.exterior_peaks == 0


def test_profile_rejects_non_permutations():
    with pytest.raises(ValueError):
        stat_profile(())
    with pytest.raises(ValueError):
        stat_profile((1, 1, 2))
    with pytest.raises(ValueError):
        stat_profile((0, 1))


def _assert_profile_invariants(values):
    n = len(values)
    profile = stat_profile(values)
    assert profile.peaks == profile.valleys + 1
    total = (
        profile.peaks + profile.valleys + profile.double_descents + profile.double_rises
    )
    assert total == n
    assert 2 * profile.exterior_peaks + profile.proper_double_descents <= n
    assert profile.proper_double_descents <= n - 1


def test_profile_invariants_exhaustive():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            _assert_profile_invariants(p)


def test_profile_invariants_random():
    rng = random.Random(20240817)
    for n in range(9, 13):
        for _ in range(200):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            _assert_profile_invariants(tuple(p))


# -- stat_table -------------------------------------------------------------------

def test_table_small_values():
    assert stat_table(3, KIND_EXTERIOR_PDD).counts == {(0, 0): 1, (1, 0): 4, (1, 1): 1}
    assert stat_table(4, KIND_EXTERIOR_PDD).counts[(1, 1)] == 6
    assert stat_table(4, KIND_PEAK_DD).counts[(2, 1)] == 8


def test_table_row_sums():
    for n in range(1, 8):
        for kind in (KIND_EXTERIOR_PDD, KIND_PEAK_DD, KIND_CARLITZ):
            assert sum(stat_table(n, kind).counts.values()) == factorial(n)


def test_table_support_bounds():
    for n in range(1, 8):
        for (i, j) in stat_table(n, KIND_EXTERIOR_PDD).counts:
            assert 2 * i + j <= n
            assert j <= n - 1


def test_table_n0_conventions():
    assert stat_table(0, KIND_EXTERIOR_PDD).counts == {(0, 0): 1}
    assert table_to_poly(stat_table(0, KIND_EXTERIOR_PDD)) == LP.variable("z")
    with pytest.raises(ValueError, match="start at n = 1"):
        stat_table(0, KIND_PEAK_DD)
    with pytest.raises(ValueError, match="start at n = 1"):
        stat_table(0, KIND_CARLITZ)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_table_counts_are_the_callers_own(n):
    kinds = (KIND_EXTERIOR_PDD,) if n == 0 else TABLE_KINDS
    for kind in kinds:
        before = dict(stat_table(n, kind).counts)
        mutated = stat_table(n, kind).counts
        mutated[next(iter(mutated))] += 1
        mutated[(99, 99)] = 7
        assert stat_table(n, kind).counts == before, kind
        mutated.clear()
        assert stat_table(n, kind).counts == before, kind


def test_table_cap():
    for kind in TABLE_KINDS:
        with pytest.raises(ValueError, match="exceeds the limit 25"):
            stat_table(26, kind)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            stat_table(-1, kind)
        assert sum(stat_table(25, kind).counts.values()) == factorial(25)


@pytest.mark.parametrize("n", [3.0, 3.5, "3"], ids=["integral_float", "float", "str"])
def test_stat_table_refuses_a_non_integer_n(n):
    # 3.0 once counted a table with float keys and 3.5 recursed without end.
    for kind in TABLE_KINDS:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            stat_table(n, kind)


_REBIND_COUNT_TABLE = """
import sys
import gramcalc.cli, gramcalc.verify
from gramcalc import permstat

original = permstat._kernel.count_table
calls = []

def replacement(*args):
    calls.append(args)
    return original(*args)

for name, module in list(sys.modules.items()):
    if name.startswith("gramcalc") and module:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
counts = permstat.stat_table(5, "peak_dd").counts
print(calls, sum(counts.values()))
"""


def test_rebound_count_table_serves_stat_table():
    # perfbench's tracer times the table engine by rebinding every alias of
    # permstat._kernel.count_table in the loaded gramcalc modules; the table
    # stat_table builds must come through that name, or the tracer reads 0 calls.
    result = subprocess.run(
        [sys.executable, "-c", _REBIND_COUNT_TABLE],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout == "[(5, 'peak_dd')] 120\n"


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown table kind"):
        stat_table(3, "descents")


# -- polynomials from tables -------------------------------------------------------

def test_table_polynomials_match_printed_values():
    assert table_to_poly(stat_table(5, KIND_EXTERIOR_PDD)) == parse_poly(
        "z*w^5 + 26*x*z^2*w^3 + 23*x*y*z^2*w^2 + 43*x^2*z^3*w"
        " + 8*x*y^2*z^2*w + 18*x^2*y*z^3 + x*y^3*z^2"
    )
    assert table_to_poly(stat_table(4, KIND_CARLITZ)) == parse_poly(
        "w^3 + 3*y*w^2 + 8*x*z*w + 3*y^2*w + 8*x*y*z + y^3"
    )
    assert table_to_poly(stat_table(1, KIND_PEAK_DD)) == parse_poly("x*z")


def test_joint_polynomials_match_derivatives():
    # Up to the shared limit n = 25; past the brute-force range (n <= 9) the
    # derivative is the recurrence's only check.
    z_items = derive_n(LP.variable("z"), G, 25).items
    y_items = derive_n(LP.variable("y"), G, 25).items
    for n in range(26):
        assert table_to_poly(stat_table(n, KIND_EXTERIOR_PDD)) == z_items[n], n
        if n >= 1:
            assert table_to_poly(stat_table(n, KIND_PEAK_DD)) == y_items[n], n


def test_peak_table_factors_through_quadruple():
    xz = parse_poly("x*z")
    for n in range(1, 9):
        q = table_to_poly(stat_table(n, KIND_PEAK_DD))
        f = table_to_poly(stat_table(n, KIND_CARLITZ))
        assert q == xz * f


# -- marginals ----------------------------------------------------------------------

def test_triangle_rows():
    t3 = stat_table(3, KIND_EXTERIOR_PDD)
    assert specialize_triangle(t3, "T") == [(0, 1), (1, 5)]
    t4 = stat_table(4, KIND_EXTERIOR_PDD)
    assert dict(specialize_triangle(t4, "U"))[0] == 17
    assert dict(specialize_triangle(t4, "T")) == {0: 1, 1: 18, 2: 5}


def test_triangle_row_sums():
    for n in range(1, 8):
        rows = specialize_triangle(stat_table(n, KIND_PEAK_DD), "W")
        assert sum(count for _, count in rows) == factorial(n)


def test_triangle_kind_mismatch():
    table = stat_table(3, KIND_EXTERIOR_PDD)
    with pytest.raises(ValueError, match="needs a peak_dd table"):
        specialize_triangle(table, "R")
    with pytest.raises(ValueError, match="^triangle T needs an exterior_pdd table, got peak_dd$"):
        specialize_triangle(stat_table(3, KIND_PEAK_DD), "T")
    with pytest.raises(ValueError, match="unknown triangle"):
        specialize_triangle(table, "Q")



def test_triangle_poly_rejects_unknown_triangle():
    with pytest.raises(ValueError, match="unknown triangle 'Q'"):
        triangle_poly(stat_table(5, KIND_EXTERIOR_PDD), "Q")


def test_triangle_poly_rejects_a_table_of_the_wrong_kind():
    # The message is specialize_triangle's: triangle_poly reads the table through it.
    with pytest.raises(ValueError, match="^triangle T needs an exterior_pdd table, got peak_dd$"):
        triangle_poly(stat_table(3, KIND_PEAK_DD), "T")
    with pytest.raises(ValueError, match="^triangle W needs a peak_dd table, got exterior_pdd$"):
        triangle_poly(stat_table(3, KIND_EXTERIOR_PDD), "W")


def test_triangle_poly():
    from fractions import Fraction

    t_3 = triangle_poly(stat_table(3, KIND_EXTERIOR_PDD), "T")
    assert t_3 == parse_poly("1 + 5*x")
    assert t_3.eval({"x": Fraction(1, 2)}) == Fraction(7, 2)
    assert triangle_poly(stat_table(0, KIND_EXTERIOR_PDD), "T") == LP({(): 1})


# -- the recurrence against brute force ------------------------------------------

def _brute_force_counts(n):
    """Tally all three keys over S_n, one ``stat_profile`` per permutation."""
    counts = {kind: {} for kind in TABLE_KINDS}
    for p in permutations(range(1, n + 1)):
        s = stat_profile(p)
        keys = {
            KIND_EXTERIOR_PDD: (s.exterior_peaks, s.proper_double_descents),
            KIND_PEAK_DD: (s.peaks, s.double_descents),
            KIND_CARLITZ: (s.peaks - 1, s.double_descents, s.valleys, s.double_rises),
        }
        for kind, key in keys.items():
            counts[kind][key] = counts[kind].get(key, 0) + 1
    return counts


@pytest.mark.parametrize("n", range(1, 10))
def test_tables_match_brute_force(n):
    for kind, counts in _brute_force_counts(n).items():
        assert stat_table(n, kind).counts == counts, kind


# -- exports ---------------------------------------------------------------------

def test_table_csv_single_row():
    assert table_csv(stat_table(1, KIND_EXTERIOR_PDD)) == "0,0,1"


def test_triangle_csv():
    rows = specialize_triangle(stat_table(3, KIND_EXTERIOR_PDD), "T")
    assert triangle_csv(3, rows) == "3,0,1\n3,1,5"


def test_table_json_keys():
    d = table_json_dict(stat_table(3, KIND_EXTERIOR_PDD))
    assert d == {"0,0": 1, "1,0": 4, "1,1": 1}
