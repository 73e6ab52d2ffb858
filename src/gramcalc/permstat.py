"""Permutation statistics: profiles, joint tables, marginals.

Statistics of a permutation ``p = p_1 .. p_n`` of ``{1..n}``:

* exterior peak: index 1 when ``p_1 > p_2``, or ``1 < i < n`` with
  ``p_{i-1} < p_i > p_{i+1}``,
* proper double descent: ``3 <= i <= n`` with ``p_{i-2} > p_{i-1} > p_i``,
* peak / valley / double descent / double rise: the four exhaustive classes
  of ``1 <= i <= n`` after padding with ``p_0 = p_{n+1} = 0`` (peak means
  up-down, valley down-up, double descent down-down, double rise up-up).

``stat_table`` counts one of three key shapes over the whole symmetric group
S_n, for n up to ``MAX_N``, the largest derivative order, so that
every derivative has a table to check it:

* ``"exterior_pdd"``: ``(exterior peaks, proper double descents)``,
* ``"peak_dd"``: ``(peaks, double descents)``,
* ``"carlitz_quadruple"``: ``(peaks - 1, double descents, valleys, double rises)``.

The tables come from a transfer recurrence over the relative rank of the last
letter (``gramcalc._transfer``), in time polynomial in n.  ``stat_profile``
is the one definition of the statistics; brute force over S_n with it is the
test oracle for the recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import _transfer as _kernel
from ._names import MAX_N, TABLE_KINDS, TRIANGLES

if TYPE_CHECKING:
    from .laurent import LaurentPolynomial

#: There is no compiled table engine; benchmark environment stamps read this.
KERNEL_IS_COMPILED = False

KIND_EXTERIOR_PDD, KIND_PEAK_DD, KIND_CARLITZ = TABLE_KINDS


class StatProfile(NamedTuple):
    exterior_peaks: int
    proper_double_descents: int
    peaks: int
    double_descents: int
    valleys: int
    double_rises: int


class StatTable(NamedTuple):
    """Counts of a statistic key over all of S_n (they sum to n!)."""

    n: int
    kind: str
    counts: dict[tuple[int, ...], int]


def is_permutation(values: Sequence[int]) -> bool:
    return sorted(values) == list(range(1, len(values) + 1))


def stat_profile(values: Sequence[int]) -> StatProfile:
    """All six statistics of one permutation of {1..n}, n >= 1."""
    n = len(values)
    if n < 1:
        raise ValueError("stat_profile requires a nonempty permutation")
    if not is_permutation(values):
        raise ValueError(f"{values!r} is not a permutation of 1..{n}")
    ep = 1 if n >= 2 and values[0] > values[1] else 0
    for i in range(1, n - 1):
        if values[i - 1] < values[i] > values[i + 1]:
            ep += 1
    pdd = sum(
        1 for i in range(2, n) if values[i - 2] > values[i - 1] > values[i]
    )
    padded = (0, *values, 0)
    pk = dd = vl = dr = 0
    for i in range(1, n + 1):
        if padded[i - 1] < padded[i]:
            if padded[i] > padded[i + 1]:
                pk += 1
            else:
                dr += 1
        elif padded[i] > padded[i + 1]:
            dd += 1
        else:
            vl += 1
    return StatProfile(
        exterior_peaks=ep,
        proper_double_descents=pdd,
        peaks=pk,
        double_descents=dd,
        valleys=vl,
        double_rises=dr,
    )


@lru_cache(maxsize=None)
def _counts(n: int, kind: str) -> dict[tuple[int, ...], int]:
    return _kernel.count_table(n, kind)


def stat_table(n: int, kind: str) -> StatTable:
    """Count the statistic key of every permutation of {1..n}.

    ``n = 0`` is only meaningful for the exterior-peak table, where the empty
    permutation contributes the single key (0, 0); the peak-based tables start
    at n = 1.
    """
    if kind not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r} (choose from {TABLE_KINDS})")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the limit {MAX_N}")
    if n == 0:
        if kind != KIND_EXTERIOR_PDD:
            raise ValueError(f"{kind} tables start at n = 1")
        return StatTable(n=0, kind=kind, counts={(0, 0): 1})
    return StatTable(n=n, kind=kind, counts=dict(_counts(n, kind)))


def table_to_poly(table: StatTable) -> LaurentPolynomial:
    """Reassemble the four-variable generating polynomial from a table.

    The weights per key are, by kind:

    * ``exterior_pdd`` key (i, j):  x^i y^j z^(i+1) w^(n-2i-j),
    * ``peak_dd`` key (i, j):       x^i y^j z^i w^(n+1-2i-j),
    * ``carlitz_quadruple`` (a, b, c, d):  x^a y^b z^c w^d.
    """
    from .laurent import LaurentPolynomial

    n = table.n
    if table.kind == KIND_EXTERIOR_PDD:
        terms = {(i, j, i + 1, n - 2 * i - j): c for (i, j), c in table.counts.items()}
    elif table.kind == KIND_PEAK_DD:
        terms = {(i, j, i, n + 1 - 2 * i - j): c for (i, j), c in table.counts.items()}
    else:
        terms = table.counts
    return LaurentPolynomial.from_dense("xyzw", terms)


_TRIANGLE_SOURCE = {
    "T": (KIND_EXTERIOR_PDD, 0),  # permutations by number of exterior peaks
    "U": (KIND_EXTERIOR_PDD, 1),  # by number of proper double descents
    "R": (KIND_PEAK_DD, 0),       # by number of peaks
    "W": (KIND_PEAK_DD, 1),       # by number of double descents
}


def _triangle_source(which: str) -> tuple[str, int]:
    if which not in _TRIANGLE_SOURCE:
        raise ValueError(f"unknown triangle {which!r} (choose from {TRIANGLES})")
    return _TRIANGLE_SOURCE[which]


def specialize_triangle(table: StatTable, which: str) -> list[tuple[int, int]]:
    """Marginal counts by one statistic: rows (k, count), k ascending."""
    kind, axis = _triangle_source(which)
    if table.kind != kind:
        raise ValueError(
            f"triangle {which} needs a {kind} table, got {table.kind}"
        )
    marginal: dict[int, int] = {}
    for key, count in table.counts.items():
        k = key[axis]
        marginal[k] = marginal.get(k, 0) + count
    return sorted(marginal.items())


def triangle_poly(n: int, which: str) -> LaurentPolynomial:
    """The marginal as a univariate polynomial (in x for T and R, y for U and W)."""
    from .laurent import LaurentPolynomial

    kind, _ = _triangle_source(which)
    rows = specialize_triangle(stat_table(n, kind), which)
    var = "x" if which in ("T", "R") else "y"
    return LaurentPolynomial.from_dense((var,), {(k,): count for k, count in rows})


def triangle_csv(n: int, rows: Iterable[tuple[int, int]]) -> str:
    """CSV export, one ``n,k,count`` row per marginal entry."""
    return "\n".join(f"{n},{k},{count}" for k, count in rows)


def table_json_dict(table: StatTable) -> dict[str, int]:
    """JSON export: keys are the comma-joined statistic tuples."""
    return {
        ",".join(map(str, key)): count
        for key, count in sorted(table.counts.items())
    }


def table_csv(table: StatTable) -> str:
    """CSV export, one ``key...,count`` row per entry, keys sorted."""
    return "\n".join(
        ",".join(map(str, (*key, count))) for key, count in sorted(table.counts.items())
    )
