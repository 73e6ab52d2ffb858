"""Permutation statistics over S_n: joint tables and their marginals.

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

Every statistic is decided by consecutive triples, so the tables come from
one transfer pass that grows a permutation one letter at a time, in time
polynomial in n.  After m letters the state is the relative rank j of the
last letter among the m letters, the direction of the step into it, and the
running (peaks, double descents) over the letters 1..m-1, which are already
classified.  Appending a letter of relative rank r (1..m+1) is an up step iff
r > j, and that step out classifies letter m: up-down is a peak, down-down a
double descent, and up-up or down-up (a double rise or a valley) leave the
key as it is.  The left pad 0 makes the step into p_1 an up step.  This is
the state space of the Seidel-Entringer (boustrophedon) triangle; the counts
of one (direction, key) pair are kept as a list over j, so one step is a
prefix sum.

The kinds differ only in how the last letter is classified: ``exterior_pdd``
never classifies p_n, and the peak-based kinds classify it with the down step
into the right pad 0.  Valleys and double rises are not tracked: with both
pads, peaks = valleys + 1 and the four classes add up to n.  So the pass that
reaches n letters serves every table up to n.  Level m is a pure function of
m, cached and built from level m - 1 only, so each level up to the largest n
asked for is built once per process and kept, and callers, threads included,
that share it get the same result.  No table is cached, and every call
returns a new ``counts`` dict that the caller may change.  Only ``stat_table``
counts: ``table_to_poly``, ``specialize_triangle`` and ``triangle_poly`` read
a table it returned, so a caller that wants a table's polynomial and its
marginals counts it once.  The tests check every table against brute force
over S_n, which reads the definitions above off each permutation.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import accumulate
from operator import index
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ._names import MAX_N, TABLE_KINDS, TRIANGLES

if TYPE_CHECKING:
    from .laurent import LaurentPolynomial

#: Kept only for ``perfbench``, whose environment stamp and tracer read these two
#: names: there is no compiled table engine, and ``_kernel.count_table`` is the
#: transfer pass's entry point, which the tracer rebinds here.
KERNEL_IS_COMPILED = False
_kernel = sys.modules[__name__]

KIND_EXTERIOR_PDD, KIND_PEAK_DD, KIND_CARLITZ = TABLE_KINDS


@cache
def _level(m: int) -> dict[tuple[bool, int, int], list[int]]:
    """Each state (step into the last letter is up, peaks, double descents) of
    the permutations of {1..m}, m >= 1 -> its counts by the 0-based rank of the
    last letter.  The dict and its lists are new and are never changed.
    """
    if m == 1:
        return {(True, 0, 0): [1]}
    level: dict[tuple[bool, int, int], list[int]] = {}
    for (up, peaks, dds), by_rank in _level(m - 1).items():
        # a new letter at 0-based rank r steps up from every j < r, down from j >= r
        below = list(accumulate(by_rank, initial=0))
        fall = (False, peaks + 1, dds) if up else (False, peaks, dds + 1)
        for state, counts in ((True, peaks, dds), below), (fall, [below[-1] - b for b in below]):
            have = level.get(state)
            level[state] = counts if have is None else [a + b for a, b in zip(have, counts)]
    return level


class StatTable(NamedTuple):
    """Counts of a statistic key over all of S_n (they sum to n!)."""

    n: int
    kind: str
    counts: dict[tuple[int, ...], int]


def stat_table(n: int, kind: str) -> StatTable:
    """Count the statistic key of every permutation of {1..n}.

    ``n = 0`` is only meaningful for the exterior-peak table, where the empty
    permutation contributes the single key (0, 0); the peak-based tables start
    at n = 1.
    """
    if kind not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r} (choose from {TABLE_KINDS})")
    n = index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the limit {MAX_N}")
    if n == 0:
        if kind != KIND_EXTERIOR_PDD:
            raise ValueError(f"{kind} tables start at n = 1")
        return StatTable(n=0, kind=kind, counts={(0, 0): 1})
    return StatTable(n=n, kind=kind, counts=count_table(n, kind))


def count_table(n: int, kind: str) -> dict[tuple[int, ...], int]:
    """Classify the pass's level n by the key shape of ``kind``, n >= 1.

    ``stat_table`` is the caller; it checks ``n`` and ``kind``.  Every call
    returns a new dict.
    """
    counts: dict[tuple[int, ...], int] = {}
    for (up, peaks, dds), by_rank in _level(n).items():
        if kind != KIND_EXTERIOR_PDD:
            # the down step into the right pad 0 classifies p_n
            peaks, dds = (peaks + 1, dds) if up else (peaks, dds + 1)
        if kind == KIND_CARLITZ:
            key: tuple[int, ...] = (peaks - 1, dds, peaks - 1, n + 1 - 2 * peaks - dds)
        else:
            key = (peaks, dds)
        counts[key] = counts.get(key, 0) + sum(by_rank)
    return counts


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


#: Each triangle -> the kind of table it is a marginal of, and its key's axis.
TRIANGLE_SOURCE = {
    "T": (KIND_EXTERIOR_PDD, 0),  # permutations by number of exterior peaks
    "U": (KIND_EXTERIOR_PDD, 1),  # by number of proper double descents
    "R": (KIND_PEAK_DD, 0),       # by number of peaks
    "W": (KIND_PEAK_DD, 1),       # by number of double descents
}


def specialize_triangle(table: StatTable, which: str) -> list[tuple[int, int]]:
    """Marginal counts by one statistic: rows (k, count), k ascending."""
    if which not in TRIANGLE_SOURCE:
        raise ValueError(f"unknown triangle {which!r} (choose from {TRIANGLES})")
    kind, axis = TRIANGLE_SOURCE[which]
    if table.kind != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"triangle {which} needs {article} {kind} table, got {table.kind}")
    marginal: dict[int, int] = {}
    for key, count in table.counts.items():
        k = key[axis]
        marginal[k] = marginal.get(k, 0) + count
    return sorted(marginal.items())


def triangle_poly(table: StatTable, which: str) -> LaurentPolynomial:
    """The marginal of ``table`` as a univariate polynomial (in x for T and R, y for U and W)."""
    from .laurent import LaurentPolynomial

    rows = specialize_triangle(table, which)
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
