"""The per-table transfer recurrence, kept as a test reference.

This is the ``count_table`` that the transfer pass, now in
``gramcalc.permstat``, had before one grown pass served every table: each
call regrows the permutation from one letter up to n and classifies the last
letter for its own kind.  It is copied unchanged apart from this docstring
and the function's; ``test_transfer_differential`` compares the package's
tables against it.  It is not imported by the package.
"""

from __future__ import annotations

from itertools import accumulate


def _merge(groups: dict, key: tuple, counts: list[int]) -> None:
    have = groups.get(key)
    groups[key] = counts if have is None else [a + b for a, b in zip(have, counts)]


def count_table(n: int, kind: str) -> dict[tuple[int, ...], int]:
    """Count the statistic key of every permutation of {1..n}, n >= 1."""
    # (step into the last letter is up, peaks, double descents) -> counts by
    # the 0-based rank of the last letter among the letters so far
    groups: dict[tuple[bool, int, int], list[int]] = {(True, 0, 0): [1]}
    for _ in range(n - 1):
        grown: dict[tuple[bool, int, int], list[int]] = {}
        for (up, peaks, dds), by_rank in groups.items():
            # a new letter at 0-based rank r steps up from every j < r, down from j >= r
            below = list(accumulate(by_rank, initial=0))
            total = below[-1]
            _merge(grown, (True, peaks, dds), below)
            fall = (False, peaks + 1, dds) if up else (False, peaks, dds + 1)
            _merge(grown, fall, [total - b for b in below])
        groups = grown
    counts: dict[tuple[int, ...], int] = {}
    for (up, peaks, dds), by_rank in groups.items():
        if kind != "exterior_pdd":
            # the down step into the right pad 0 classifies p_n
            peaks, dds = (peaks + 1, dds) if up else (peaks, dds + 1)
        if kind == "carlitz_quadruple":
            key: tuple[int, ...] = (peaks - 1, dds, peaks - 1, n + 1 - 2 * peaks - dds)
        else:
            key = (peaks, dds)
        counts[key] = counts.get(key, 0) + sum(by_rank)
    return counts
