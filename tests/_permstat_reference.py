"""The six permutation statistics, read off one permutation: the brute-force oracle.

This is the ``stat_profile`` that ``gramcalc.permstat`` carried while the
package shipped its own oracle, kept as a test reference: no command reads a
single permutation's statistics, so only the tests call it.  The code is
copied unchanged apart from this docstring.  ``test_permstat`` tallies it over
S_n against the transfer pass's tables, and ``test_acceptance`` checks the
profile laws with it.  It is not imported by the package.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class StatProfile(NamedTuple):
    exterior_peaks: int
    proper_double_descents: int
    peaks: int
    double_descents: int
    valleys: int
    double_rises: int


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
