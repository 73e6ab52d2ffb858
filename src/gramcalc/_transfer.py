"""Statistic tables over S_n from one transfer pass, in polynomial time.

Every statistic in ``gramcalc.permstat`` is decided by consecutive triples, so
a permutation can be grown one letter at a time.  After m letters the state
is the relative rank j of the last letter among the m letters, the direction
of the step into it, and the running key (peaks, double descents) over the
letters 1..m-1, which are already classified.  Appending a letter of relative
rank r (1..m+1) is an up step iff r > j, and that step out classifies letter
m: up-down is a peak, down-down a double descent, and up-up or down-up (a
double rise or a valley) leave the key as it is.  The left pad 0 makes the
step into p_1 an up step.  This is the state space of the Seidel-Entringer
(boustrophedon) triangle; the counts of one (direction, key) pair are kept as
a list over j, so one step is a prefix sum.

The pass that reaches n letters has passed through every m < n, and the
kinds differ only in how the last letter is classified, so one pass serves
every table.  It is grown once per process, only as far as the largest n
asked for so far (at most ``MAX_N``, which ``permstat.stat_table`` checks).
It keeps two things: for every level m reached, the number of permutations
of {1..m} in each (direction, key) state, summed over j; and the by-j counts
of the last level only, from which the next level grows.  ``count_table``
classifies the stored totals of level n for its kind.  One lock is held while
the pass grows, and a level is stored whole before it is read, so the pass is
a cache of a fixed function: sharing it between callers, threads included,
changes no result.

The kinds are named as in ``_names.TABLE_KINDS``: ``exterior_pdd`` (exterior
peaks, proper double descents) never classifies p_n; ``peak_dd`` (peaks,
double descents) and ``carlitz_quadruple`` (peaks - 1, double descents,
valleys, double rises) classify p_n with the down step into the right pad 0.
Valleys and double rises are not tracked: with both pads, peaks = valleys + 1
and the four classes add up to n.
"""

from __future__ import annotations

from _thread import allocate_lock
from itertools import accumulate

# State: (step into the last letter is up, peaks, double descents).
# _totals[m] maps each state of level m to its number of permutations of {1..m};
# _totals[0] is unused, since ``stat_table`` answers n = 0 itself.
_totals: list[dict[tuple[bool, int, int], int]] = [{}, {(True, 0, 0): 1}]
# The states of the last level reached -> counts by the 0-based rank of the last letter.
_front: dict[tuple[bool, int, int], list[int]] = {(True, 0, 0): [1]}
_growing = allocate_lock()


def _merge(groups: dict, key: tuple, counts: list[int]) -> None:
    have = groups.get(key)
    groups[key] = counts if have is None else [a + b for a, b in zip(have, counts)]


def _grow(n: int) -> None:
    """Extend the pass one letter at a time until it has reached level n."""
    global _front
    with _growing:
        while len(_totals) <= n:
            grown: dict[tuple[bool, int, int], list[int]] = {}
            for (up, peaks, dds), by_rank in _front.items():
                # a new letter at 0-based rank r steps up from every j < r, down from j >= r
                below = list(accumulate(by_rank, initial=0))
                total = below[-1]
                _merge(grown, (True, peaks, dds), below)
                fall = (False, peaks + 1, dds) if up else (False, peaks, dds + 1)
                _merge(grown, fall, [total - b for b in below])
            _front = grown
            _totals.append({state: sum(by_rank) for state, by_rank in grown.items()})


def count_table(n: int, kind: str) -> dict[tuple[int, ...], int]:
    """Count the statistic key of every permutation of {1..n}, n >= 1.

    ``permstat.stat_table`` is the caller; it checks ``n`` and ``kind``.
    Every call returns a new dict.
    """
    _grow(n)
    counts: dict[tuple[int, ...], int] = {}
    for (up, peaks, dds), total in _totals[n].items():
        if kind != "exterior_pdd":
            # the down step into the right pad 0 classifies p_n
            peaks, dds = (peaks + 1, dds) if up else (peaks, dds + 1)
        if kind == "carlitz_quadruple":
            key: tuple[int, ...] = (peaks - 1, dds, peaks - 1, n + 1 - 2 * peaks - dds)
        else:
            key = (peaks, dds)
        counts[key] = counts.get(key, 0) + total
    return counts
