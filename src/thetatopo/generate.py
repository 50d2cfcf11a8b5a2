"""Enumeration of finite topologies and random space generation.

Spaces on n points are streamed as minimal-neighborhood row tuples in
ascending lexicographic order (rows compared as integers, first row first),
by one backtracking generator over coherent rows (_walk), run in the calling
process. labeled_rows keeps every leaf; homeo_classes runs the same walk as
an orderly generation that keeps only the least labeling of each class.
It skips every prefix that some relabeling of its decided points makes
smaller, so it holds no set of classes seen. At each node only the
relabelings that can give the least possible first row, 2^s - 1 for s the
least neighborhood size, are compared (_is_least), split by the point y
that takes label s; a whole sub-group is skipped when a lower bound on the
row s that y can give already exceeds the prefix's. canonical_rows is the
least tuple of the whole orbit. The relabelings that tie at a kept
leaf are its automorphisms, so each class comes with its orbit size n!/|Aut|
(orbit-stabilizer) at no extra cost:
count_spaces counts labeled spaces as the sum of the orbit sizes and never
walks or builds them, and homeo_rows is the stream of representatives
alone. The tests cross-check the labeled stream against an independent walk
over open-set families, the homeo stream against an orbit-marking
reference, the orbit sizes against the orbit sets, the prefix and leaf
test against scans over every relabeling, and the relabeling tables against
the direct relabeling in tests/oracles.py.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import permutations
from math import factorial
from typing import Iterator

from .bitset import bits
from .space import POINT_CAP, CapExceeded, FinSpace, TopologyError

LABELED_CAP = 6
HOMEO_CAP = 7

_NAME_POOL = tuple(str(i) for i in range(POINT_CAP))


def space_from_rows(rows: tuple[int, ...]) -> FinSpace:
    """The space on points "0", "1", ... with minimal neighborhoods rows,
    for 0 to POINT_CAP (24) rows; more rows raise CapExceeded."""
    return FinSpace(_NAME_POOL[: len(rows)], rows)


def _check_n(n: int) -> None:
    """Refuse a negative point count on the call, before any work."""
    if n < 0:
        raise TopologyError("the point count n must be at least 0")


def labeled_rows(n: int) -> Iterator[tuple[int, ...]]:
    """All coherent minimal-neighborhood row tuples on n points, ascending."""
    _check_n(n)
    return _walk(n, False)


def _walk(n: int, orderly: bool) -> Iterator[tuple]:
    """The coherent-row backtracking walk behind both streams, ascending.

    Point i's row must lie inside N(j) for each decided j with i ∈ N(j), so
    the candidates are the subsets of the AND of those rows, walked in
    ascending order; a candidate is kept when it contains N(j) for each
    decided j it holds (looked up in `unions`, the OR of the decided rows
    over each set of decided points). Every point pair is checked when its
    later member is placed, so leaves are exactly the valid topologies.

    When orderly, only the least labeling of each class is kept, paired
    with its orbit size. A least labeling has the first-row form: row 0 is
    2^s - 1 for s the least neighborhood size, so no row has fewer than s
    points (see _is_least). A row that breaks the form is skipped, and a
    subtree is skipped when _is_least finds a relabeling of its decided
    points that gives a smaller prefix; at a leaf it gives |Aut|.
    """
    if n == 0:
        yield ((), 1) if orderly else ()
        return
    full = (1 << n) - 1
    groups = _first_row_groups(n) if orderly else ()
    n_perms = factorial(n)
    rows: list[int] = []

    def place(i: int, unions: list[int], s: int) -> Iterator[tuple]:
        own = 1 << i
        upper = full
        for r in rows:
            if r & own:
                upper &= r
        free = upper & ~own
        t = 0
        while True:
            m = t | own
            if not unions[m & (own - 1)] & ~m:
                rows.append(m)
                if not orderly:
                    if i + 1 < n:
                        yield from place(i + 1, unions + [u | m for u in unions], 0)
                    else:
                        yield tuple(rows)
                # The first-row form, then no smaller relabeled prefix.
                elif (i or not m & (m + 1)) and m.bit_count() >= s:
                    aut = _is_least(rows, groups[i])
                    if aut and i + 1 < n:
                        yield from place(i + 1, unions + [u | m for u in unions], s or m.bit_count())
                    elif aut:
                        yield tuple(rows), n_perms // aut
                rows.pop()
            if t == free:
                return
            t = ((t | ~free) + 1) & free

    try:
        yield from place(0, [0], 0)
    finally:
        # place refers to itself; dropping the name frees the walk's state
        # when it ends, also when the consumer stops early.
        del place


def _is_least(rows: list[int], groups: dict[tuple[int, int], list]) -> int:
    """0 when some relabeling of the decided points 0..j (j = len(rows) - 1,
    every point above j fixed) gives a smaller prefix; otherwise the number
    of those relabelings that reproduce it, which at a leaf is |Aut(rows)|.
    rows must have the first-row form, which the walk keeps: rows[0] is
    2^s - 1 and no row has fewer than s points. groups is the level-j index
    of _first_row_groups.

    A relabeling p that fixes the points above j maps rows 0..j to rows
    that depend on the decided rows alone, so a smaller prefix makes every
    completion non-least. Its first row p(N(x0)), x0 = p⁻¹(0), holds bit 0
    and at least s bits, so it is at least 2^s - 1, with equality iff
    |N(x0)| = s and p(N(x0)) = {0..s-1}, which needs N(x0) ⊆ {0..j} once
    j ≥ s. Every other relabeling has a larger first row, so only the groups
    (x0, N(x0)) of such x0 are compared. Every least labeling has this
    form: its first row is the least over all relabelings, 2^s - 1 for s
    the least |N(x)|.

    Rows 0..s-1 tie in those groups: for k < s, k lies in N(0), so N(k) ⊆
    N(0) and, having at least s points, N(k) = N(0); likewise p⁻¹(k) lies in
    N(x0), so p(N(p⁻¹(k))) = p(N(x0)) = 2^s - 1. So each relabeling is
    compared from row s up to its first difference, and while j < s every
    relabeling of the decided rows reproduces them.

    Row s is p(N(y)), y = p⁻¹(s), and each group is split by y. With c the
    number of decided points of N(y) outside N(x0), every table of the
    sub-group gives a row s of at least

        lo(y) = (N(y) above j) | ((2^c - 1) << s) | (2^s - 1 if N(y) meets N(x0)).

    p fixes the points above j, so their bits of N(y) stay. N(y) meets N(x0)
    only by holding all of it: each point z of N(x0) has N(z) ⊆ N(x0) and
    at least s points, so N(z) = N(x0), and z ∈ N(y) gives N(z) ⊆ N(y); then
    p(N(y)) holds p(N(x0)) = {0..s-1}. The c decided points of N(y) outside
    N(x0) are y, labeled s, and c - 1 others, whose labels are distinct and
    lie in s+1..j, since 0..s-1 label N(x0). So p(N(y)) has the bits of
    lo(y) above j and below s, and c bits in s..j, which as an integer are
    at least the c lowest. When lo(y) > rows[s], every table of the
    sub-group makes row s larger after rows 0..s-1 tie, so none ties or
    undercuts and the sub-group is skipped: the result is the full scan's.
    In the code d = |N(y) ∩ {0..j}|, which is c + s when N(y) meets N(x0)
    and c otherwise, so the part of lo(y) below j + 1 is 2^d - 1 or
    (2^d - 1) << s."""
    s = rows[0].bit_length()
    last = len(rows) - 1
    if last < s:
        return factorial(last + 1)
    above = -2 << last
    row_s = rows[s]
    aut = 0
    for x0, r0 in enumerate(rows):
        if r0.bit_count() != s:
            continue
        for y, tables in groups.get((x0, r0), ()):
            ny = rows[y]
            lo = (1 << (ny & ~above).bit_count()) - 1
            if not ny & r0:
                lo <<= s
            if ny & above | lo > row_s:
                continue
            for t, inv in tables:
                k = s
                r = t[ny]
                while r == rows[k] and k < last:
                    k += 1
                    r = t[rows[inv[k]]]
                if r <= rows[k]:
                    if r < rows[k]:
                        return 0
                    aut += 1
    return aut


@cache
def _relabelings(n: int) -> list[tuple[list[int], list[int]]]:
    """Per permutation p of n points, its image table over all 2^n masks and
    the inverse order inv (p[inv[k]] == k). Built on first use per n and
    kept: about 6 MiB at the 7-point cap."""
    out = []
    for p in permutations(range(n)):
        table = [0]
        for j in p:
            bit = 1 << j
            table += [m | bit for m in table]
        out.append((table, sorted(range(n), key=p.__getitem__)))
    return out


@cache
def _first_row_groups(n: int) -> tuple[dict[tuple[int, int], list[tuple[int, list]]], ...]:
    """Per level j < n, the relabeling tables of the permutations that fix
    every point above j, grouped by (p⁻¹(0), p⁻¹({0..k})) for each k < j:
    those that send x0 to 0 and the mask m onto the least |m| labels. Each
    group is split by y = p⁻¹(|m|), the point that takes the next label,
    into a list of (y, tables) pairs, for the bound of _is_least, which
    asks only for |m| = s ≤ j, so y is decided. A table that moves no point
    above t sits at every level j ≥ t, in j groups there, so level n - 1
    holds every table. Built on first use per n and kept: about 0.71 MiB
    beside the tables at the 7-point cap."""
    subs: list[dict[tuple[int, int, int], list]] = [{} for _ in range(n)]
    for table in _relabelings(n):
        inv = table[1]
        top = n - 1  # the highest point the permutation moves, or 0
        while top and inv[top] == top:
            top -= 1
        keys = []
        m = 0
        for k in range(n - 1):
            m |= 1 << inv[k]
            keys.append((inv[0], m, inv[k + 1]))
        for j in range(top, n):
            level = subs[j]
            for key in keys[:j]:
                level.setdefault(key, []).append(table)
    out: tuple[dict[tuple[int, int], list], ...] = tuple({} for _ in range(n))
    for groups, level in zip(out, subs):
        for (x0, m, y), tables in level.items():
            groups.setdefault((x0, m), []).append((y, tables))
    return out


def _orbit(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """rows relabeled by each permutation p (point i -> p[i]), in permutations order."""
    return (tuple([t[rows[k]] for k in inv]) for t, inv in _relabelings(len(rows)))


def canonical_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The least row tuple over all relabelings."""
    n = len(rows)
    if n > HOMEO_CAP:
        raise CapExceeded(f"canonical form over {n}! relabelings; cap is {HOMEO_CAP} points")
    return min(_orbit(rows))


def canonicalize(space: FinSpace) -> FinSpace:
    """Canonical representative of the homeomorphism class, on points 0..n-1."""
    return space_from_rows(canonical_rows(space.nbhd))


def homeo_rows(n: int) -> Iterator[tuple[int, ...]]:
    """One representative per homeomorphism class, in ascending order: the
    rows of homeo_classes."""
    return (rows for rows, _ in homeo_classes(n))


def homeo_classes(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(representative, orbit size) per homeomorphism class, in ascending
    order: the orderly walk keeps exactly the labelings equal to their
    canonical form.

    After row j is placed, a relabeling of the points 0..j fixes every
    point above j, so rows 0..j of the relabeled tuple depend on the decided
    rows alone. If one gives a smaller tuple, every completion of the
    prefix has a smaller relabeling and is not canonical, so the subtree is
    skipped (_is_least, which compares only the relabelings that can tie
    the first row, and of those skips every sub-group that a lower bound
    shows cannot tie row s). At a leaf these are all relabelings, so a leaf
    is kept iff rows == canonical_rows(rows). Pruning only drops rows from
    the ascending labeled walk, so the stream ascends and, the least
    labeling of each class being kept, holds one row tuple per class. Memory
    is the relabeling tables, their first-row index per level and the
    current path.

    Every automorphism keeps the first row, so it lies in the first-row
    groups that a kept leaf scans, in a sub-group that the bound does not
    skip since it ties row s, and the tables that reproduce the rows there
    are exactly the automorphisms; the class holds n!/|Aut|
    labeled spaces (orbit-stabilizer), each relabeling p giving the same
    labeling as p·a for every automorphism a.
    """
    _check_n(n)
    return _walk(n, True)


def _check_cap(n: int, mode: str) -> None:
    if mode == "labeled":
        if n > LABELED_CAP:
            raise CapExceeded(f"labeled enumeration capped at {LABELED_CAP} points")
    elif mode == "homeo":
        if n > HOMEO_CAP:
            raise CapExceeded(f"homeomorphism enumeration capped at {HOMEO_CAP} points")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def enumerate_rows(n: int, mode: str = "labeled") -> Iterator[tuple[int, ...]]:
    """labeled_rows(n) or homeo_rows(n), capped per mode; caps are checked on the call."""
    _check_cap(n, mode)
    return labeled_rows(n) if mode == "labeled" else homeo_rows(n)


def enumerate_spaces(n: int, mode: str = "labeled") -> Iterator[FinSpace]:
    """The spaces of enumerate_rows(n, mode), caps checked on the call.
    Library API: the CLI prints enumerate_rows without building spaces."""
    return map(space_from_rows, enumerate_rows(n, mode))


def count_spaces(n: int, mode: str = "labeled") -> int:
    """The length of enumerate_spaces(n, mode), with the same caps, checked
    on the call. Both modes run the orderly walk: labeled spaces are counted
    as the sum of the classes' orbit sizes, so none is built."""
    _check_cap(n, mode)
    classes = homeo_classes(n)
    if mode == "labeled":
        return sum(size for _, size in classes)
    return sum(1 for _ in classes)


# ---------------------------------------------------------------------------
# Random generation for property tests and sampled sweeps.
# ---------------------------------------------------------------------------

def random_rows(n: int, rng: random.Random, density: float = 0.35) -> tuple[int, ...]:
    """A random topology: random reflexive rows, then coherence closure
    (if y ∈ N(x) then N(y) ⊆ N(x)) iterated to a fixpoint. n is refused
    outside 0..POINT_CAP, before any draw."""
    _check_n(n)
    if n > POINT_CAP:
        raise CapExceeded(f"random spaces capped at {POINT_CAP} points")
    rows = []
    for i in range(n):
        m = 1 << i
        for j in range(n):
            if j != i and rng.random() < density:
                m |= 1 << j
        rows.append(m)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = rows[i]
            for j in bits(m):
                m |= rows[j]
            if m != rows[i]:
                rows[i] = m
                changed = True
    return tuple(rows)


def random_space(n: int, rng: random.Random) -> FinSpace:
    return space_from_rows(random_rows(n, rng))
