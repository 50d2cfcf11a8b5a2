"""Bitmask helpers for point sets.

A subset of an n-point space is an int whose bit i stands for the point
declared at position i. Everything here is pure integer arithmetic.
"""

from __future__ import annotations

from typing import Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lex_less(a: int, b: int) -> bool:
    """tuple(bits(a)) < tuple(bits(b)): the sorted-index-tuple order that
    defines the 'lexicographically least' subset in reports.

    The tuples agree below low, the lowest bit where a and b differ. If a
    holds low, a is less iff b goes on past it, i.e. has a bit above low;
    if b holds low, a is less iff it ends there. A mask has a bit above low
    iff it is at least 2 * low.
    """
    d = a ^ b
    if not d:
        return False
    low = d & -d
    return b >= low << 1 if a & low else a < low << 1


def subsets_lex(mask: int) -> Iterator[int]:
    """Non-empty subsets of mask in ascending lex_less order,
    e.g. {0} < {0,1} < {0,1,2} < {0,2} < {1} < {1,2} < {2}.

    Scanning in this order makes the first witness the least one.
    """
    positions = list(bits(mask))

    def rec(prefix: int, start: int) -> Iterator[int]:
        for i in range(start, len(positions)):
            cur = prefix | (1 << positions[i])
            yield cur
            yield from rec(cur, i + 1)

    yield from rec(0, 0)


def subsets_gray(full: int) -> Iterator[tuple[int, int]]:
    """Yield (mask, flipped_position) over all subsets of full.

    Masks follow the reflected Gray sequence x ^ (x >> 1), so consecutive
    masks differ in exactly one bit and callers can update derived state
    incrementally. The first pair is (0, -1).
    """
    positions = list(bits(full))
    mask = 0
    yield mask, -1
    for k in range(1, 1 << len(positions)):
        pos = positions[(k & -k).bit_length() - 1]
        mask ^= 1 << pos
        yield mask, pos
