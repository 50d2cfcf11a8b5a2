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


def index_tuple(mask: int) -> tuple[int, ...]:
    """The sorted tuple of bit positions; the comparison key that defines
    the 'lexicographically least' subset in reports."""
    return tuple(bits(mask))


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself, in ascending
    numeric order: (sub - mask) & mask adds one at the lowest bit of mask
    and carries through the bits outside it. Order is arbitrary for callers;
    use subsets_lex when 'first hit' must mean 'lexicographically least'."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def subsets_lex(mask: int) -> Iterator[int]:
    """Non-empty submasks of mask in index_tuple (sorted-tuple) lex order,
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
