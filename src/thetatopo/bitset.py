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


def subsets_lex(mask: int) -> Iterator[int]:
    """Non-empty subsets of mask in ascending sorted-index-tuple order,
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

