"""Bitmask helpers for point sets.

A subset of an n-point space is an int whose bit i stands for the point
declared at position i. Everything here is pure integer arithmetic.
"""

from __future__ import annotations

from typing import Callable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gfp(prune: Callable[[int], int], s: int) -> int:
    """The greatest fixpoint of prune below s, for a monotone prune with
    prune(t) inside t: the largest t inside s with prune(t) = t."""
    while True:
        t = prune(s)
        if t == s:
            return s
        s = t


def least_prefix(prune: Callable[[int], int], top: int) -> int:
    """The least non-empty fixpoint of prune in the sorted-index-tuple
    order, given its largest one top (non-empty).

    Every fixpoint lies in top. A prefix of top's sorted points is less
    than top, and any other subset of top is greater (it first differs from
    top by a larger point), so the least fixpoint is the shortest prefix of
    top that is one."""
    p = 0
    rest = top
    while True:
        low = rest & -rest
        p |= low
        rest ^= low
        if prune(p) == p:
            return p
