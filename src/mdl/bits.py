"""Subsets of {0..n-1} as integer bit vectors.

All ground-set subsets in this package are plain ints; bit i set means
element i is in the subset.  Python ints are arbitrary precision, so the
only size limit is the practical cap enforced by the matroid classes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def union(masks: Iterable[int]) -> int:
    """The OR of the masks: the union of the subsets they encode."""
    u = 0
    for m in masks:
        u |= m
    return u


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_of(mask: int) -> list[int]:
    return list(bits(mask))


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, in ascending numeric order (starts at 0)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def ksubsets(mask: int, k: int) -> Iterator[int]:
    """All k-element submasks of mask, in a fixed deterministic order."""
    idx = indices_of(mask)
    if k > len(idx):
        return
    for combo in combinations(idx, k):
        yield mask_of(combo)
