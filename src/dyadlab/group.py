"""Arithmetic of the dyadic (Walsh) group at finite resolution.

A point of the group is a 0/1 coordinate sequence (x_0, x_1, ...) with
coordinatewise addition mod 2.  At resolution N only the first N
coordinates are retained and a point is identified with the integer
index j = sum_k x_k 2^k, so that coordinate x_k is bit k (the
least-significant bit) of j and group addition is index XOR.

Dyadic intervals I_n(x) collect the points agreeing with x on the first
n coordinates; mu(I_n) = 2^{-n}.  tau_A reverses the first A coordinates
and fixes the rest; it is a measure-preserving involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


def msb(n: int) -> int:
    """Position of the highest set bit: 2^msb(n) <= n < 2^(msb(n)+1)."""
    if n < 1:
        raise ValueError(f"msb undefined for n = {n}; need n >= 1")
    return n.bit_length() - 1


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low `width` bits of `value`; bits >= width must be 0."""
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    out = 0
    for k in range(width):
        if value >> k & 1:
            out |= 1 << (width - 1 - k)
    return out


@dataclass(frozen=True)
class GroupPoint:
    """Group element truncated to `resolution` binary coordinates."""

    resolution: int
    index: int

    def __post_init__(self) -> None:
        if self.resolution < 0:
            raise ValueError(f"resolution must be >= 0, got {self.resolution}")
        if not 0 <= self.index < (1 << self.resolution):
            raise ValueError(
                f"index {self.index} out of range for resolution {self.resolution}"
            )

    @classmethod
    def zero(cls, resolution: int) -> "GroupPoint":
        """The null element."""
        return cls(resolution, 0)

    @classmethod
    def unit(cls, n: int, resolution: int) -> "GroupPoint":
        """e_n: coordinate n set, all others zero."""
        if not 0 <= n < resolution:
            raise ValueError(f"unit coordinate {n} needs resolution > {n}")
        return cls(resolution, 1 << n)

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "GroupPoint":
        index = 0
        for k, bit in enumerate(coords):
            if bit not in (0, 1):
                raise ValueError(f"coordinate {k} must be 0 or 1, got {bit!r}")
            index |= bit << k
        return cls(len(coords), index)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self.index >> k & 1 for k in range(self.resolution))

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        return group_add(self, other)

    def __repr__(self) -> str:  # (1,0,1) style, LSB first
        return f"GroupPoint{self.coords}"


def group_add(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Coordinatewise addition mod 2, i.e. XOR of indices."""
    if x.resolution != y.resolution:
        raise ValueError(
            f"resolution mismatch: {x.resolution} vs {y.resolution}; "
            "promote explicitly before adding"
        )
    return GroupPoint(x.resolution, x.index ^ y.index)


def rademacher(k: int, x: GroupPoint) -> int:
    """r_k(x) = (-1)^{x_k}."""
    if k >= x.resolution:
        raise ValueError(f"rademacher index {k} >= resolution {x.resolution}")
    return -1 if x.index >> k & 1 else 1


def tau(A: int, x: GroupPoint) -> GroupPoint:
    """Reverse coordinates 0..A-1 of x, leave coordinates >= A unchanged."""
    if A > x.resolution:
        raise ValueError(f"tau width {A} exceeds resolution {x.resolution}")
    return GroupPoint(x.resolution, tau_index(A, x.index))


def tau_index(A: int, j: int) -> int:
    """Index form of tau: reverse the low A bits of j."""
    mask = (1 << A) - 1
    return (j & ~mask) | bit_reverse(j & mask, A)


def tau_permutation(A: int, N: int) -> np.ndarray:
    """tau_index(A, j) for every j < 2^N, as an int64 index array."""
    if A > N:
        raise ValueError(f"tau width {A} exceeds resolution {N}")
    j = np.arange(1 << N, dtype=np.int64)
    out = j & ~((1 << A) - 1)
    for k in range(A):
        out |= (j >> k & 1) << (A - 1 - k)
    return out


@dataclass(frozen=True)
class DyadicInterval:
    """I_rank(anchor): points agreeing with anchor on coordinates < rank."""

    rank: int
    anchor: GroupPoint

    def __post_init__(self) -> None:
        if not 0 <= self.rank <= self.anchor.resolution:
            raise ValueError(
                f"rank {self.rank} out of range for anchor resolution "
                f"{self.anchor.resolution}"
            )

    @classmethod
    def at_zero(cls, rank: int, resolution: int) -> "DyadicInterval":
        """I_rank := I_rank(0)."""
        return cls(rank, GroupPoint.zero(resolution))

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.rank)

    @property
    def anchor_bits(self) -> int:
        """The significant (low `rank`) bits of the anchor index."""
        return self.anchor.index & ((1 << self.rank) - 1)

    def contains(self, y: GroupPoint) -> bool:
        mask = (1 << self.rank) - 1
        return (y.index & mask) == self.anchor_bits

    def cells(self, resolution: int) -> slice:
        """The interval's cells at resolution N, as one stride.

        They are the 2^{N-rank} indices whose low `rank` bits equal the
        anchor's: anchor_bits + k 2^rank for k < 2^{N-rank}.
        """
        if self.rank > resolution:
            raise ValueError(f"interval rank {self.rank} exceeds resolution {resolution}")
        return slice(self.anchor_bits, 1 << resolution, 1 << self.rank)

    def indices(self, resolution: int) -> list[int]:
        return interval_indices(self, resolution)


def interval_indices(interval: DyadicInterval, resolution: int) -> list[int]:
    """Ascending sample indices of the rank-N cells inside the interval."""
    return list(range(1 << resolution)[interval.cells(resolution)])


@dataclass(frozen=True)
class JInterval:
    """Two-spike interval: x_m = 1, x_l = 1, all other coordinates < N zero.

    m = -1 drops the x_m constraint (single spike at l).  The bound m <= l
    is enforced; m = l is permitted and degenerates to the single spike.
    """

    N: int
    m: int
    l: int

    def __post_init__(self) -> None:
        if not 0 <= self.l < self.N:
            raise ValueError(f"l = {self.l} out of range 0..{self.N - 1}")
        if not -1 <= self.m <= self.l:
            raise ValueError(f"m = {self.m} out of range -1..{self.l}")

    @property
    def anchor_index(self) -> int:
        idx = 1 << self.l
        if self.m >= 0:
            idx |= 1 << self.m
        return idx

    def as_interval(self) -> DyadicInterval:
        return DyadicInterval(self.N, GroupPoint(self.N, self.anchor_index))

    def contains(self, y: GroupPoint) -> bool:
        return self.as_interval().contains(y)
