"""Finite dyadic martingales, maximal functions, H_p machinery, atoms.

A depth-M martingale is stored through its terminal level only: the
Paley spectrum of f^(M) on 2^M cells.  Level n is the conditional
expectation onto the rank-n cells, which for the Paley system keeps the
coefficients below 2^n.  It depends only on the coordinates below n, so
`level` butterflies those 2^n coefficients and tiles the result, like every
truncated spectrum; `s2n_by_averaging` (block means) is the oracle.

The maximal function is f* = max_{0<=n<=M} |f^(n)| and
||f||_{H_p} = ||f*||_p.  `maximal` and `square_function_squared` fold
every level out of one butterfly of the terminal spectrum instead.
For 0 < p <= 1 a p-atom on an interval I has zero mean on I, support
inside I and sup-norm at most mu(I)^{-1/p}.

The conjugate transform multiplies the n-th martingale difference by
the sign r_n(t).  It always preserves every H_p quasi-norm; it agrees
with a group translation exactly when the sign pattern is realizable as
a character on the occupied spectrum: a GF(2) linear system that
`_shift_solver` eliminates once per martingale and solves for many sign
points at once, given their signs as one matrix (`_signs`).  The folds
`walsh._signed_sup_abs` and `walsh._signed_square_sum` take that matrix
as one stack, so a sweep over sign points costs one butterfly per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .group import DyadicInterval, GroupPoint
from .norms import PLike, QuasiNormValue, lp_quasinorm, normalize_p, translate
from .walsh import (CoefficientSequence, SampledFunction, System, _level, _signed_square_sum,
                    _signed_sup_abs, _sup_abs, _zeroed, fwht)


class DyadicMartingale:
    """Finite dyadic martingale (f^(n))_{n<=M} determined by its terminal level."""

    __slots__ = ("depth", "terminal")

    def __init__(self, terminal: CoefficientSequence):
        self.depth = terminal.resolution
        self.terminal = terminal.to_ordering(System.PALEY)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_paley_coeffs(cls, depth: int,
                          coeffs: Sequence | np.ndarray) -> "DyadicMartingale":
        return cls(CoefficientSequence(depth, System.PALEY, coeffs))

    @classmethod
    def from_function(cls, f: SampledFunction) -> "DyadicMartingale":
        return cls(fwht(f))

    # -- structure ---------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.terminal.is_exact

    def level(self, n: int) -> SampledFunction:
        """f^(n) = S_{2^n} f^(M), sampled on the 2^M cells."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside 0..{self.depth}")
        return _level(self.terminal, n)

    def terminal_function(self) -> SampledFunction:
        return self.level(self.depth)

    def tail(self, n: int) -> "DyadicMartingale":
        """The martingale of f - S_{2^n}f: levels <= n vanish."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"tail level {n} outside 0..{self.depth}")
        return DyadicMartingale(_zeroed(self.terminal, slice(None, 1 << n)))

    def __repr__(self) -> str:
        return f"DyadicMartingale(depth={self.depth}, mode={self.terminal.mode})"


def s2n(f: "DyadicMartingale | SampledFunction", n: int) -> SampledFunction:
    """S_{2^n} f by Paley-coefficient truncation."""
    if isinstance(f, DyadicMartingale):
        return f.level(n)
    if not 0 <= n <= f.resolution:
        raise ValueError(f"partial-sum level {n} outside 0..{f.resolution}")
    return _level(fwht(f), n)


def s2n_by_averaging(f: SampledFunction, n: int) -> SampledFunction:
    """S_{2^n} f by averaging over each rank-n cell (independent route)."""
    if not 0 <= n <= f.resolution:
        raise ValueError(f"partial-sum level {n} outside 0..{f.resolution}")
    return f._block_means(n)


def maximal(f: DyadicMartingale) -> SampledFunction:
    """f* = max_n |f^(n)| pointwise over all levels 0..M: `_signed_sup_abs` with no signs."""
    return _signed_sup_abs(f.terminal)


def maximal_by_averages(f: SampledFunction) -> SampledFunction:
    """sup_n |mean of f over the rank-n cell through x| (integral form)."""
    return _sup_abs(s2n_by_averaging(f, n) for n in range(f.resolution + 1))


def hardy_quasinorm(f: DyadicMartingale, p: PLike) -> QuasiNormValue:
    """||f||_{H_p} = ||f*||_p."""
    return lp_quasinorm(maximal(f), p)


def square_function_squared(f: DyadicMartingale) -> SampledFunction:
    """S(f)^2 = sum_n |f^(n) - f^(n-1)|^2 pointwise (exact in exact mode).

    Any modulation of the differences by unit signs leaves this function
    unchanged pointwise, which is the exactly-preserved quantity behind
    the conjugate transform's isometry.
    """
    return _signed_square_sum(f.terminal)


def modulus_hp(f: DyadicMartingale, n: int, p: PLike) -> QuasiNormValue:
    """omega_{H_p}(1/2^n, f) = ||f - S_{2^n}f||_{H_p}."""
    if not 0 <= n <= f.depth:
        raise ValueError(f"modulus level {n} outside 0..{f.depth}")
    return hardy_quasinorm(f.tail(n), p)


# ---------------------------------------------------------------------------
# atoms

@dataclass(frozen=True)
class PAtomCertificate:
    """Outcome of the three p-atom clauses; failure names the first violation."""

    passed: bool
    violated: Optional[str]  # 'support' | 'mean' | 'sup_bound' | None
    p: Fraction | float
    interval: DyadicInterval
    sup_value: Fraction | float
    sup_bound: float
    integral_over_interval: Fraction | float


def is_p_atom(a: SampledFunction, interval: DyadicInterval,
              p: PLike) -> PAtomCertificate:
    """Check supp(a) in I, zero mean on I, and ||a||_inf <= mu(I)^{-1/p}."""
    p = normalize_p(p)
    if not 0 < p <= 1:
        raise ValueError(f"atoms are defined for 0 < p <= 1, got {p}")
    inside = interval.cells(a.resolution)
    nonzero = a._nonzero()
    supported = np.count_nonzero(nonzero) == np.count_nonzero(nonzero[inside])
    return _atom_clauses(interval, p, supported, a._integral(inside), a._sup(), a.is_exact)


def _atom_clauses(interval: DyadicInterval, p: Fraction | float, supported: bool,
                  integral: Fraction | float, sup_value: Fraction | float,
                  exact: bool) -> PAtomCertificate:
    """The three p-atom clauses, in order, from what a function a shows of them; p is checked.

    `supported` says a vanishes off I, `integral` is its integral over I, `sup_value` is
    sup |a|, and `exact` says its values are ints and Fractions.
    """
    mean_ok = integral == 0 if exact else abs(integral) < 1e-12
    rank = interval.rank
    exponent = rank / float(p)  # 2^1024 is past the float range; exact atoms need no float
    bound = 2.0 ** exponent if exponent < 1024 else math.inf
    if exact and isinstance(p, Fraction):
        # |v| <= 2^{rank/p}  <=>  |v|^num <= 2^{rank*den}, all integers/rationals
        sup_ok = Fraction(sup_value) ** p.numerator <= Fraction(2) ** (rank * p.denominator)
    else:
        sup_ok = float(sup_value) <= bound * (1 + 1e-12)
    violated = next((clause for clause, held in (("support", supported), ("mean", mean_ok),
                                                 ("sup_bound", sup_ok)) if not held), None)
    return PAtomCertificate(violated is None, violated, p, interval,
                            sup_value, bound, integral)


def atomic_norm_bound(weights: Sequence, p: PLike) -> float:
    """(sum_k |mu_k|^p)^{1/p}: comparison series for the atomic decomposition.

    The equivalence constant linking this to ||f||_{H_p} is not asserted;
    callers report the empirical ratio instead.
    """
    p = normalize_p(p)
    if not p > 0:
        raise ValueError(f"exponent p must be > 0, got {p}")
    pf = float(p)
    power = math.fsum(abs(float(w)) ** pf for w in weights)
    return power ** (1.0 / pf)


# ---------------------------------------------------------------------------
# conjugate transform

def _signs(f: DyadicMartingale, points: Sequence[GroupPoint] | np.ndarray) -> np.ndarray:
    """r_{bit_length(i)}(t) as int64 +-1: a row per t in `points`, a column per Paley index i < 2^M.

    Difference n occupies the Paley indices of bit length n: the constant
    term for n = 0, the block [2^{n-1}, 2^n) for n >= 1.  Signing
    differences 0..M needs coordinates t_0..t_M, so resolution >= M + 1;
    `points` are GroupPoints, or an int array of the indices of such points.
    """
    M = f.depth
    if not isinstance(points, np.ndarray):
        coarsest = min(t.resolution for t in points)
        if coarsest < M + 1:
            raise ValueError(f"conjugate sign point needs resolution >= {M + 1}, got {coarsest}")
        points = np.array([t.index & ((2 << M) - 1) for t in points], dtype=np.int64)
    flips = points[:, None] >> np.repeat(np.arange(M + 1), [1] + [1 << n for n in range(M)]) & 1
    return 1 - 2 * flips


def conjugate(f: DyadicMartingale, t: GroupPoint) -> DyadicMartingale:
    """Multiply the n-th martingale difference by r_n(t); t needs resolution > depth."""
    return DyadicMartingale(f.terminal._weighted(_signs(f, [t])[0]))


def _shift_solver(f: DyadicMartingale) -> Callable[[np.ndarray], np.ndarray]:
    """For rows s of `_signs`, the u with w_i(u) = s[i] on every occupied Paley index i of f,
    as an int64 index per row, or -1 where there is none.

    One GF(2) elimination, pivoting on the highest set bit, records the occupied rows each
    pivot and each zero row combine; one parity product gives every row's right-hand sides.
    A zero row with right-hand side 1 (0 = 1) leaves no shift; the pivots back-substitute all
    rows at once, lowest first, since a pivot's mask has no bit above its own.
    """
    occupied = np.flatnonzero(f.terminal._nonzero())
    pivots, zeros = {}, []  # top bit: (mask, combination of occupied rows); zero rows' ones
    for row, mask in enumerate(occupied.tolist()):
        combo = 1 << row
        while mask and mask.bit_length() - 1 in pivots:
            pmask, pcombo = pivots[mask.bit_length() - 1]
            mask, combo = mask ^ pmask, combo ^ pcombo
        if mask:
            pivots[mask.bit_length() - 1] = (mask, combo)
        else:
            zeros.append(combo)
    tops = sorted(pivots)
    combos = np.array([pivots[top][1] for top in tops] + zeros, dtype=object)
    parity = (combos >> np.arange(len(combos))[:, None] & 1).astype(np.int64)  # row r in combo c

    def solve(signs: np.ndarray) -> np.ndarray:
        rhs = (signs[:, occupied] < 0) @ parity & 1
        u = np.zeros(len(signs), dtype=np.int64)
        for top, col in zip(tops, rhs.T):
            u |= (np.bitwise_count(u & (pivots[top][0] ^ 1 << top)) & 1 ^ col) << top
        return np.where(rhs[:, len(tops):].any(axis=1), -1, u)

    return solve


def conjugate_shift(f: DyadicMartingale, t: GroupPoint) -> Optional[GroupPoint]:
    """A shift u with  conjugate(f, t) = f(. + u)  on the terminal level, if any.

    Translation multiplies coefficient i by w_i(u) and conjugation by r_{bit_length(i)}(t),
    so u solves `_shift_solver`'s system for the one row of t; the constant term holds only
    when r_0(t) = 1.  Martingales with at most one occupied coefficient per block (and no
    constant term when r_0(t) = -1) always admit one; dense spectra generally do not (None).
    """
    u = int(_shift_solver(f)(_signs(f, [t]))[0])
    shift = GroupPoint(f.depth, u) if u >= 0 else None
    matched = shift is not None and (translate(f.terminal_function(), shift)
                                     == conjugate(f, t).terminal_function())
    return shift if matched else None
