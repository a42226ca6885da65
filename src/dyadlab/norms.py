"""L_p quasi-norms, weak-L_p, translation, and moduli of continuity.

All norms are integrals against the normalized Haar measure, so on 2^N
cells ||f||_p^p = 2^{-N} sum_j |f(j)|^p.  For p >= 1 this is a norm; for
0 < p < 1 only the p-th-power subadditivity holds and results are
reported with the p-th-power sum retained, so acceptance checks can
compare powers instead of extracting noisy roots.  Exact cells fold their
runs of equal |value| (`_lp_of_runs`): a Fraction sum at integer p, else
an `fsum` of exact 2^b multiples of float(|value|)^p, rounded once.

weak-L_p is sup_{lambda>0} lambda * mu{|f| > lambda}^{1/p}.  For a step
function the supremum is attained as lambda increases to a value of |f|,
so it equals the maximum of v * mu{|f| >= v}^{1/p} over the distinct
values v; with 1/p an integer this is an exact rational.  Exact mode
counts the distinct integer |numerators| and forms v * count^{1/p} only
at the end of each run of equal values (`_weak_of_runs`): in Python ints
over the common denominator, or, at float exponents, with each value's
quotient rounded once (as float(Fraction) does) before Python's **.

The translation profile ||f(.+h) - f||_p^p over every shift h gives
every modulus of continuity omega_p(1/2^n, f) as a masked maximum.  At
even p it is exact: the float cells, scaled to integers over one power
of two, give integer power sums for all shifts at once by dyadic
correlation (`_translate_power_sums`), and each value is rounded once.
Other p, and cells that are not finite, sum each pair {j, j + h} once and
double it (`_shift_power_sums`), with no 4^N index.  `modulus_lp` sums
only its 2^{N-n} shifts (float mode) or loops over as many exact translates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .group import GroupPoint
from .walsh import SampledFunction, _level, _zeroed, fwht

PLike = Union[int, float, Fraction, str]


def normalize_p(p: PLike) -> Fraction | float:
    """Keep rational p rational (enables exact paths); finite floats stay floats.

    A nonzero rational p whose float is 0 is refused: the float routes divide by it.
    """
    if isinstance(p, (int, str)):
        p = Fraction(p)
    if isinstance(p, Fraction):
        if p.denominator.bit_length() > 1074 and float(p) == 0:  # the least float is 2^-1074
            raise ValueError("exponent p is nonzero but its float is 0")
        return p
    if isinstance(p, float):
        if not math.isfinite(p):
            raise ValueError(f"exponent p must be finite, got {p}")
        return Fraction(p) if p.is_integer() else p
    raise TypeError(f"cannot interpret exponent {p!r}")


@dataclass(frozen=True)
class QuasiNormValue:
    """A computed quasi-norm: value, retained p-th-power sum, exactness."""

    p: Fraction | float
    value: Fraction | float
    power_sum: Optional[Fraction | float]  # 2^{-N} sum |f|^p where applicable
    exact: bool

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "float"
        return f"QuasiNormValue(p={self.p}, value={float(self.value):.6g}, {tag})"


def _check_p_positive(p: Fraction | float) -> None:
    if not p > 0:
        raise ValueError(f"exponent p must be > 0, got {p}")


def _lp_of_runs(p: Fraction | float, runs, den: int, size: int, exact: bool) -> QuasiNormValue:
    """L_p on `size` cells from the runs (|value| over `den`, cells holding it), in any order.

    A Fraction power sum on `exact` cells at integer p; else each run adds 2^b float(|value|)^p
    per set bit b of its count, exact terms, so the `fsum` rounds once, as per cell (Shewchuk)."""
    if exact and isinstance(p, Fraction) and p.denominator == 1:
        k = p.numerator
        power_sum = Fraction(sum(a ** k * count for a, count in runs), den ** k * size)
        return QuasiNormValue(p, power_sum if k == 1 else float(power_sum) ** (1.0 / k),
                              power_sum, True)
    pf = float(p)
    power_sum = math.fsum(math.ldexp((a / den) ** pf, b) for a, count in runs
                          for b in range(count.bit_length()) if count >> b & 1) / size
    return QuasiNormValue(p, power_sum ** (1.0 / pf), power_sum, False)


def lp_quasinorm(f: SampledFunction, p: PLike) -> QuasiNormValue:
    """(2^{-N} sum |f|^p)^{1/p}; exact power sum for integer p in exact mode."""
    p = normalize_p(p)
    _check_p_positive(p)
    if f.is_exact:
        return _lp_of_runs(p, *f._magnitudes(), len(f), True)
    power_sum = float(np.sum(np.abs(f.values) ** float(p))) / len(f)
    return QuasiNormValue(p, power_sum ** (1.0 / float(p)), power_sum, False)


def _weak_of_runs(p: Fraction | float, runs, den: int, size: int, exact: bool) -> QuasiNormValue:
    """weak-L_p on `size` cells from the runs (|value| over `den`, cells holding it), largest first.

    Within a run v * mu{|f| >= v}^{1/p} grows with the count, so only run ends are formed:
    `exact` ones in Python ints, else with |value| rounded once and Python's ** (numpy's
    vectorised power differs in the last bits from the per-cell definition)."""
    total, best = 0, 0 if exact else 0.0
    for a, count in runs:
        total += count
        if a:
            best = max(best, a * total ** p.denominator if exact
                       else a / den * (total / size) ** (1.0 / float(p)))
    return QuasiNormValue(p, Fraction(best, den * size ** p.denominator) if exact else best,
                          None, exact)


def weak_lp(f: SampledFunction, p: PLike) -> QuasiNormValue:
    """sup_lambda lambda * mu{|f| > lambda}^{1/p}, exact when 1/p is an integer."""
    p = normalize_p(p)
    _check_p_positive(p)
    size = 1 << f.resolution
    if f.is_exact:
        return _weak_of_runs(p, *f._magnitudes(), size,
                             isinstance(p, Fraction) and p.numerator == 1)
    mags = np.sort(np.abs(f._floats()))[::-1]
    # nonboundary positions only underestimate their candidate, never the max
    tail = np.arange(1, size + 1, dtype=np.float64) / size
    cands = mags * tail ** (1.0 / float(p))
    return QuasiNormValue(p, float(np.max(cands)) if size else 0.0, None, False)


def translate(f: SampledFunction, h: GroupPoint) -> SampledFunction:
    """f(. + h): result[j] = f(j XOR h)."""
    if f.resolution != h.resolution:
        raise ValueError(
            f"resolution mismatch: function {f.resolution} vs point {h.resolution}")
    if h.index == 0:
        return f
    return f._gathered(np.arange(len(f)) ^ h.index)


def _shift_power_sums(arr: np.ndarray, n: int, p: float) -> np.ndarray:
    """sum_j |arr[j XOR h] - arr[j]|^p for every h in I_n (low n bits zero), ascending.

    For h of top bit k, j and j XOR h give one term: twice the sum over the j with bit k clear.
    Their partners' translates by h' < 2^s in I_n double (flipping bit m reverses each pair of
    2^m-cell blocks) while under 4e6 cells; a higher h' permutes 2^s-cell blocks."""
    size, N = arr.size, arr.size.bit_length() - 1
    sums = [np.sum(np.abs(arr - arr) ** p, keepdims=True)]  # h = 0: 0, NaN if a cell is not finite
    for k in range(n, N):
        s = min(k, n + max(0, (4_000_000 // size).bit_length() - 1))  # translates in 4e6 cells
        blocks = arr.reshape(-1, 2, 1 << (k - s), 1 << s)  # 2^s-cell blocks; bit k picks the half
        base = np.empty((1 << (s - n), *blocks[:, 1].shape))
        base[0] = blocks[:, 1]
        for m in range(n, s):
            c, pairs = 1 << (m - n), (1 << (m - n), -1, 2, 1 << m)
            base[c:2 * c].reshape(pairs)[:] = base[:c].reshape(pairs)[:, :, ::-1]
        work = base if k == s else np.empty_like(base)
        for hh in range(1 << (k - s)):  # h = 2^k + hh 2^s + h'
            moved = np.take(base, np.arange(1 << (k - s)) ^ hh, 2, work, "clip") if hh else base
            np.abs(np.subtract(moved, blocks[:, 0], out=work), out=work)
            if p != 1:
                work **= p
            sums.append(2 * work.reshape(len(work), -1).sum(axis=1))
        del base, work, moved  # before the next k allocates twice as many cells
    return np.concatenate(sums)


def modulus_lp(f: SampledFunction, n: int, p: PLike) -> QuasiNormValue:
    """omega_p(1/2^n, f) = sup_{h in I_n} ||f(.+h) - f||_p.

    The sup runs over the 2^{N-n} coset representatives with coordinates
    >= N zero; cell-constant functions make this supremum exact.
    """
    if n > f.resolution or n < 0:
        raise ValueError(f"shift rank {n} out of range 0..{f.resolution}")
    p = normalize_p(p)
    _check_p_positive(p)
    N = f.resolution
    if not f.is_exact:
        best_power = float(np.max(_shift_power_sums(f.values, n, float(p)))) / len(f)
        return QuasiNormValue(p, best_power ** (1.0 / float(p)), best_power, False)
    shifts = range(0, len(f), 1 << n)  # h in I_n
    return max((lp_quasinorm(translate(f, GroupPoint(N, h)) - f, p) for h in shifts),
               key=lambda q: q.power_sum)  # the first shift of largest power sum


def _rounded(num: int, den: int) -> float:
    """num / den for Python ints, correctly rounded; inf past the float maximum."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def translate_norm_profile(f: SampledFunction, p: PLike) -> np.ndarray:
    """||f(.+h) - f||_p^p for every shift h, on the float cells of f.

    At even p, with finite cells, each value is the exact power sum of
    `_translate_power_sums` rounded once.  Other p, and cells that are
    not finite, take `_shift_power_sums`: each unordered pair of cells
    is summed once and the sum doubled, with no 4^N index.  Since I_n
    consists of the shifts whose low n bits vanish, a single profile
    serves every modulus omega_p(1/2^n, f) as a masked maximum.
    """
    p = normalize_p(p)
    _check_p_positive(p)
    cells = f._floats()
    even = isinstance(p, Fraction) and p.denominator == 1 and p.numerator % 2 == 0
    if not (even and np.all(np.isfinite(cells))):
        return _shift_power_sums(cells, 0, float(p)) / len(f)
    sums, unit = f._translate_power_sums(p.numerator)
    den = unit << f.resolution
    return np.array([_rounded(s, den) for s in sums.tolist()], dtype=np.float64)


@dataclass(frozen=True)
class ApproxBracket:
    """Two-sided bracket for the best approximation by low-spectrum polynomials.

    With t = ||f - S_{2^n} f||_p the distance E_{2^n}(f, L_p) lies in
    [t/2, t]; at p = 2 the orthogonal projection makes it exactly the
    tail coefficient energy.
    """

    lower: float
    upper: float
    tail_norm: QuasiNormValue
    l2_value: Optional[float] = None
    l2_tail_energy: Optional[Fraction | float] = None


def approx_bracket(f: SampledFunction, n: int, p: PLike) -> ApproxBracket:
    """Bracket E_{2^n}(f, L_p) from the partial-sum tail; p >= 1 only."""
    p = normalize_p(p)
    if p < 1:
        raise ValueError(f"approximation bracket requires p >= 1, got {p}")
    if n > f.resolution or n < 0:
        raise ValueError(f"spectral cut rank {n} out of range 0..{f.resolution}")
    spec = fwht(f)
    t = lp_quasinorm(f - _level(spec, n), p)
    l2_value = None
    l2_energy = None
    if p == 2:
        l2_energy = _zeroed(spec, slice(1 << n)).energy()
        l2_value = math.sqrt(float(l2_energy))
    return ApproxBracket(float(t) / 2.0, float(t), t, l2_value, l2_energy)


def plancherel_power_sums(f: SampledFunction) -> tuple[Fraction | float, Fraction | float]:
    """(||f||_2^2, sum_i hat{f}(i)^2) - equal by Parseval, exact in exact mode."""
    sq = lp_quasinorm(f, 2)
    energy = fwht(f).energy()
    return sq.power_sum, energy
