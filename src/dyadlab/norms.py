"""L_p quasi-norms, weak-L_p, translation, and moduli of continuity.

All norms are integrals against the normalized Haar measure, so on 2^N
cells ||f||_p^p = 2^{-N} sum_j |f(j)|^p.  For p >= 1 this is a norm; for
0 < p < 1 only the p-th-power subadditivity holds and results are
reported with the p-th-power sum retained, so acceptance checks can
compare powers instead of extracting noisy roots.

weak-L_p is sup_{lambda>0} lambda * mu{|f| > lambda}^{1/p}.  For a step
function the supremum is attained as lambda increases to a value of |f|,
so it equals the maximum of v * mu{|f| >= v}^{1/p} over the distinct
values v; with 1/p an integer this is an exact rational.  Exact mode
sorts the integer |numerators| and forms v * count^{1/p} in Python ints
only at the end of each run of equal values, over the common
denominator.  Float exponents on exact cells round each cell's quotient
once (as float(Fraction) does) before the float arithmetic.

The translation profile ||f(.+h) - f||_p^p over every shift h gives
every modulus of continuity omega_p(1/2^n, f) as a masked maximum.  At
even p it is exact: the float cells, scaled to integers over one power
of two, give integer power sums for all shifts at once by dyadic
correlation (`_translate_power_sums`), and each value is rounded once.
Other p, and cells that are not finite, take a float64 XOR gather over
all 4^N (shift, cell) pairs.  `modulus_lp` gathers only its 2^{N-n}
shifts (float mode) or loops over as many exact translates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .group import GroupPoint
from .walsh import SampledFunction, _energy, fwht, truncate_paley

PLike = Union[int, float, Fraction, str]


def normalize_p(p: PLike) -> Fraction | float:
    """Keep rational p rational (enables exact paths); floats stay floats."""
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, str):
        return Fraction(p)
    if isinstance(p, float):
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


def lp_quasinorm(f: SampledFunction, p: PLike) -> QuasiNormValue:
    """(2^{-N} sum |f|^p)^{1/p}; exact power sum for integer p in exact mode."""
    p = normalize_p(p)
    _check_p_positive(p)
    size = 1 << f.resolution
    if f.is_exact and isinstance(p, Fraction) and p.denominator == 1:
        power_sum = f._abs_power_sum(p.numerator) / size
        value = power_sum if p == 1 else float(power_sum) ** (1.0 / p.numerator)
        return QuasiNormValue(p, value, power_sum, True)
    pf = float(p)
    if f.is_exact:
        cells = f._floats().tolist()
        power_sum = math.fsum(abs(v) ** pf for v in cells) / size
    else:
        power_sum = float(np.sum(np.abs(f.values) ** pf)) / size
    return QuasiNormValue(p, power_sum ** (1.0 / pf), power_sum, False)


def weak_lp(f: SampledFunction, p: PLike) -> QuasiNormValue:
    """sup_lambda lambda * mu{|f| > lambda}^{1/p}, exact when 1/p is an integer."""
    p = normalize_p(p)
    _check_p_positive(p)
    size = 1 << f.resolution
    if f.is_exact and isinstance(p, Fraction) and p.numerator == 1:
        k = p.denominator  # 1/p
        return QuasiNormValue(p, f._weak_peak(k) / size ** k, None, True)
    mags = np.sort(np.abs(f._floats()))[::-1]
    if f.is_exact:  # Python's ** per cell: numpy's vectorised power differs in the last bits
        e = 1.0 / float(p)
        best = max((v * (count / size) ** e
                    for count, v in enumerate(mags.tolist(), start=1) if v), default=0.0)
        return QuasiNormValue(p, best, None, False)
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


def _shift_power_sums(arr: np.ndarray, shifts: np.ndarray, p: float) -> np.ndarray:
    """sum_j |arr[j XOR h] - arr[j]|^p for every h in `shifts`, one float64 gather.

    The gather runs in row chunks so its matrix stays near 4e6 cells.
    """
    size = arr.size
    idx = np.arange(size)
    out = np.empty(shifts.size)
    chunk = max(1, 4_000_000 // size)
    for start in range(0, shifts.size, chunk):
        hs = shifts[start:start + chunk]
        gathered = arr[hs[:, None] ^ idx[None, :]]
        out[start:start + chunk] = np.sum(np.abs(gathered - arr[None, :]) ** p, axis=1)
    return out


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
    size = 1 << N
    reps = 1 << (N - n)
    if not f.is_exact:
        shifts = np.arange(reps) << n
        best_power = float(np.max(_shift_power_sums(f.values, shifts, float(p)))) / size
        return QuasiNormValue(p, best_power ** (1.0 / float(p)), best_power, False)
    return max((lp_quasinorm(translate(f, GroupPoint(N, t << n)) - f, p) for t in range(reps)),
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
    not finite, take one float64 XOR gather over every (shift, cell)
    pair.  Since I_n consists of the shifts whose low n bits vanish, a
    single profile serves every modulus omega_p(1/2^n, f) as a masked
    maximum.
    """
    p = normalize_p(p)
    _check_p_positive(p)
    cells = f._floats()
    even = isinstance(p, Fraction) and p.denominator == 1 and p.numerator % 2 == 0
    if not (even and np.all(np.isfinite(cells))):
        return _shift_power_sums(cells, np.arange(len(f)), float(p)) / len(f)
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
    tail = f - truncate_paley(f, 1 << n)
    t = lp_quasinorm(tail, p)
    l2_value = None
    l2_energy = None
    if p == 2:
        l2_energy = _energy(fwht(f), slice(1 << n, None))
        l2_value = math.sqrt(float(l2_energy))
    return ApproxBracket(float(t) / 2.0, float(t), t, l2_value, l2_energy)


def plancherel_power_sums(f: SampledFunction) -> tuple[Fraction | float, Fraction | float]:
    """(||f||_2^2, sum_i hat{f}(i)^2) - equal by Parseval, exact in exact mode."""
    sq = lp_quasinorm(f, 2)
    energy = fwht(f).energy()
    return sq.power_sum, energy
