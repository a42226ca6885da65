"""Walsh-Paley and Walsh-Kaczmarz systems, fast transforms, and kernels.

The Paley system indexes characters by binary digits of n:
w_n(x) = prod_k r_k(x)^{n_k} = (-1)^{popcount(n AND j)} on sample index j.
The Kaczmarz system enumerates the same per-block functions with the
digit order reversed: kappa_0 = 1 and, for n >= 1 with A = msb(n),

    kappa_n(x) = r_A(x) * prod_{k<A} r_{A-1-k}(x)^{n_k}.

Each kappa_n equals w_{sigma(n)} where sigma(n) = 2^A + reverse_A(n - 2^A)
reverses the low A digits; sigma maps every block [2^A, 2^{A+1}) onto
itself and is an involution there.  `kaczmarz` and `kaczmarz_samples`
deliberately evaluate the definitional product so they can serve as an
independent oracle for the bit-reversal form.

Sampled functions live on the 2^N rank-N cells.  Both modes store the
cells (and spectra) as one read-only 1-D ndarray, so every operator runs
the same numpy expression in both: float mode holds float64 and its
reductions use numpy's pairwise (index-ascending tree) summation, so
results are reproducible; exact mode holds dtype=object cells that are
Python ints and Fractions, and numpy applies Python's exact arithmetic
cell by cell.  Operators branch on the mode only where the arithmetic
itself differs, such as an exact division by 2^N or by n.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .group import (DyadicInterval, GroupPoint, bit_reverse, msb, rademacher,
                    tau_permutation)

Scalar = Union[int, Fraction, float]


class System(enum.Enum):
    """Which enumeration of the character system an operator acts in."""

    PALEY = "paley"
    KACZMARZ = "kaczmarz"

    @classmethod
    def coerce(cls, value: "System | str") -> "System":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown system {value!r}; use 'paley' or 'kaczmarz'")


# ---------------------------------------------------------------------------
# pointwise evaluation

def walsh_paley(n: int, x: GroupPoint) -> int:
    """w_n(x) = (-1)^{sum_k n_k x_k}; requires n < 2^resolution."""
    if n < 0:
        raise ValueError("character index must be >= 0")
    if n >> x.resolution:
        raise ValueError(
            f"spectrum overflow: w_{n} needs resolution > {msb(n)}, got {x.resolution}"
        )
    return -1 if (n & x.index).bit_count() & 1 else 1


def kaczmarz(n: int, x: GroupPoint) -> int:
    """kappa_n(x) by the definitional Rademacher product (kappa_0 = 1)."""
    if n < 0:
        raise ValueError("character index must be >= 0")
    if n == 0:
        return 1
    if n >> x.resolution:
        raise ValueError(
            f"spectrum overflow: kappa_{n} needs resolution > {msb(n)}, got {x.resolution}"
        )
    A = msb(n)
    sign = rademacher(A, x)
    for k in range(A):
        if n >> k & 1:
            sign *= rademacher(A - 1 - k, x)
    return sign


def kaczmarz_paley_index(n: int) -> int:
    """sigma(n) with kappa_n = w_{sigma(n)}: reverse the digits below msb."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return 0
    A = msb(n)
    return (1 << A) | bit_reverse(n - (1 << A), A)


@lru_cache(maxsize=None)
def sigma_permutation(N: int) -> np.ndarray:
    """sigma(n) for all n < 2^N, as an int64 index array (involution on each block).

    Block [2^A, 2^{A+1}) maps n to 2^A + reverse_A(n - 2^A).  The cache
    hands the same array to every caller, so it is read-only.
    """
    out = np.zeros(1 << N, dtype=np.int64)
    for A in range(N):
        out[1 << A:2 << A] = (1 << A) | tau_permutation(A, A)
    out.flags.writeable = False
    return out


def walsh_paley_samples(n: int, N: int) -> list[int]:
    """The full sample vector of w_n on the 2^N cells, by coordinate doubling."""
    if n >> N:
        raise ValueError(f"spectrum overflow: w_{n} at resolution {N}")
    row = [1]
    for k in range(N):
        if n >> k & 1:
            row += [-v for v in row]
        else:
            row += row
    return row


def kaczmarz_samples(n: int, N: int) -> list[int]:
    """Sample vector of kappa_n via the definitional product (test oracle)."""
    if n >> N:
        raise ValueError(f"spectrum overflow: kappa_{n} at resolution {N}")
    size = 1 << N
    if n == 0:
        return [1] * size
    A = msb(n)
    out = []
    for j in range(size):
        e = j >> A & 1
        for k in range(A):
            if n >> k & 1:
                e ^= j >> (A - 1 - k) & 1
        out.append(-1 if e else 1)
    return out


def character_samples(system: System | str, n: int, N: int) -> list[int]:
    """Sample vector of the n-th system function (sigma fast path for kappa)."""
    system = System.coerce(system)
    if system is System.PALEY:
        return walsh_paley_samples(n, N)
    return walsh_paley_samples(kaczmarz_paley_index(n), N)


# ---------------------------------------------------------------------------
# sampled functions

def _locked(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _cells(values: Sequence[Scalar] | np.ndarray, size: int, exact: bool | None,
           what: str) -> np.ndarray:
    """Validate outside input as `size` read-only cells (float64, or exact objects).

    A numeric ndarray is float data.  A sequence or an object ndarray is
    exact unless `exact` is False, and then every cell must be an int or
    a Fraction.
    """
    if isinstance(values, np.ndarray):
        if values.shape != (size,):
            raise ValueError(f"expected {size} {what}, got shape {values.shape}")
        if values.dtype != object:
            if exact:
                raise ValueError("numpy storage is float mode; pass a sequence for exact")
            return _locked(values.astype(np.float64))
    vals = list(values)
    if len(vals) != size:
        raise ValueError(f"expected {size} {what}, got {len(vals)}")
    if exact is False:
        return _locked(np.array([float(v) for v in vals], dtype=np.float64))
    if not all(isinstance(v, (int, Fraction)) for v in vals):
        raise ValueError("exact mode holds ints/Fractions; pass an ndarray or "
                         "exact=False for float data")
    return _locked(np.array(vals, dtype=object))


def _quotient(arr: np.ndarray, d: int) -> np.ndarray:
    """arr / d cellwise: float64 divides; integer or exact cells become Fractions."""
    if arr.dtype == np.float64:
        return arr / d
    return np.array([Fraction(v, d) for v in arr.tolist()], dtype=object)


def _scalar(x) -> Scalar:
    """A reduction's result as a Python number (exact results already are)."""
    return x.item() if isinstance(x, np.generic) else x


class SampledFunction:
    """Function constant on rank-N dyadic cells, stored as 2^N cell values.

    The cells are a read-only ndarray: float64 in float mode, Python
    ints/Fractions under dtype=object in exact mode.  Cross-mode and
    cross-resolution arithmetic is an error rather than an implicit
    promotion.
    """

    __slots__ = ("resolution", "_values")

    def __init__(self, resolution: int, values: Sequence[Scalar] | np.ndarray, *,
                 exact: bool | None = None):
        self._values = _cells(values, 1 << resolution, exact, "values")
        self.resolution = resolution

    @classmethod
    def _of(cls, resolution: int, cells: np.ndarray) -> "SampledFunction":
        """Wrap the cells an operator computed; they need no per-cell re-check."""
        self = cls.__new__(cls)
        self._values = _locked(cells)
        self.resolution = resolution
        return self

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c: Scalar, resolution: int, *, exact: bool = True) -> "SampledFunction":
        return cls(resolution, [c] * (1 << resolution), exact=exact)

    @classmethod
    def indicator(cls, interval: DyadicInterval, resolution: int,
                  scale: Scalar = 1) -> "SampledFunction":
        vals = [0] * (1 << resolution)
        for j in interval.indices(resolution):
            vals[j] = scale
        return cls(resolution, vals)

    # -- basics ----------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self._values.dtype == object

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    @property
    def values(self) -> np.ndarray:
        """Cell values: a read-only float64 or object (int/Fraction) ndarray."""
        return self._values

    def __len__(self) -> int:
        return 1 << self.resolution

    def __getitem__(self, j: int) -> Scalar:
        return self._values[j]

    def value_at(self, x: GroupPoint) -> Scalar:
        if x.resolution != self.resolution:
            raise ValueError("point resolution does not match function resolution")
        return self._values[x.index]

    def integral(self) -> Scalar:
        """Mean value: integral over the group of a cell-constant function."""
        total = np.sum(self._values)
        if self.is_exact:
            return Fraction(total) / (1 << self.resolution)
        return float(total) / (1 << self.resolution)

    def to_float(self) -> "SampledFunction":
        return SampledFunction._of(self.resolution,
                                   self._values.astype(np.float64, copy=False))

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "SampledFunction") -> None:
        if self.resolution != other.resolution:
            raise ValueError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}")
        if self.is_exact != other.is_exact:
            raise ValueError("mode mismatch: convert with to_float() first")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        return SampledFunction._of(self.resolution, self._values + other._values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        return SampledFunction._of(self.resolution, self._values - other._values)

    def __neg__(self) -> "SampledFunction":
        return SampledFunction._of(self.resolution, -self._values)

    def scale(self, c: Scalar) -> "SampledFunction":
        if not self.is_exact:
            c = float(c)
        elif not isinstance(c, (int, Fraction)):
            raise ValueError(
                "float scalar on exact storage; convert with to_float() first")
        return SampledFunction._of(self.resolution, c * self._values)

    def __mul__(self, other: "SampledFunction") -> "SampledFunction":
        """Pointwise product."""
        self._check_compatible(other)
        return SampledFunction._of(self.resolution, self._values * other._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampledFunction):
            return NotImplemented
        if self.resolution != other.resolution or self.is_exact != other.is_exact:
            return False
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self):
        return hash((self.resolution, self.is_exact))

    def __repr__(self) -> str:
        return (f"SampledFunction(N={self.resolution}, mode={self.mode}, "
                f"values[:4]={list(self._values[:4])}...)")


class CoefficientSequence:
    """Spectrum of a sampled function in one of the two orderings.

    Stored like `SampledFunction` cells: a read-only float64 or object
    (int/Fraction) ndarray.
    """

    __slots__ = ("resolution", "ordering", "_coeffs")

    def __init__(self, resolution: int, ordering: System | str,
                 coeffs: Sequence[Scalar] | np.ndarray):
        self._coeffs = _cells(coeffs, 1 << resolution, None, "coefficients")
        self.resolution = resolution
        self.ordering = System.coerce(ordering)

    @classmethod
    def _of(cls, resolution: int, ordering: System,
            coeffs: np.ndarray) -> "CoefficientSequence":
        """Wrap the coefficients an operator computed; no per-cell re-check."""
        self = cls.__new__(cls)
        self._coeffs = _locked(coeffs)
        self.resolution = resolution
        self.ordering = ordering
        return self

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def is_exact(self) -> bool:
        return self._coeffs.dtype == object

    def __len__(self) -> int:
        return 1 << self.resolution

    def __getitem__(self, i: int) -> Scalar:
        return self._coeffs[i]

    def to_ordering(self, system: System | str) -> "CoefficientSequence":
        """Reindex between orderings: hat{f}^kappa(i) = hat{f}^w(sigma(i))."""
        system = System.coerce(system)
        if system is self.ordering:
            return self
        return CoefficientSequence._of(
            self.resolution, system, self._coeffs[sigma_permutation(self.resolution)])

    def energy(self) -> Scalar:
        """Sum of squared coefficients (ordering-independent)."""
        return _scalar(np.sum(np.square(self._coeffs)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        if (self.resolution, self.ordering, self.is_exact) != \
           (other.resolution, other.ordering, other.is_exact):
            return False
        return bool(np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self):
        return hash((self.resolution, self.ordering, self.is_exact))


def _zeroed(c: CoefficientSequence, cells) -> CoefficientSequence:
    """c with the cells a slice or mask selects set to 0, in c's ordering."""
    kept = c.coeffs.copy()
    kept[cells] = 0
    return CoefficientSequence._of(c.resolution, c.ordering, kept)


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform

def _butterfly_array(arr: np.ndarray) -> np.ndarray:
    """FWHT butterflies on a copy of the same dtype, vectorized stage by stage.

    Serves float64, int64 and object (exact int/Fraction) cells alike.
    """
    out = arr.copy()
    n = out.shape[0]
    h = 1
    while h < n:
        view = out.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        np.add(left, view[:, h:], out=view[:, :h])
        np.subtract(left, view[:, h:], out=view[:, h:])
        h <<= 1
    return out


def fwht(f: SampledFunction, ordering: System | str = System.PALEY) -> CoefficientSequence:
    """Spectrum of f: coeffs[i] = 2^{-N} sum_j f(j) (-1)^{popcount(i AND j)}."""
    raw = _butterfly_array(f.values)
    paley = CoefficientSequence._of(f.resolution, System.PALEY, _quotient(raw, len(f)))
    return paley.to_ordering(ordering)


def inverse_fwht(coeffs: CoefficientSequence) -> SampledFunction:
    """Reconstruct f = sum_i coeffs[i] * (system function i)."""
    paley = coeffs.to_ordering(System.PALEY)
    return SampledFunction._of(coeffs.resolution, _butterfly_array(paley.coeffs))


def truncate_paley(f: SampledFunction, count: int) -> SampledFunction:
    """Zero all Paley coefficients with index >= count and resample."""
    if count < 0 or count > len(f):
        raise ValueError(f"truncation count {count} out of range 0..{len(f)}")
    return inverse_fwht(_zeroed(fwht(f), slice(count, None)))


# ---------------------------------------------------------------------------
# kernels

def _numerators_fit_int64(n: int) -> bool:
    """Whether the butterfly of the numerators n - i (i < n) stays in int64.

    Every partial butterfly value is a signed sum of the numerators, so
    it is bounded by their sum n(n+1)/2, which the x = 0 sample reaches.
    """
    return n * (n + 1) // 2 <= (1 << 63) - 1


def _placed(system: System, head: np.ndarray, N: int) -> np.ndarray:
    """int64 Paley spectrum holding head[i] at system index i, 0 elsewhere."""
    out = np.zeros(1 << N, dtype=np.int64)
    if system is System.PALEY:
        out[:head.size] = head
    else:
        out[sigma_permutation(N)[:head.size]] = head
    return out


def fejer_numerators(system: System | str, n: int, N: int) -> np.ndarray:
    """n * K_n = sum_{k=1..n} D_k as exact int64 samples (zero for n = 0).

    The sum has system-ordering coefficients n - i for i < n, so one
    int64 butterfly of that vector gives every sample in O(N 2^N).
    """
    system = System.coerce(system)
    if n < 0 or n > 1 << N:
        raise ValueError(f"kernel order {n} overflows spectrum at resolution {N}")
    if not _numerators_fit_int64(n):
        raise ValueError(f"kernel order {n} would overflow int64 sums; reduce n")
    return _butterfly_array(_placed(system, n - np.arange(n, dtype=np.int64), N))


def dirichlet(system: System | str, n: int, N: int) -> SampledFunction:
    """D_n = sum_{k<n} (system function k), exact integer samples; D_0 = 0."""
    system = System.coerce(system)
    if n < 0 or n > 1 << N:
        raise ValueError(f"Dirichlet order {n} overflows spectrum at resolution {N}")
    ones = np.ones(n, dtype=np.int64)
    return SampledFunction._of(N, _butterfly_array(_placed(system, ones, N)).astype(object))


def fejer(system: System | str, n: int, N: int) -> SampledFunction:
    """K_n = (1/n) sum_{k=1..n} D_k; rational samples with denominator | n."""
    if n < 1:
        raise ValueError("Fejer kernel order must be >= 1")
    return SampledFunction._of(N, _quotient(fejer_numerators(system, n, N), n))


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Dyadic convolution (f * g)(x) = 2^{-N} sum_t f(x + t) g(t).

    Diagonalized by the characters: the Paley spectrum multiplies
    pointwise, which is how Fejer means act as kernel convolutions.  One
    forward transform per factor and one inverse cost O(N 2^N).
    """
    f._check_compatible(g)
    product = fwht(f).coeffs * fwht(g).coeffs
    return inverse_fwht(CoefficientSequence._of(f.resolution, System.PALEY, product))


def convolve_by_sum(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Definitional dyadic convolution by the direct O(4^N) sum (test oracle)."""
    f._check_compatible(g)
    idx = np.arange(len(f))
    gathered = f.values[idx[:, None] ^ idx[None, :]]
    return SampledFunction._of(f.resolution, _quotient(gathered @ g.values, len(f)))


def compose_with_tau(f: SampledFunction, A: int) -> SampledFunction:
    """(f o tau_A)(x) = f(tau_A x): gather samples through the bit reversal."""
    if A > f.resolution:
        raise ValueError(f"reversal width {A} exceeds resolution {f.resolution}")
    return SampledFunction._of(f.resolution, f.values[tau_permutation(A, f.resolution)])


def fejer_by_average(system: System | str, n: int, N: int) -> SampledFunction:
    """Definitional Fejer kernel (1/n) sum of Dirichlet kernels (test oracle)."""
    if n < 1:
        raise ValueError("Fejer kernel order must be >= 1")
    size = 1 << N
    acc = [0] * size
    for k in range(1, n + 1):
        dk = dirichlet(system, k, N)
        acc = [a + v for a, v in zip(acc, dk.values)]
    return SampledFunction(N, [Fraction(v, n) for v in acc])
