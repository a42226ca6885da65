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

Sampled functions live on the 2^N rank-N cells.  Exact mode stores
Fractions/ints; float mode stores a read-only float64 array and all
reductions use numpy's pairwise (index-ascending tree) summation so
results are reproducible.
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
def sigma_permutation(N: int) -> tuple[int, ...]:
    """sigma(n) for all n < 2^N, as a tuple (involution on each block)."""
    return tuple(kaczmarz_paley_index(n) for n in range(1 << N))


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

class SampledFunction:
    """Function constant on rank-N dyadic cells, stored as 2^N cell values.

    Exact mode keeps ints/Fractions; float mode keeps a locked float64
    array.  Cross-mode and cross-resolution arithmetic is an error rather
    than an implicit promotion.
    """

    __slots__ = ("resolution", "_values", "_exact")

    def __init__(self, resolution: int, values: Sequence[Scalar] | np.ndarray, *,
                 exact: bool | None = None):
        size = 1 << resolution
        if isinstance(values, np.ndarray):
            if exact is True:
                raise ValueError("numpy storage is float mode; pass a sequence for exact")
            if values.shape != (size,):
                raise ValueError(f"expected {size} values, got shape {values.shape}")
            arr = np.asarray(values, dtype=np.float64)
            arr = arr.copy() if arr is values else arr
            arr.flags.writeable = False
            self._values: object = arr
            self._exact = False
        else:
            vals = tuple(values)
            if len(vals) != size:
                raise ValueError(f"expected {size} values, got {len(vals)}")
            if exact is False:
                arr = np.array([float(v) for v in vals], dtype=np.float64)
                arr.flags.writeable = False
                self._values = arr
                self._exact = False
            else:
                if not all(isinstance(v, (int, Fraction)) for v in vals):
                    raise ValueError(
                        "exact mode holds ints/Fractions; pass an ndarray or "
                        "exact=False for float data")
                self._values = vals
                self._exact = True
        self.resolution = resolution

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c: Scalar, resolution: int, *, exact: bool = True) -> "SampledFunction":
        if exact:
            return cls(resolution, [c] * (1 << resolution))
        return cls(resolution, np.full(1 << resolution, float(c)))

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
        return self._exact

    @property
    def mode(self) -> str:
        return "exact" if self._exact else "float"

    @property
    def values(self):
        """Cell values (tuple in exact mode, locked ndarray in float mode)."""
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
        if self._exact:
            return Fraction(sum(self._values)) / (1 << self.resolution)
        return float(np.sum(self._values)) / (1 << self.resolution)

    def to_float(self) -> "SampledFunction":
        if not self._exact:
            return self
        return SampledFunction(self.resolution,
                               np.array([float(v) for v in self._values]))

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "SampledFunction") -> None:
        if self.resolution != other.resolution:
            raise ValueError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}")
        if self._exact != other._exact:
            raise ValueError("mode mismatch: convert with to_float() first")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        if self._exact:
            return SampledFunction(
                self.resolution,
                [a + b for a, b in zip(self._values, other._values)])
        return SampledFunction(self.resolution, self._values + other._values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        if self._exact:
            return SampledFunction(
                self.resolution,
                [a - b for a, b in zip(self._values, other._values)])
        return SampledFunction(self.resolution, self._values - other._values)

    def __neg__(self) -> "SampledFunction":
        if self._exact:
            return SampledFunction(self.resolution, [-a for a in self._values])
        return SampledFunction(self.resolution, -self._values)

    def scale(self, c: Scalar) -> "SampledFunction":
        if self._exact:
            if not isinstance(c, (int, Fraction)):
                raise ValueError(
                    "float scalar on exact storage; convert with to_float() first")
            return SampledFunction(self.resolution, [c * a for a in self._values])
        return SampledFunction(self.resolution, float(c) * self._values)

    def __mul__(self, other: "SampledFunction") -> "SampledFunction":
        """Pointwise product."""
        self._check_compatible(other)
        if self._exact:
            return SampledFunction(
                self.resolution,
                [a * b for a, b in zip(self._values, other._values)])
        return SampledFunction(self.resolution, self._values * other._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampledFunction):
            return NotImplemented
        if self.resolution != other.resolution or self._exact != other._exact:
            return False
        if self._exact:
            return self._values == other._values
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self):
        return hash((self.resolution, self._exact))

    def __repr__(self) -> str:
        return (f"SampledFunction(N={self.resolution}, mode={self.mode}, "
                f"values[:4]={list(self._values[:4])}...)")


class CoefficientSequence:
    """Spectrum of a sampled function in one of the two orderings."""

    __slots__ = ("resolution", "ordering", "_coeffs", "_exact")

    def __init__(self, resolution: int, ordering: System | str,
                 coeffs: Sequence[Scalar] | np.ndarray):
        size = 1 << resolution
        self.resolution = resolution
        self.ordering = System.coerce(ordering)
        if isinstance(coeffs, np.ndarray):
            if coeffs.shape != (size,):
                raise ValueError(f"expected {size} coefficients, got {coeffs.shape}")
            arr = np.asarray(coeffs, dtype=np.float64).copy()
            arr.flags.writeable = False
            self._coeffs: object = arr
            self._exact = False
        else:
            vals = tuple(coeffs)
            if len(vals) != size:
                raise ValueError(f"expected {size} coefficients, got {len(vals)}")
            self._coeffs = vals
            self._exact = True

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def is_exact(self) -> bool:
        return self._exact

    def __len__(self) -> int:
        return 1 << self.resolution

    def __getitem__(self, i: int) -> Scalar:
        return self._coeffs[i]

    def to_ordering(self, system: System | str) -> "CoefficientSequence":
        """Reindex between orderings: hat{f}^kappa(i) = hat{f}^w(sigma(i))."""
        system = System.coerce(system)
        if system is self.ordering:
            return self
        sigma = sigma_permutation(self.resolution)
        if self._exact:
            permuted: Sequence | np.ndarray = [self._coeffs[s] for s in sigma]
        else:
            permuted = np.asarray(self._coeffs)[np.array(sigma)]
        return CoefficientSequence(self.resolution, system, permuted)

    def energy(self) -> Scalar:
        """Sum of squared coefficients (ordering-independent)."""
        if self._exact:
            return sum(c * c for c in self._coeffs)
        return float(np.sum(np.square(self._coeffs)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        if (self.resolution, self.ordering, self._exact) != \
           (other.resolution, other.ordering, other._exact):
            return False
        if self._exact:
            return self._coeffs == other._coeffs
        return bool(np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self):
        return hash((self.resolution, self.ordering, self._exact))


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform

def _butterfly_list(vals: list) -> list:
    """In-place FWHT butterflies on a Python list; returns the list."""
    n = len(vals)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for j in range(start, start + h):
                x = vals[j]
                y = vals[j + h]
                vals[j] = x + y
                vals[j + h] = x - y
        h <<= 1
    return vals


def _butterfly_array(arr: np.ndarray) -> np.ndarray:
    """FWHT butterflies on a copy of the same dtype, vectorized stage by stage."""
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
    ordering = System.coerce(ordering)
    size = 1 << f.resolution
    if f.is_exact:
        raw = _butterfly_list(list(f.values))
        paley = CoefficientSequence(
            f.resolution, System.PALEY, [Fraction(v, size) for v in raw])
    else:
        paley = CoefficientSequence(
            f.resolution, System.PALEY, _butterfly_array(f.values) / size)
    return paley.to_ordering(ordering)


def inverse_fwht(coeffs: CoefficientSequence) -> SampledFunction:
    """Reconstruct f = sum_i coeffs[i] * (system function i)."""
    paley = coeffs.to_ordering(System.PALEY)
    if paley.is_exact:
        return SampledFunction(coeffs.resolution, _butterfly_list(list(paley.coeffs)))
    return SampledFunction(coeffs.resolution, _butterfly_array(paley.coeffs))


def truncate_paley(f: SampledFunction, count: int) -> SampledFunction:
    """Zero all Paley coefficients with index >= count and resample."""
    if count < 0 or count > len(f):
        raise ValueError(f"truncation count {count} out of range 0..{len(f)}")
    paley = fwht(f)
    if f.is_exact:
        kept = list(paley.coeffs[:count]) + [0] * (len(f) - count)
        return inverse_fwht(CoefficientSequence(f.resolution, System.PALEY, kept))
    kept_arr = np.asarray(paley.coeffs).copy()
    kept_arr[count:] = 0.0
    return inverse_fwht(CoefficientSequence(f.resolution, System.PALEY, kept_arr))


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
        out[np.array(sigma_permutation(N)[:head.size], dtype=np.int64)] = head
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
    return SampledFunction(N, _butterfly_array(_placed(system, ones, N)).tolist())


def fejer(system: System | str, n: int, N: int) -> SampledFunction:
    """K_n = (1/n) sum_{k=1..n} D_k; rational samples with denominator | n."""
    if n < 1:
        raise ValueError("Fejer kernel order must be >= 1")
    raw = fejer_numerators(system, n, N).tolist()
    return SampledFunction(N, [Fraction(v, n) for v in raw])


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Dyadic convolution (f * g)(x) = 2^{-N} sum_t f(x + t) g(t).

    Diagonalized by the characters: the Paley spectrum multiplies
    pointwise, which is how Fejer means act as kernel convolutions.
    """
    if f.resolution != g.resolution:
        raise ValueError(f"resolution mismatch: {f.resolution} vs {g.resolution}")
    if f.is_exact != g.is_exact:
        raise ValueError("mode mismatch: convert with to_float() first")
    size = 1 << f.resolution
    if f.is_exact:
        fv, gv = f.values, g.values
        out = []
        for x in range(size):
            out.append(Fraction(sum(fv[x ^ t] * gv[t] for t in range(size)), size))
        return SampledFunction(f.resolution, out)
    fa, ga = np.asarray(f.values), np.asarray(g.values)
    idx = np.arange(size)
    gathered = fa[idx[:, None] ^ idx[None, :]]
    return SampledFunction(f.resolution, gathered @ ga / size)


def compose_with_tau(f: SampledFunction, A: int) -> SampledFunction:
    """(f o tau_A)(x) = f(tau_A x): gather samples through the bit reversal."""
    if A > f.resolution:
        raise ValueError(f"reversal width {A} exceeds resolution {f.resolution}")
    perm = tau_permutation(A, f.resolution)
    if f.is_exact:
        vals = f.values
        return SampledFunction(f.resolution, [vals[j] for j in perm.tolist()])
    return SampledFunction(f.resolution, np.asarray(f.values)[perm])


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
