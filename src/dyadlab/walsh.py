"""Walsh-Paley and Walsh-Kaczmarz systems, fast transforms, and kernels.

The Paley system indexes characters by binary digits of n:
w_n(x) = prod_k r_k(x)^{n_k} = (-1)^{popcount(n AND j)} on sample index j.
The Kaczmarz system enumerates the same per-block functions with the
digit order reversed: kappa_0 = 1 and, for n >= 1 with A = msb(n),

    kappa_n(x) = r_A(x) * prod_{k<A} r_{A-1-k}(x)^{n_k}.

Each kappa_n equals w_{sigma(n)} where sigma(n) = 2^A + reverse_A(n - 2^A)
reverses the low A digits; sigma maps every block [2^A, 2^{A+1}) onto
itself and is an involution there.  `kaczmarz` and `kaczmarz_rows` (one
row of which is `kaczmarz_samples`) deliberately evaluate the definitional
product so they can serve as an independent oracle for the bit-reversal form.

Sampled functions live on the 2^N rank-N cells.  Float mode stores
the cells (and spectra) as one read-only float64 array and reduces with
numpy's pairwise (index-ascending tree) summation, so results are
reproducible.  Exact mode stores integer numerators over one positive
denominator in lowest terms.  The numerators are int64; an operation
whose bound, taken from its operands before it runs (max |numerator|
for sums and products, sum |numerator| for a butterfly), passes
2^63 - 1 works on Python ints under dtype=object instead, so nothing
wraps around and every operator runs the same numpy expression on both.
`values` and `coeffs` read exact cells out as Python ints and Fractions,
typed as Python's own arithmetic would type them: a division gives a
Fraction even where integral, integer-only routes give ints.  Input
cells read out by the same rule, so a bool input reads as an int.  Only
this module knows the format; the others use operations on whole objects:
`_gathered`, `_weighted`, `_zeroed`, `_floats`, `_nonzero`, `_sup`,
`_integral`, `_block_means`, `_magnitudes`, `_sup_abs`, `_level`,
`_signed_sup_abs`, `_signed_square_sum`, `_matches`, `_fejer_spectrum`,
`_fejer_rows`, `_fejer_mean`, `_equal_rows` and `_translate_power_sums`.
The last gives sum_j (f(j XOR h) - f(j))^p of the float cells for every
shift h at even p, exactly, as integers over one power of two: a signed
sum of dyadic correlations, each a cellwise product under the butterfly.
S_n, sigma_n, D_n and n K_n vanish from Paley cell 2^r on, r =
(n-1).bit_length(), so one synthesis step butterflies that head and tiles
it.  The butterfly runs along the last axis, so one set of stages folds a
stack of +-1-signed spectra (kept as rows, for `_matches`), or of the
Fejer means of one head size (one array, a row per order, which
`_equal_rows` compares; `_fejer_mean` tiles and wraps its one-row case).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

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


def walsh_paley_rows(orders: np.ndarray, N: int) -> np.ndarray:
    """w_n on the 2^N cells as int8 +-1, a row per n in the int array `orders`: coordinate
    doubling, where coordinate k appends the rows so far, negated where n has digit k."""
    if np.any(orders >> N):
        raise ValueError(f"spectrum overflow: w_{orders.max()} at resolution {N}")
    flips = (1 - 2 * (orders[:, None] >> np.arange(N) & 1)).astype(np.int8)
    rows = np.ones((len(orders), 1 << N), dtype=np.int8)
    for k in range(N):
        np.multiply(rows[:, :1 << k], flips[:, k:k + 1], out=rows[:, 1 << k:2 << k])
    return rows


def walsh_paley_samples(n: int, N: int) -> list[int]:
    """The full sample vector of w_n on the 2^N cells: one row of `walsh_paley_rows`."""
    return walsh_paley_rows(np.array([n]), N)[0].tolist()


def kaczmarz_rows(orders: np.ndarray, N: int) -> np.ndarray:
    """kappa_n on the 2^N cells as int8 +-1, a row per n in the int array `orders`, by the
    definitional product r_A prod_{k<A} r_{A-1-k}^{n_k}, never through sigma: for the orders
    of each top bit A, the power of -1 is x_A + sum_k n_k x_{A-1-k}, one matrix product."""
    if np.any(orders >> N):
        raise ValueError(f"spectrum overflow: kappa_{orders.max()} at resolution {N}")
    coords = np.indices((2,) * N, dtype=np.int8).reshape(N, 1 << N)[::-1]  # row i: x_i
    power = np.zeros((len(orders), 1 << N), dtype=np.int8)  # kappa_0 = 1
    for A in range(N):
        rows = np.flatnonzero(orders >> A == 1)
        digits = (orders[rows, None] >> np.arange(A) & 1).astype(np.int8)  # n_k, k < A
        power[rows] = coords[A] + digits @ coords[:A][::-1]
    return 1 - 2 * (power & 1)


def kaczmarz_samples(n: int, N: int) -> list[int]:
    """Sample vector of kappa_n by the definitional product (test oracle): a `kaczmarz_rows` row."""
    return kaczmarz_rows(np.array([n]), N)[0].tolist()


# ---------------------------------------------------------------------------
# sampled functions

_INT64_MAX = (1 << 63) - 1
_MAX_DEPTH = 24  # the most cells a kernel or family array may hold: 2^24


def _check_depth(N: int) -> None:
    """Refuse a resolution N past _MAX_DEPTH before anything of 2^N cells is allocated."""
    if N > _MAX_DEPTH:
        raise ValueError(f"depth {N} would materialize 2^{N} cells; the limit is {_MAX_DEPTH}")


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _int_dtype(bound: int) -> np.dtype:
    """int64 when `bound` fits in it, else object (Python ints)."""
    return np.dtype(np.int64) if bound <= _INT64_MAX else np.dtype(object)


def _peak(num: np.ndarray) -> int:
    """max |numerator| as a Python int (0 when there are no cells)."""
    return int(np.abs(num).max()) if num.size else 0


def _fit(num: np.ndarray, bound: int) -> np.ndarray:
    """int64 numerators widened to Python ints when `bound` is past int64; never narrowed.

    `bound` limits the size of every value the next operation forms, so
    int64 arithmetic under it cannot wrap around.
    """
    return num.astype(object) if num.dtype == np.int64 and bound > _INT64_MAX else num


def _widened(bound, *nums: np.ndarray) -> tuple[np.ndarray, ...]:
    """Integer numerators `nums` in the dtype that holds `bound(*nums)`.

    Float cells cannot wrap around, so they pass unchanged and their
    bound is never computed.
    """
    if nums[0].dtype == np.float64:
        return nums
    limit = bound(*nums)
    return tuple(_fit(num, limit) for num in nums)


def _total(num: np.ndarray) -> int:
    """Sum of integer numerators as a Python int, without int64 wraparound."""
    return int(np.sum(_fit(num, _peak(num) * num.size)))


def _times(num: np.ndarray, k: int) -> np.ndarray:
    """num * k for a Python int k, widened first if a product could leave int64.

    All-zero numerators stay as they are, whatever k is.
    """
    if k == 1 or not num.any():
        return num
    (num,) = _widened(lambda n: _peak(n) * abs(k), num)
    return num * k


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cellwise a * b, widened first if a product could leave int64."""
    a, b = _widened(lambda x, y: _peak(x) * _peak(y), a, b)
    return a * b


def _reduced(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """num/den in lowest terms: gcd(den, every numerator) = 1, den = 1 for all zeros."""
    if den == 1:
        return num, 1
    g = math.gcd(den, int(np.gcd.reduce(num)))
    if g == 1:
        return num, den
    # g divides every int64 numerator, so it leaves int64 only when they are all 0
    skip = num.dtype != object and g > _INT64_MAX
    return (num if skip else num // g), den // g


def _quotient(num: np.ndarray, den: int, d: int) -> tuple[np.ndarray, int]:
    """(num/den)/d: float cells divide, exact cells take d into the denominator."""
    if num.dtype == np.float64:
        return num / d, 1
    return num, den * d


def _tag(frac) -> bool | np.ndarray:
    """A per-cell Fraction-readout mask, as one bool when every cell agrees."""
    if frac is True or frac is False:
        return frac
    if isinstance(frac, np.ndarray) and frac.ndim:
        if frac.all():
            return True
        if not frac.any():
            return False
        return _locked(frac)
    return bool(frac)


def _cells(values: Sequence[Scalar] | np.ndarray, size: int, what: str) -> tuple:
    """Validate outside input as `_store` arguments: float64 cells, or exact
    numerators, denominator and Fraction mask, which alone give the readout.

    A numeric ndarray is float data.  A sequence or an object ndarray is
    exact, and every cell must be an int or a Fraction; a bool reads as an int.
    """
    if isinstance(values, np.ndarray):
        if values.shape != (size,):
            raise ValueError(f"expected {size} {what}, got shape {values.shape}")
        if values.dtype != object:
            return (values.astype(np.float64),)
    vals = list(values)
    if len(vals) != size:
        raise ValueError(f"expected {size} {what}, got {len(vals)}")
    kinds = set(map(type, vals))
    if not all(issubclass(t, (int, Fraction)) for t in kinds):
        raise ValueError("exact mode holds ints/Fractions; pass an ndarray for float data")
    fractions = {t for t in kinds if issubclass(t, Fraction)}
    frac = np.array([type(v) in fractions for v in vals], dtype=bool) if fractions else False
    den = math.lcm(*(v.denominator for v in vals if type(v) in fractions)) if fractions else 1
    # .numerator reads a bool as a plain int, so stored cells never hold one
    nums = vals if kinds == {int} else [v.numerator * (den // v.denominator) for v in vals]
    num = np.array(nums, dtype=_int_dtype(max(map(abs, nums), default=0)))
    return num, den, frac


def _dyadic(cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Finite float64 cells as Python ints over one power of two: cells = num / den.

    Each cell is mant * 2^ex with an odd int64 mant; den = 2^-min(ex) (1 when
    no ex is negative), so the shifts below are >= 0.
    """
    mant, ex = np.frexp(cells)
    mant = np.ldexp(mant, 53).astype(np.int64)       # exact: |mant| < 2^53
    zeros = np.frexp(mant & -mant)[1] - 1            # trailing zero bits; -1 at 0
    mant, ex = mant >> np.maximum(zeros, 0), ex - 53 + zeros
    nz = mant != 0
    low = min(int(ex[nz].min()), 0) if nz.any() else 0
    return mant.astype(object) << np.where(nz, ex - low, 0).astype(object), 1 << -low


def _scalar(x) -> Scalar:
    """A reduction's result as a Python number (exact results already are)."""
    return x.item() if isinstance(x, np.generic) else x


class _Cells:
    """Cell storage shared by sampled functions and their spectra.

    `_num` holds float64 cells, or exact numerators over the denominator
    `_den` in lowest terms (gcd(den, every numerator) = 1, den = 1 when
    every cell is 0; float mode keeps den = 1).  `_frac` marks the exact
    cells that read out as Fraction, as one bool when every cell agrees,
    and `_read` caches the readout, built from these cells alone on first
    use.  `_ordering` is a spectrum's ordering, None for sampled functions.
    No other module reads these fields: they use the operations below.
    """

    __slots__ = ("resolution", "_ordering", "_num", "_den", "_frac", "_read")

    def _store(self, resolution: int, num: np.ndarray, den: int = 1, frac=False,
               ordering: System | None = None):
        num, den = _reduced(num, den)
        self.resolution = resolution
        self._ordering = ordering
        self._num = _locked(num)
        self._den = den
        if num.dtype == np.float64:
            self._frac, self._read = False, self._num
        else:
            self._frac, self._read = _tag(frac), None
        return self

    @classmethod
    def _of(cls, resolution: int, num: np.ndarray, den: int = 1, frac=False,
            ordering: System | None = None):
        """Wrap the cells an operator computed; they need no per-cell re-check."""
        return cls.__new__(cls)._store(resolution, num, den, frac, ordering)

    def _like(self, num: np.ndarray, den: int = 1, frac=False):
        """New cells of the same kind, resolution and ordering."""
        return self._of(self.resolution, num, den, frac, self._ordering)

    def _key(self) -> tuple:
        return self.resolution, self._ordering, self.is_exact

    @property
    def is_exact(self) -> bool:
        return self._num.dtype != np.float64

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    def _readout(self) -> np.ndarray:
        """Exact cells as Python numbers: a Fraction where `_frac` marks the cell, else an int."""
        if self._read is None:
            nums, den, frac = self._num.tolist(), self._den, self._frac
            if frac is True:
                cells = [Fraction(n, den) for n in nums]
            elif frac is False:
                cells = nums  # den == 1, since int cells are integral
            else:
                cells = [Fraction(n, den) if t else n // den
                         for n, t in zip(nums, frac.tolist())]
            self._read = _locked(np.array(cells, dtype=object))
        return self._read

    def _gathered(self, idx: np.ndarray):
        """The cells at `idx`, as an object of the same kind."""
        frac = self._frac[idx] if isinstance(self._frac, np.ndarray) else self._frac
        return self._like(self._num[idx], self._den, frac)

    def _weighted(self, w: np.ndarray):
        """Cellwise product with the integer weights `w`; each cell keeps its readout type."""
        return self._like(_product(self._num, w), self._den, self._frac)

    def _floats(self) -> np.ndarray:
        """float(cell) for every cell, each correctly rounded; float cells as they are.

        A numerator or denominator past 2^53 divides as Python ints, since an
        int64 -> float64 cast would round first.
        """
        num, den = self._num, self._den
        if num.dtype == np.float64:
            return num
        if den <= 1 << 53 and _peak(num) <= 1 << 53:
            return num.astype(np.float64) / den
        return np.array([n / den for n in num.tolist()], dtype=np.float64)

    def _nonzero(self) -> np.ndarray:
        """A bool mask of the cells that are not 0."""
        return self._num != 0

    def _sup(self) -> Scalar:
        """|cell| of the first cell of largest magnitude, read out."""
        return abs(self[int(np.argmax(np.abs(self._num)))])

    def _magnitudes(self, cells=slice(None)) -> tuple[list[tuple], int]:
        """The runs (distinct |cell|, count) of the cells a slice selects, largest first.

        Exact magnitudes come as integer numerators over the returned denominator, float
        ones as floats over 1.
        """
        mags, counts = np.unique(np.abs(self._num[cells]), return_counts=True)
        return list(zip(mags[::-1].tolist(), counts[::-1].tolist())), self._den

    def __len__(self) -> int:
        return 1 << self.resolution

    def __getitem__(self, j: int) -> Scalar:
        if self._read is not None or not isinstance(j, (int, np.integer)):
            return self._readout()[j]
        n = int(self._num[j])
        frac = self._frac if isinstance(self._frac, bool) else self._frac[j]
        return Fraction(n, self._den) if frac else n // self._den

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # lowest terms make (numerators, denominator) unique for given values
        return (self._key() == other._key() and self._den == other._den
                and bool(np.array_equal(self._num, other._num)))

    def __hash__(self):
        return hash(self._key())


def _common(a: _Cells, b: _Cells) -> tuple[np.ndarray, np.ndarray, int]:
    """a's and b's numerators over lcm(den_a, den_b), in a dtype that holds a +- b."""
    den = math.lcm(a._den, b._den)
    na, nb = _times(a._num, den // a._den), _times(b._num, den // b._den)
    return (*_widened(lambda x, y: _peak(x) + _peak(y), na, nb), den)


class SampledFunction(_Cells):
    """Function constant on rank-N dyadic cells, stored as 2^N cell values.

    Float mode stores float64 cells; exact mode stores integer numerators
    over one denominator (see `_Cells`) and reads them out as Python
    ints/Fractions.  Cross-mode and cross-resolution arithmetic is an
    error rather than an implicit promotion.
    """

    __slots__ = ()

    def __init__(self, resolution: int, values: Sequence[Scalar] | np.ndarray):
        self._store(resolution, *_cells(values, 1 << resolution, "values"))

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c: Scalar, resolution: int) -> "SampledFunction":
        return cls(resolution, [c] * (1 << resolution))

    @classmethod
    def indicator(cls, interval: DyadicInterval, resolution: int,
                  scale: Scalar = 1) -> "SampledFunction":
        """scale on the cells of `interval` and int 0 elsewhere; an int or Fraction scale."""
        cells = interval.cells(resolution)
        if not isinstance(scale, (int, Fraction)):
            raise ValueError("an indicator's scale must be an int or a Fraction")
        inside = np.zeros(1 << resolution, dtype=bool)
        inside[cells] = True
        num = inside.astype(_int_dtype(abs(scale.numerator))) * scale.numerator
        return cls._of(resolution, num, scale.denominator, isinstance(scale, Fraction) and inside)

    # -- basics ----------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Cell values: a read-only float64 or object (int/Fraction) ndarray."""
        return self._readout()

    def integral(self) -> Scalar:
        """Mean value: integral over the group of a cell-constant function."""
        return self._integral(slice(None))

    def _integral(self, cells) -> Scalar:
        """Integral of f times the indicator of the cells a slice or mask selects."""
        if self.is_exact:
            return Fraction(_total(self._num[cells]), self._den << self.resolution)
        return float(np.sum(self._num[cells])) / (1 << self.resolution)

    def _block_means(self, n: int) -> "SampledFunction":
        """Every cell replaced by the mean of f over its rank-n cell."""
        cells = 1 << n
        reps = 1 << (self.resolution - n)
        (num,) = _widened(lambda x: _peak(x) * reps, self._num)
        means, den = _quotient(num.reshape(reps, cells).sum(axis=0), self._den, reps)
        return self._like(np.tile(means, reps), den, True)

    def _matches(self, rows: tuple[np.ndarray, int], shifts=None) -> np.ndarray:
        """Per row k of a stack (numerators, den), whether it == f(. XOR shifts[k]), or f, for
        f = self: the same mode and equal values.  No row is stored as a function."""
        num, den = rows
        cells = self._num if shifts is None else self._num[np.arange(len(self)) ^ shifts[:, None]]
        same = np.all(_times(num, self._den) == _times(cells, den), axis=-1)
        return same & (self.is_exact == (num.dtype != np.float64))

    def to_float(self) -> "SampledFunction":
        return self._like(self._floats())

    def _translate_power_sums(self, p: int) -> tuple[np.ndarray, int]:
        """Integers S and den with sum_j (f(j XOR h) - f(j))^p = S[h] / den^p, exactly.

        For even p >= 2 and finite float cells f.  With f = F / den, F the
        cells scaled to integers over one power of two, the sum is
        sum_k C(p,k) (-1)^k (F^(p-k) * F^k)(h), a signed sum of dyadic
        correlations (a * b)(h) = sum_j a(j XOR h) b(j).  The butterfly
        makes each one a cellwise product of spectra, so S costs p - 1
        forward butterflies and one inverse.  The terms k = 0 and k = p
        are the constant 2 sum F^p, which S[0] = 0 determines.
        """
        num, den = _dyadic(self._floats())
        size = len(self)
        # spectra of F^k are at most size max|F|^k, their products size^2 max|F|^p,
        # the binomial sum 2^p times that and its butterfly size times more
        num = _fit(num, (_peak(num) ** p << p) * size ** 3)
        powers = [num]
        while len(powers) < p - 1:
            powers.append(powers[-1] * num)
        spectra = [_butterfly_array(g) for g in powers]  # spectra[k - 1] is that of F^k
        acc = sum(math.comb(p, k) * (-1) ** k * (spectra[p - k - 1] * spectra[k - 1])
                  for k in range(1, p))
        corr = _butterfly_array(acc) // size
        return corr - corr[0], den ** p

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "SampledFunction") -> None:
        if self.resolution != other.resolution:
            raise ValueError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}")
        if self.is_exact != other.is_exact:
            raise ValueError("mode mismatch: convert with to_float() first")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        a, b, den = _common(self, other)
        return self._like(a + b, den, self._frac | other._frac)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        a, b, den = _common(self, other)
        return self._like(a - b, den, self._frac | other._frac)

    def __neg__(self) -> "SampledFunction":
        return self._like(-self._num, self._den, self._frac)

    def scale(self, c: Scalar) -> "SampledFunction":
        if not self.is_exact:
            return self._like(float(c) * self._num)
        if not isinstance(c, (int, Fraction)):
            raise ValueError(
                "float scalar on exact storage; convert with to_float() first")
        return self._like(_times(self._num, c.numerator), self._den * c.denominator,
                          self._frac | isinstance(c, Fraction))

    def __mul__(self, other: "SampledFunction") -> "SampledFunction":
        """Pointwise product."""
        self._check_compatible(other)
        return self._like(_product(self._num, other._num), self._den * other._den,
                          self._frac | other._frac)

    def __repr__(self) -> str:
        return (f"SampledFunction(N={self.resolution}, mode={self.mode}, "
                f"values[:4]={list(self.values[:4])}...)")


class CoefficientSequence(_Cells):
    """Spectrum of a sampled function in one of the two orderings.

    Stored like `SampledFunction` cells and read out through `coeffs`.
    """

    __slots__ = ()

    def __init__(self, resolution: int, ordering: System | str,
                 coeffs: Sequence[Scalar] | np.ndarray):
        self._store(resolution, *_cells(coeffs, 1 << resolution, "coefficients"),
                    ordering=System.coerce(ordering))

    @property
    def ordering(self) -> System:
        return self._ordering

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficients: a read-only float64 or object (int/Fraction) ndarray."""
        return self._readout()

    def to_ordering(self, system: System | str) -> "CoefficientSequence":
        """Reindex between orderings: hat{f}^kappa(i) = hat{f}^w(sigma(i))."""
        system = System.coerce(system)
        if system is self.ordering:
            return self
        out = self._gathered(sigma_permutation(self.resolution))
        out._ordering = system
        return out

    def energy(self) -> Scalar:
        """Sum of squared coefficients (ordering-independent); an int when all read as ints."""
        (num,) = _widened(lambda n: _peak(n) ** 2 * n.size, self._num)
        total = _scalar(np.sum(np.square(num)))
        return Fraction(total, self._den ** 2) if np.any(self._frac) else total


def _zeroed(c: CoefficientSequence, cells) -> CoefficientSequence:
    """c with the cells a slice, mask or index array selects set to int 0, in c's ordering."""
    num = c._num.copy()
    num[cells] = 0
    frac = c._frac
    if frac is not False:
        frac = np.array(np.broadcast_to(frac, num.shape))
        frac[cells] = False
    return c._like(num, c._den, frac)


def _sup_abs(levels: Iterable[SampledFunction]) -> SampledFunction:
    """Pointwise max of |g| over the levels; a tie keeps the earlier cell.

    Exact levels are compared over the lcm of their denominators.  It
    serves the averaging oracle `maximal_by_averages`.
    """
    levels = list(levels)
    den = math.lcm(*(g._den for g in levels))
    acc, frac = None, False
    for g in levels:
        mag = np.abs(_times(g._num, den // g._den))
        if acc is None:
            acc, frac = mag, g._frac
            continue
        if g._frac is not frac:  # the cell read out is the level's that wins it
            frac = np.where(mag > acc, g._frac, frac)
        acc = np.maximum(acc, mag)
    return SampledFunction._of(levels[0].resolution, acc, den, frac)


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform

def _butterfly_stages(arr: np.ndarray) -> Iterator[np.ndarray]:
    """FWHT butterflies on a copy of `arr`, yielded before the first stage and after each.

    The k-th yield (from 0) has run the stages for bits 0..k-1, so each
    aligned block of 2^k cells along the last axis holds the transform of
    its inputs at resolution k.  Every yield is the same array, changed in
    place by the next stage.  Serves float64, int64 and object cells alike.
    """
    out = arr.copy()
    yield out
    lead, h = out.shape[:-1], 1
    while h < out.shape[-1]:
        view = out.reshape(*lead, -1, 2 * h)
        left, right = view[..., :h], view[..., h:]
        old = left.copy()
        np.add(old, right, out=left)
        np.subtract(old, right, out=right)
        h <<= 1
        yield out


def _butterfly_array(arr: np.ndarray) -> np.ndarray:
    """FWHT butterflies on a copy of the same dtype: every stage of `_butterfly_stages`."""
    *_, out = _butterfly_stages(arr)
    return out


def _l1(num: np.ndarray) -> int:
    """A bound on sum |num|: size * max|num| while that fits int64, else the sum itself."""
    cover = _peak(num) * num.size
    return cover if cover <= _INT64_MAX else _total(np.abs(num))


def _butterflied(num: np.ndarray) -> np.ndarray:
    """FWHT butterflies of cells or numerators, widened first if needed.

    Every partial butterfly value is a signed sum of the inputs, so
    sum |num| (`_l1`) bounds them all.
    """
    return _butterfly_array(*_widened(_l1, num))


def fwht(f: SampledFunction, ordering: System | str = System.PALEY) -> CoefficientSequence:
    """Spectrum of f: coeffs[i] = 2^{-N} sum_j f(j) (-1)^{popcount(i AND j)}."""
    num, den = _quotient(_butterflied(f._num), f._den, len(f))
    paley = CoefficientSequence._of(f.resolution, num, den, True, System.PALEY)
    return paley.to_ordering(ordering)


def _synthesis(cells: np.ndarray, N: int) -> np.ndarray:
    """Samples at resolution N from `cells`, the butterflies of Paley heads of 2^r cells in rows:
    with the spectrum 0 past the head they read only the coordinates below r, so each row tiles."""
    if cells.shape[-1] == 1 << N:
        return cells
    out = np.empty((*cells.shape[:-1], 1 << N), dtype=cells.dtype)
    out.reshape(*cells.shape[:-1], -1, cells.shape[-1])[:] = cells[..., None, :]
    return out


def inverse_fwht(coeffs: CoefficientSequence) -> SampledFunction:
    """Reconstruct f = sum_i coeffs[i] * (system function i)."""
    return _level(coeffs.to_ordering(System.PALEY), coeffs.resolution)


def _level(spec: CoefficientSequence, n: int) -> SampledFunction:
    """The function whose Paley spectrum is the Paley `spec`'s first 2^n cells, in lowest terms."""
    num, den = _reduced(spec._num[:1 << n], spec._den)
    return SampledFunction._of(spec.resolution, _synthesis(_butterflied(num), spec.resolution),
                               den, _level_frac(spec, n))


def _level_frac(spec: CoefficientSequence, n: int) -> bool:
    """Whether level n of the Paley `spec` reads out as Fractions (see `_level`)."""
    return spec._frac if isinstance(spec._frac, bool) else bool(spec._frac[:1 << n].any())


def _signed_sup_abs(spec: CoefficientSequence, signs=None):
    """max_n |f^(n)| of the Paley spectrum spec, as a function; given the +-1 `signs`, the
    terminals f^(N) and the maxima of spec * s, a row per row s, as two stacks (numerators, den).

    Each row's butterfly stages for bits 0..n-1 leave level n on its first
    2^n cells (see `_level`) over spec's denominator, so one butterfly of
    the stacked rows feeds a running max kept at each level's resolution.
    A tie keeps the earlier level's cell, as in `_sup_abs`.  Signs keep
    every row within spec's own bound, so spec widens once, before it stacks.
    """
    num = _widened(_l1, spec._num)[0]
    stages = _butterfly_stages(num if signs is None else num * signs)
    cells = next(stages)
    acc, frac = np.abs(cells[..., :1]), _level_frac(spec, 0)
    for n, cells in enumerate(stages, 1):
        acc = np.concatenate((acc, acc), axis=-1)
        frac = np.concatenate((frac, frac), axis=-1) if isinstance(frac, np.ndarray) else frac
        mag = np.abs(cells[..., :1 << n])
        if _level_frac(spec, n) is not frac:  # the cell read out is the level's that wins it
            frac = np.where(mag > acc, _level_frac(spec, n), frac)
        acc = np.maximum(acc, mag)
    if signs is None:
        return SampledFunction._of(spec.resolution, acc, spec._den, frac)
    return (cells, spec._den), (acc, spec._den)


def _signed_square_sum(spec: CoefficientSequence, signs=None):
    """sum_n (f^(n) - f^(n-1))^2, f^(-1) = 0, for f = spec as a function, or for f = spec * s
    as one stack, as in `_signed_sup_abs`.

    Difference n has the spectrum's block [2^(n-1), 2^n) ([0, 1) for
    n = 0), so the squared sums of |numerator| over the blocks add up
    to a bound on every cell formed.
    """
    def bound(num: np.ndarray) -> int:
        starts = [0] + [1 << k for k in range(spec.resolution)]
        return sum(b * b for b in np.add.reduceat(np.abs(_fit(num, _l1(num))), starts).tolist())

    num = _widened(bound, spec._num)[0]
    stages = _butterfly_stages(num if signs is None else num * signs)
    prev = next(stages)[..., :1].copy()  # each stage overwrites the level before it
    acc = prev * prev
    for n, cells in enumerate(stages, 1):
        level = cells[..., :1 << n]
        diff = level - np.concatenate((prev, prev), axis=-1)
        acc, prev = np.concatenate((acc, acc), axis=-1) + diff * diff, level.copy()
    if signs is None:
        return SampledFunction._of(spec.resolution, acc, spec._den ** 2,
                                   _level_frac(spec, spec.resolution))
    return acc, spec._den ** 2


def _fejer_rows(spec: CoefficientSequence, system: System, n: int | np.ndarray) -> np.ndarray:
    """The butterflied head of sigma_n of the Paley `spec` for the order n, or a row per order of
    a column n of ascending orders of one head size 2^r: the head times w = n - i
    (`_fejer_spectrum`), as head * (w / n) on float cells, and on exact ones as c * w, the
    numerators of n sigma_n over spec's denominator.  Exact rows widen together: max|c| n over
    the kept c bounds every product, and 2^r times it each row's butterfly values.  Only past
    int64 are the products formed first, for the bounds of `_product` and then `_butterflied`,
    so one row gets the dtype of that route."""
    w = _fejer_spectrum(system, n)
    head = spec._num[:w.shape[-1]]
    if not spec.is_exact:
        return _butterfly_array(head * (w / n))
    kept, size = np.where(w, head, 0), head.size
    peak = _peak(kept) * w.item(-size)  # w peaks at the last n, in its first cell
    bound = peak * size if peak * size <= _INT64_MAX else max(peak, _l1(_product(kept, w)))
    return _butterfly_array(_fit(kept, bound) * w)


def _fejer_mean(spec: CoefficientSequence, system: System, n: int) -> SampledFunction:
    """sigma_n of the Paley `spec`: the one row of `_fejer_rows`, tiled, over den * n if exact."""
    row = _synthesis(_fejer_rows(spec, system, n), spec.resolution)
    return SampledFunction._of(spec.resolution, row, spec._den * n if spec.is_exact else 1, True)


def _equal_rows(rows: np.ndarray, spec: CoefficientSequence, n: np.ndarray,
                base: SampledFunction, step: SampledFunction, t: int) -> list[bool]:
    """Whether each row of the exact stack `_fejer_rows(spec, ., n)`, n sigma_n for its order in
    the column n, equals n base + t step, in one comparison: the stack, tiled, base and step
    scale to one common denominator d by d/den, n d/den and t d/den, widened first if needed."""
    d = math.lcm(spec._den, base._den, step._den)
    lhs, a, b = (_times(num, k) for num, k in ((rows, d // spec._den), (base._num, d // base._den),
                                               (step._num, t * d // step._den)))
    a, b = _widened(lambda x, y: _peak(x) * _peak(n) + _peak(y), a, b)
    return np.all(_synthesis(lhs, base.resolution) == a * n + b, axis=1).tolist()


# ---------------------------------------------------------------------------
# kernels

def _kernel_l1_fits_int64(n: int, N: int) -> bool:
    """Whether sum_x |n K_n(x)| over the 2^N cells stays in int64; N = 0 checks each sample.

    Each partial butterfly value of n - i (i < n) is at most their sum n(n+1)/2, reached at x = 0.
    """
    return (n * (n + 1) // 2) << N <= _INT64_MAX


def _fejer_spectrum(system: System, n: int | np.ndarray) -> np.ndarray:
    """int64 Paley coefficients of n K_n, n - i at system index i < n, on their first 2^r cells.

    r = (n-1).bit_length() (0 for n = 0): sigma keeps each block [2^k, 2^{k+1}) in place,
    so every later coefficient is 0.  Their butterfly is n K_n = sum_{k=1..n} D_k, and D_n has
    coefficient 1 where they are nonzero: sigma_n weights by them over n, S_n keeps their support;
    a column of ascending orders gives one row each, on the head of the last.
    """
    r = max((n.item(-1) if isinstance(n, np.ndarray) else n) - 1, 0).bit_length()
    pos = np.arange(1 << r, dtype=np.int64) if system is System.PALEY else sigma_permutation(r)
    return np.maximum(n - pos, 0)


def fejer_numerators(system: System | str, n: int, N: int) -> np.ndarray:
    """n * K_n = sum_{k=1..n} D_k as a fresh array of exact int64 samples (zero for n = 0)."""
    system = System.coerce(system)
    if N < 0:
        raise ValueError(f"resolution must be >= 0, got {N}")
    if n < 0 or n > 1 << N:
        raise ValueError(f"kernel order {n} overflows spectrum at resolution {N}")
    if not _kernel_l1_fits_int64(n, 0):
        raise ValueError(f"kernel order {n} would overflow int64 sums; reduce n")
    _check_depth(N)
    return _synthesis(_butterflied(_fejer_spectrum(system, n)), N)


def dirichlet(system: System | str, n: int, N: int) -> SampledFunction:
    """D_n = sum_{k<n} (system function k), exact integer samples; D_0 = 0."""
    system = System.coerce(system)
    if N < 0:
        raise ValueError(f"resolution must be >= 0, got {N}")
    if n < 0 or n > 1 << N:
        raise ValueError(f"Dirichlet order {n} overflows spectrum at resolution {N}")
    _check_depth(N)
    kernel = _butterflied(np.minimum(_fejer_spectrum(system, n), 1))
    return SampledFunction._of(N, _synthesis(kernel, N))


def fejer(system: System | str, n: int, N: int) -> SampledFunction:
    """K_n = (1/n) sum_{k=1..n} D_k; rational samples with denominator | n."""
    if n < 1 and N >= 0:  # fejer_numerators names a negative resolution
        raise ValueError("Fejer kernel order must be >= 1")
    return SampledFunction._of(N, fejer_numerators(system, n, N), n, True)


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Dyadic convolution (f * g)(x) = 2^{-N} sum_t f(x + t) g(t).

    Diagonalized by the characters: the Paley spectrum multiplies
    pointwise, which is how Fejer means act as kernel convolutions.  One
    forward transform per factor and one inverse cost O(N 2^N).
    """
    f._check_compatible(g)
    cf, cg = fwht(f), fwht(g)
    return inverse_fwht(cf._like(_product(cf._num, cg._num), cf._den * cg._den, True))


def convolve_by_sum(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Definitional dyadic convolution by the direct O(4^N) sum (test oracle).

    The XOR gather runs in row chunks so its matrix stays near 4e6 cells.
    """
    f._check_compatible(g)
    size = len(f)
    fn, gn = _widened(lambda x, y: _peak(x) * _peak(y) * size, f._num, g._num)
    idx = np.arange(size)
    chunk = max(1, 4_000_000 // size)
    sums = np.concatenate([fn[idx[x:x + chunk, None] ^ idx[None, :]] @ gn
                           for x in range(0, size, chunk)])
    num, den = _quotient(sums, f._den * g._den, size)
    return SampledFunction._of(f.resolution, num, den, True)


def compose_with_tau(f: SampledFunction, A: int) -> SampledFunction:
    """(f o tau_A)(x) = f(tau_A x): gather samples through the bit reversal."""
    if A > f.resolution:
        raise ValueError(f"reversal width {A} exceeds resolution {f.resolution}")
    return f._gathered(tau_permutation(A, f.resolution))


def fejer_by_average(system: System | str, n: int, N: int) -> SampledFunction:
    """Definitional Fejer kernel (1/n) sum of Dirichlet kernels (test oracle)."""
    if n < 1:
        raise ValueError("Fejer kernel order must be >= 1")
    acc = [0] * (1 << N)
    for k in range(1, n + 1):
        acc = [a + v for a, v in zip(acc, dirichlet(system, k, N).values)]
    return SampledFunction(N, [Fraction(v, n) for v in acc])
