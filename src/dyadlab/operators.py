"""Partial sums and Fejer means in both orderings, as coefficient multipliers.

S_n f = sum_{i<n} hat{f}(i) alpha_i  and  sigma_n f = (1/n) sum_{j<=n} S_j f.
Averaging the partial sums weights coefficient i by (n - i)/n for i < n,
so both operators are diagonal in the acting system's ordering.  In the
Kaczmarz ordering the diagonal acts through the block bit-reversal
sigma: the Paley coefficient at j carries weight (n - sigma(j))/n when
sigma(j) < n; `walsh._fejer_spectrum` is that multiplier n - i on its
first 2^r cells, r = (n-1).bit_length(): system functions 0..n-1 read only
the coordinates below r, so S_n f and sigma_n f come at that resolution,
tiled.  S_n f is level r (`walsh._level`) of the spectrum zeroed where
that multiplier vanishes.  `fejer_mean` is `walsh._fejer_mean`, the one
row of `walsh._fejer_rows` (one butterfly for every order of one r) tiled
and wrapped.  `_fejer_sums` builds n sigma_n f, n = 1, 2, ..., by one
running sum for the weighted maximal sweep, each sum at its own
resolution.  The definitional averages are kept as test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Union

import numpy as np

from .hardy import DyadicMartingale
from .norms import PLike, normalize_p
from .walsh import (CoefficientSequence, SampledFunction, System, _fejer_mean, _fejer_spectrum,
                    _level, _zeroed, fwht, sigma_permutation)

Operand = Union[DyadicMartingale, SampledFunction]


def _paley_spectrum(f: Operand) -> CoefficientSequence:
    return f.terminal if isinstance(f, DyadicMartingale) else fwht(f)


def coefficients(f: Operand, system: System | str = System.PALEY) -> CoefficientSequence:
    """Spectrum of f in the requested ordering."""
    return _paley_spectrum(f).to_ordering(system)


def partial_sum(f: Operand, system: System | str, n: int) -> SampledFunction:
    """S_n f: keep coefficients 0..n-1 in the acting system's ordering."""
    system = System.coerce(system)
    spec = _paley_spectrum(f)
    if not 0 <= n <= len(spec):
        raise ValueError(f"partial-sum order {n} outside 0..{len(spec)}")
    w = _fejer_spectrum(system, n)
    return _level(_zeroed(spec, np.flatnonzero(w == 0)), w.size.bit_length() - 1)


def fejer_mean(f: Operand, system: System | str, n: int) -> SampledFunction:
    """sigma_n f via the diagonal weights (n - i)/n, i < n, in `system` order: one tiled row."""
    system = System.coerce(system)
    spec = _paley_spectrum(f)
    if n < 1:
        raise ValueError("Fejer mean order must be >= 1")
    if n > len(spec):
        raise ValueError(f"Fejer order {n} outside spectrum 0..{len(spec)}")
    return _fejer_mean(spec, system, n)


def _fejer_sums(coeffs: np.ndarray, system: System,
                n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, n sigma_n f = S_1 f + ... + S_n f) for n = 1..n_max.

    `coeffs` is the Paley spectrum of f, read only where system functions
    0..n_max-1 sit.  S_n f adds c w_j to S_{n-1} f, where w_j is system
    function n - 1 and c its coefficient.  The sum of order n comes on
    its own 2^r cells (see above); tiling it 2^{N-r} times gives its
    samples at the resolution N of `coeffs`.  The sums double when
    n - 1 reaches 2^r, so order n costs O(2^r).  Every array keeps the
    dtype of `coeffs`, so an int64 spectrum sums exactly.
    """
    R = (n_max - 1).bit_length()  # the resolution of the last order
    idx = np.arange(1 << R)
    paley_index = sigma_permutation(R) if system is System.KACZMARZ else idx
    r = 0
    partial = acc = np.zeros(1, dtype=coeffs.dtype)  # S_0 f and its running sum
    for n in range(1, n_max + 1):
        if n - 1 == 1 << r:
            r += 1
            partial, acc = np.tile(partial, 2), np.tile(acc, 2)
        j = paley_index[n - 1]
        c = coeffs[j]
        if c != 0:  # c w_j(x) = c - 2c [popcount(j AND x) odd]
            partial = partial + (c - (2 * c) * (np.bitwise_count(idx[:1 << r] & j) & 1))
        acc = acc + partial
        yield n, acc


def fejer_mean_by_average(f: Operand, system: System | str, n: int) -> SampledFunction:
    """Definitional sigma_n f = (1/n) sum_{j=1..n} S_j f (test oracle)."""
    if n < 1:
        raise ValueError("Fejer mean order must be >= 1")
    acc = partial_sum(f, system, 1)
    for j in range(2, n + 1):
        acc = acc + partial_sum(f, system, j)
    return acc.scale(Fraction(1, n))  # float mode scales by float(1/n) = 1.0 / n


def fejer_weight(p: Fraction | float, n: int) -> float:
    """Denominator weight (n+1)^{1/p-2} log2^{2[1/2+p]}(n+1) of the maximal sweep.

    [1/2 + p] = 0 for p < 1/2 and 1 for p = 1/2; the logarithm base is
    fixed to 2 so reports are reproducible.
    """
    return _fejer_weights(p)(n)


def _fejer_weights(p: Fraction | float) -> Callable[[int], float]:
    """`fejer_weight` at p as a function of n, with p checked once."""
    if not 0 < p <= Fraction(1, 2):
        raise ValueError(f"weighted maximal operator needs 0 < p <= 1/2, got {p}")
    if p == Fraction(1, 2):
        return lambda n: math.log2(n + 1.0) ** 2
    exponent = 1.0 / float(p) - 2.0
    return lambda n: float(n + 1.0) ** exponent


def weighted_maximal(f: Operand, p: PLike, n_max: int) -> SampledFunction:
    """max_{1<=n<=n_max} |sigma_n^kappa f| / fejer_weight(p, n), in float mode.

    The sweep keeps a running sum of Kaczmarz partial sums at each order's
    own resolution, so the whole range costs O(n_max 2^R), with
    R = (n_max-1).bit_length(), instead of n_max separate means.
    """
    weight = _fejer_weights(normalize_p(p))
    spec = _paley_spectrum(f)
    if not 1 <= n_max <= len(spec):
        raise ValueError(f"n_max {n_max} outside 1..{len(spec)}")
    best = np.zeros(1)  # at the sweep's resolution, tiled with it
    for n, acc in _fejer_sums(spec._floats(), System.KACZMARZ, n_max):
        if best.size < acc.size:
            best = np.tile(best, 2)
        best = np.maximum(best, np.abs(acc) / (n * weight(n)))
    return SampledFunction(spec.resolution, np.tile(best, len(spec) // best.size))
