"""Exact cells at the storage edges against list-of-Fraction definitions.

The exact layer keeps int64 numerators over one denominator and widens to
Python ints when a bound passes 2^63 - 1 (see `dyadlab.walsh`).  Here the
cells sit at that edge: 0, +-(2^63 - 1), +-2^63, magnitudes up to about
2^72, denominators past 2^63, all-zero arrays, and ints mixed with
Fractions, at N <= 3.  Every result is compared with plain Python
arithmetic on the cell lists, which shares no code with the storage:
characters come from `walsh_paley_samples` and `kaczmarz_samples`, and the
Kaczmarz-to-Paley index is found by matching their sample vectors.

Each result must give the reference values and the README readout types
(Python's own typing, with every division a Fraction), be stored in lowest
terms with den > 0 and den = 1 when every cell is 0, and keep Python-int
numerators when an operand had them (operations only widen).  Where the
result is a maximum, Python's `max` keeps the first of equal cells, so a
tie reads out as the earlier level's cell.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import (CoefficientSequence, DyadicMartingale, SampledFunction, System, convolve,
                     fejer_mean, fwht, inverse_fwht, kaczmarz_samples, maximal, partial_sum,
                     square_function_squared, walsh_paley_samples)

MAX = 2**63 - 1
EDGE_INTS = (0, 1, -1, MAX, -MAX, MAX + 1, -(MAX + 1), 2**72, -(2**72))
EDGE_DENS = (2, 3, 2**63, 2**64, 2**64 + 1, 3 << 63)

ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**72), 2**72))
dens = st.one_of(st.sampled_from(EDGE_DENS), st.integers(1, 2**66))
scalars = st.one_of(ints, st.builds(Fraction, ints, dens))


def cell_lists(N: int) -> st.SearchStrategy:
    """2^N cells mixing ints and Fractions, or all zeros of one type."""
    size = 1 << N
    return st.one_of(st.lists(scalars, min_size=size, max_size=size),
                     st.sampled_from(([0] * size, [Fraction(0)] * size)))


any_cells = st.integers(0, 3).flatmap(cell_lists)
cell_pairs = st.integers(0, 3).flatmap(lambda N: st.tuples(cell_lists(N), cell_lists(N)))


def rows(system: System, N: int) -> list[list[int]]:
    """Samples of system functions 0..2^N - 1, one list per function."""
    sample = walsh_paley_samples if system is System.PALEY else kaczmarz_samples
    return [sample(i, N) for i in range(1 << N)]


def exact(values: list) -> SampledFunction:
    return SampledFunction(len(values).bit_length() - 1, values)


def assert_matches(got, want: list, *operands) -> None:
    """Values and readout types equal `want`; storage in lowest terms, widened only."""
    cells = [got[j] for j in range(len(got))]  # read before `values` caches the readout
    readout = got.values if isinstance(got, SampledFunction) else got.coeffs
    for read in (cells, readout.tolist()):
        assert read == want
        assert [type(v) for v in read] == [type(v) for v in want]
    assert got._den > 0
    assert math.gcd(got._den, *got._num.tolist()) == 1
    assert any(want) or got._den == 1
    if any(op._num.dtype == object for op in operands):
        assert got._num.dtype == object


@settings(max_examples=80)
@example(case=([1 << 64], [Fraction(1, 1 << 64)]))  # a product over 2^64 reduces by 2^64
@example(case=([Fraction(1, 1 << 64)], [Fraction((1 << 64) - 1, 1 << 64)]))  # a sum of 2^64/2^64
@example(case=([2**72, -(2**72)], [0, 0]))  # a product bounded by 0 with a Python-int operand
@given(cell_pairs)
def test_sum_difference_product(case):
    a, b = case
    f, g = exact(a), exact(b)
    assert_matches(f + g, [x + y for x, y in zip(a, b)], f, g)
    assert_matches(f - g, [x - y for x, y in zip(a, b)], f, g)
    assert_matches(f * g, [x * y for x, y in zip(a, b)], f, g)


@settings(max_examples=60)
@example(values=[2**72, 1], c=0)
@example(values=[1 << 64, 0], c=Fraction(1, 1 << 64))
@given(any_cells, scalars)
def test_scale(values, c):
    f = exact(values)
    assert_matches(f.scale(c), [v * c for v in values], f)


@settings(max_examples=60)
@given(any_cells)
def test_fwht_in_both_orderings(values):
    N = len(values).bit_length() - 1
    f = exact(values)
    for system in System:
        got = fwht(f, system)
        assert got.ordering is system
        assert_matches(got, [Fraction(sum(v * s for v, s in zip(values, row)), 1 << N)
                             for row in rows(system, N)], f)


@settings(max_examples=60)
@given(any_cells)
def test_inverse_fwht_in_both_orderings(coeffs):
    N = len(coeffs).bit_length() - 1
    for system in System:
        c = CoefficientSequence(N, system, coeffs)
        terms = list(zip(coeffs, rows(system, N)))
        assert_matches(inverse_fwht(c),
                       [sum((v * row[j] for v, row in terms), 0) for j in range(1 << N)], c)


@settings(max_examples=60)
@example(coeffs=[1, 0, 0, Fraction(1, 2)])  # levels 0 and 1 hold no Fraction coefficient
@example(coeffs=[1, 0, Fraction(0), 0])  # |f^(n)| = 1 at every level: int level 0 is read out
@given(any_cells)
def test_levels_maximal_and_square_function(coeffs):
    N = len(coeffs).bit_length() - 1
    cells = range(1 << N)
    terms = list(zip(coeffs, rows(System.PALEY, N)))
    levels = [[sum((c * row[j] for c, row in terms[:1 << n]), 0) for j in cells]
              for n in range(N + 1)]
    f = DyadicMartingale.from_paley_coeffs(N, coeffs)
    for n, level in enumerate(levels):
        assert_matches(f.level(n), level, f.terminal)
    assert_matches(maximal(f), [max(abs(level[j]) for level in levels) for j in cells],
                   f.terminal)
    steps = list(zip([[0] * len(cells)] + levels, levels))
    assert_matches(square_function_squared(f),
                   [sum(((b[j] - a[j]) ** 2 for a, b in steps), 0) for j in cells], f.terminal)


@settings(max_examples=40)
@given(cell_pairs)
def test_convolve(case):
    a, b = case
    N = len(a).bit_length() - 1
    paley = rows(System.PALEY, N)
    spectra = [[Fraction(sum(v * s for v, s in zip(cells, row)), 1 << N) for row in paley]
               for cells in (a, b)]
    f, g = exact(a), exact(b)
    assert_matches(convolve(f, g), [sum((x * y * row[j] for x, y, row in zip(*spectra, paley)), 0)
                                    for j in range(1 << N)], f, g)


def check_every_order(f, coeffs: dict, operand) -> None:
    """S_n f and sigma_n f at every order against sums of `coeffs[system][i]` times function i."""
    N = f.depth if isinstance(f, DyadicMartingale) else f.resolution
    for system in System:
        terms = list(zip(coeffs[system], rows(system, N)))
        sums = [[sum((c * row[j] for c, row in terms[:n]), 0) for j in range(1 << N)]
                for n in range((1 << N) + 1)]
        for n, want in enumerate(sums):
            assert_matches(partial_sum(f, system, n), want, operand)
            if n:
                mean = [Fraction(sum(s[j] for s in sums[1:n + 1]), n) for j in range(1 << N)]
                assert_matches(fejer_mean(f, system, n), mean, operand)


@settings(max_examples=40)
@example(coeffs=[1, 2, 3, Fraction(1, 2)])  # S_3 drops the one Fraction of its head
@example(coeffs=[0, 0, 0, 0, MAX + 1, 0, 0, Fraction(1, 3 << 63)])
@given(any_cells)
def test_martingale_partial_sums_and_fejer_means(coeffs):
    N = len(coeffs).bit_length() - 1
    paley = rows(System.PALEY, N)
    # the input coefficients themselves, so each keeps its readout type
    kaczmarz = [coeffs[paley.index(row)] for row in rows(System.KACZMARZ, N)]
    f = DyadicMartingale.from_paley_coeffs(N, coeffs)
    check_every_order(f, {System.PALEY: coeffs, System.KACZMARZ: kaczmarz}, f.terminal)


@settings(max_examples=25)
@given(any_cells)
def test_function_partial_sums_and_fejer_means(values):
    N = len(values).bit_length() - 1
    f = exact(values)
    coeffs = {system: [Fraction(sum(v * s for v, s in zip(values, row)), 1 << N)
                       for row in rows(system, N)] for system in System}
    check_every_order(f, coeffs, f)
