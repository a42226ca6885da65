"""Exact results hold Python ints and Fractions in every cell.

Reports write an int as `8` and a Fraction as `"8/1"`, so an operator
that let a numpy integer or a float into exact storage would change
report bytes even with the right values.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (CoefficientSequence, DyadicInterval, DyadicMartingale, GroupPoint,
                     SampledFunction, System, build_t1, build_t2, coefficients,
                     compose_with_tau, conjugate, convolve, convolve_by_sum, dirichlet,
                     fejer, fejer_by_average, fejer_mean, fejer_mean_by_average, fwht,
                     inverse_fwht, maximal, maximal_by_averages, partial_sum,
                     random_exact_martingale, random_lacunary_martingale, s2n,
                     s2n_by_averaging, square_function_squared, translate)
from test_shell_oracle import array_atoms

N = 4
F = SampledFunction(N, [Fraction(j - 7, 3) if j % 3 else j - 5 for j in range(1 << N)])
G = SampledFunction(N, [(-1) ** j * (j % 5) for j in range(1 << N)])  # ints only
M = random_exact_martingale(random.Random(3), N)
T = GroupPoint(N + 1, 0b10110)

OPERATORS = {
    "constant": lambda: SampledFunction.constant(Fraction(7, 2), N),
    "indicator": lambda: SampledFunction.indicator(DyadicInterval.at_zero(2, N), N, 4),
    "add": lambda: F + G,
    "sub": lambda: F - G,
    "neg": lambda: -F,
    "scale_int": lambda: G.scale(3),
    "scale_fraction": lambda: G.scale(Fraction(1, 3)),
    "mul": lambda: F * G,
    "fwht_paley": lambda: fwht(G),
    "fwht_kaczmarz": lambda: fwht(F, System.KACZMARZ),
    "to_ordering": lambda: CoefficientSequence(N, "paley", list(range(16))).to_ordering(
        System.KACZMARZ),
    "inverse_fwht": lambda: inverse_fwht(fwht(F, System.KACZMARZ)),
    "partial_sum_paley_5": lambda: partial_sum(F, System.PALEY, 5),
    "dirichlet_paley": lambda: dirichlet(System.PALEY, 11, N),
    "dirichlet_kaczmarz": lambda: dirichlet(System.KACZMARZ, 11, N),
    "fejer_paley": lambda: fejer(System.PALEY, 11, N),
    "fejer_kaczmarz": lambda: fejer(System.KACZMARZ, 11, N),
    "fejer_by_average": lambda: fejer_by_average(System.KACZMARZ, 6, N),
    "convolve": lambda: convolve(F, G),
    "convolve_by_sum": lambda: convolve_by_sum(F, G),
    "compose_with_tau": lambda: compose_with_tau(F, 3),
    "translate": lambda: translate(F, GroupPoint(N, 5)),
    "from_function": lambda: DyadicMartingale.from_function(F),
    "from_paley_coeffs": lambda: DyadicMartingale.from_paley_coeffs(N, list(range(16))),
    "level": lambda: M.level(2),
    "terminal_function": lambda: M.terminal_function(),
    "tail": lambda: M.tail(2),
    "s2n_martingale": lambda: s2n(M, 3),
    "s2n_function": lambda: s2n(F, 3),
    "s2n_by_averaging": lambda: s2n_by_averaging(F, 2),
    "maximal": lambda: maximal(DyadicMartingale.from_function(F)),
    "maximal_by_averages": lambda: maximal_by_averages(F),
    "square_function_squared": lambda: square_function_squared(M),
    "conjugate": lambda: conjugate(M, T),
    "coefficients": lambda: coefficients(M, System.KACZMARZ),
    "partial_sum_paley": lambda: partial_sum(F, System.PALEY, 6),
    "partial_sum_kaczmarz": lambda: partial_sum(M, System.KACZMARZ, 6),
    "fejer_mean_integer_spectrum": lambda: fejer_mean(M, System.KACZMARZ, 7),
    "fejer_mean_rational_spectrum": lambda: fejer_mean(F, System.PALEY, 7),
    "fejer_mean_by_average": lambda: fejer_mean_by_average(M, System.KACZMARZ, 5),
    "random_exact_martingale": lambda: random_exact_martingale(random.Random(4), N),
    "random_lacunary_martingale": lambda: random_lacunary_martingale(random.Random(4), N),
    "t1_terminal": lambda: build_t1(Fraction(1, 4), 3, 5).terminal(),
    "t2_terminal": lambda: build_t2(2, 5).terminal(),
    "t1_atom": lambda: list(array_atoms(build_t1(Fraction(1, 4), 3, 5)))[2][0],
    "t2_atom": lambda: list(array_atoms(build_t2(2, 5)))[1][0],
}


def cells(result) -> np.ndarray:
    if isinstance(result, DyadicMartingale):
        result = result.terminal
    if isinstance(result, CoefficientSequence):
        return result.coeffs
    return result.values


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_every_cell_is_int_or_fraction(name):
    result = OPERATORS[name]()
    assert result.is_exact
    arr = cells(result)
    assert arr.dtype == object and not arr.flags.writeable
    assert {type(v) for v in arr.tolist()} <= {int, Fraction}


@pytest.mark.parametrize("values, message", [
    (np.zeros((2, 2)), r"expected 4 values, got shape \(2, 2\)"),
    ([1, 2, 3], "expected 4 values, got 3"),
], ids=["shape", "length"])
def test_cell_count_is_checked(values, message):
    with pytest.raises(ValueError, match=message):
        SampledFunction(2, values)


@pytest.mark.parametrize("other, message", [
    (SampledFunction(2, [1, 2, 3, 4]), "resolution mismatch: 1 vs 2"),
    (SampledFunction(1, np.array([1.0, 2.0])), "mode mismatch"),
], ids=["resolution", "mode"])
@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_operands_must_be_compatible(op, other, message):
    with pytest.raises(ValueError, match=message):
        getattr(SampledFunction(1, [1, 2]), op)(other)


def test_float_scalar_on_exact_cells_is_refused():
    with pytest.raises(ValueError, match="float scalar on exact storage"):
        SampledFunction(1, [1, 2]).scale(0.5)


def test_object_ndarray_input_is_checked():
    ok = np.array([1, Fraction(1, 2)], dtype=object)
    assert SampledFunction(1, ok).is_exact
    with pytest.raises(ValueError):
        SampledFunction(1, np.array([1, np.int64(2)], dtype=object))
    with pytest.raises(ValueError):
        CoefficientSequence(1, "paley", np.array([0.5, 1], dtype=object))


def numerators(result) -> np.ndarray:
    if isinstance(result, DyadicMartingale):
        result = result.terminal
    return result._num


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_numerators_are_int64(name):
    # every operator here stays far below the int64 bound
    assert numerators(OPERATORS[name]()).dtype == np.int64


# Each result reads out as today: a division (fwht, a Fejer weight) gives
# Fraction cells even where they are integral; integer-only routes give ints.
READOUT = {
    "fejer": (lambda: fejer(System.KACZMARZ, 11, N), Fraction),
    "fejer_order_1": (lambda: fejer(System.PALEY, 1, N), Fraction),
    "fwht": (lambda: fwht(G), Fraction),
    "fwht_kaczmarz": (lambda: fwht(G, System.KACZMARZ), Fraction),
    "fejer_mean": (lambda: fejer_mean(M, System.KACZMARZ, 7), Fraction),
    "fejer_mean_full_order": (lambda: fejer_mean(M, System.PALEY, 1), Fraction),
    "dirichlet": (lambda: dirichlet(System.KACZMARZ, 11, N), int),
    "level": (lambda: M.level(2), int),
    "add_ints": (lambda: G + G, int),
    "sub_ints": (lambda: G - G, int),
    "mul_ints": (lambda: G * G, int),
}


@pytest.mark.parametrize("name", sorted(READOUT))
def test_readout_rule(name):
    build, kind = READOUT[name]
    assert {type(v) for v in cells(build()).tolist()} == {kind}


def test_mixed_cells_read_out_per_cell():
    # F holds ints and Fractions; + keeps an int only where both cells are ints
    got = (F + G).values.tolist()
    want = [a + b for a, b in zip(F.values.tolist(), G.values.tolist())]
    assert [type(v) for v in got] == [type(v) for v in want] and got == want


def test_zeroed_cells_read_out_as_int():
    tail = DyadicMartingale.from_function(F).tail(2)
    assert [type(v) for v in tail.terminal.coeffs[:4]] == [int] * 4
    assert {type(v) for v in tail.terminal.coeffs[4:]} == {Fraction}


MAX = 2**63 - 1


def read(result) -> list:
    return cells(result).tolist()


@pytest.mark.parametrize("excess, dtype", [(0, np.int64), (1, object)])
class TestInt64Promotion:
    """An operation whose bound passes 2^63 - 1 switches to Python-int numerators."""

    def test_add_sub(self, excess, dtype):
        x, y = 2**62, 2**62 - 1 + excess  # max|f| + max|g| = MAX + excess
        f = SampledFunction(1, [x, -3])
        total = f + SampledFunction(1, [y, 5])
        diff = f - SampledFunction(1, [-y, 5])
        assert numerators(total).dtype == numerators(diff).dtype == dtype
        assert read(total) == [x + y, 2] and read(diff) == [x + y, -8]

    def test_add_over_common_denominator(self, excess, dtype):
        x, y = 2**62, 2**62 - 1 + excess  # both numerators over the denominator 5
        total = SampledFunction(1, [Fraction(x, 5), 0]) + SampledFunction(1, [Fraction(y, 5), 1])
        assert numerators(total).dtype == dtype
        assert read(total) == [Fraction(x, 5) + Fraction(y, 5), 1]

    def test_scale(self, excess, dtype):
        x = MAX // 7 + excess  # 7 * (MAX // 7) = MAX
        f = SampledFunction(1, [x, -1])
        for c in (7, Fraction(7, 5)):
            assert numerators(f.scale(c)).dtype == dtype
            assert read(f.scale(c)) == [c * x, -c]

    def test_pointwise_product(self, excess, dtype):
        x = 3037000499 + excess  # 3037000499^2 < MAX < 3037000500^2
        f = SampledFunction(1, [x, -2])
        assert numerators(f * f).dtype == dtype
        assert read(f * f) == [x * x, 4]

    def test_fwht(self, excess, dtype):
        a, b = 2**62, -(2**62 - 1 + excess)  # |a| + |b| = MAX + excess
        spec = fwht(SampledFunction(1, [a, b]))
        assert numerators(spec).dtype == dtype
        assert read(spec) == [Fraction(a + b, 2), Fraction(a - b, 2)]

    def test_inverse_fwht(self, excess, dtype):
        a, b = 2**62, -(2**62 - 1 + excess)
        f = inverse_fwht(CoefficientSequence(1, "paley", [a, b]))
        assert numerators(f).dtype == dtype
        assert read(f) == [a + b, a - b]

    def test_fejer_mean(self, excess, dtype):
        # numerators c * (n - i) = (2 c0, c1): the product stays below MAX,
        # the butterfly's 2|c0| + |c1| is MAX + excess
        c0, c1 = 2**62 - 1, 1 + excess
        mean = fejer_mean(DyadicMartingale.from_paley_coeffs(1, [c0, c1]), System.PALEY, 2)
        assert numerators(mean).dtype == dtype
        assert read(mean) == [c0 + Fraction(c1, 2), c0 - Fraction(c1, 2)]

    def test_maximal(self, excess, dtype):
        a, b = 2**62, -(2**62 - 1 + excess)  # the butterfly's |a| + |b| = MAX + excess
        got = maximal(DyadicMartingale.from_paley_coeffs(1, [a, b]))
        assert numerators(got).dtype == dtype
        assert read(got) == [a, a - b]

    def test_square_function(self, excess, dtype):
        # the squares of sum |coefficient| over the blocks [0, 1), [1, 2), [2, 4)
        # and [4, 8) add up to MAX + excess
        a, b, c, d = [(3037000499, 76994, 671, 23), (2**31, 2**31, 0, 0)][excess]
        f = DyadicMartingale.from_paley_coeffs(3, [a, b, c, 0, d, 0, 0, 0])
        got = square_function_squared(f)
        assert numerators(got).dtype == dtype
        assert read(got) == [MAX + excess] * 8


def test_zero_over_a_denominator_past_int64():
    # every numerator is 0, so lowest terms divide them by the whole denominator
    f = SampledFunction(1, [Fraction(1, 2**70), 0])
    assert read(f - f) == [0, 0]
    m = DyadicMartingale.from_paley_coeffs(1, [0, Fraction(1, 2**70)])
    assert read(m.level(0)) == [0, 0]
    assert read(maximal(m)) == [Fraction(1, 2**70)] * 2
    # object numerators may share a factor past 2^63 - 1 with the denominator
    g = SampledFunction(1, [Fraction(1, 2), Fraction(1, 2**70)])
    assert read(g * SampledFunction(1, [Fraction(1, 2), 0])) == [Fraction(1, 4), 0]
    h = SampledFunction(1, [Fraction(2**70 + 1, 2**71), 0])
    assert read(h - SampledFunction(1, [Fraction(1, 2**71), 0])) == [Fraction(1, 2), 0]


def test_zero_operand_over_a_denominator_past_int64():
    # the all-zero operand is not scaled to the common denominator 2^70
    right = SampledFunction(1, [Fraction(1, 2**70), 0])
    total = SampledFunction(1, [0, 0]) + right
    assert numerators(total).dtype == np.int64
    assert total == right and read(total) == [Fraction(1, 2**70), 0]


def test_product_with_a_zero_operand_past_int64():
    # the product bound is 0, but the other operand's numerators stay past int64
    big, zero = SampledFunction(1, [2**70, Fraction(3**50, 2**70)]), SampledFunction(1, [0, 0])
    assert read(big * zero) == read(zero * big) == [0, 0]
    assert read(convolve(big, zero)) == read(convolve_by_sum(big, zero)) == [0, 0]


def test_to_float_rounds_each_cell_once():
    vals = [Fraction(2**53 + 1, 3), 2**53 + 1, -(2**60 + 3), Fraction(-(2**55) - 3, 7),
            Fraction(1, 3), 0, 2**62, Fraction(5, 2**60)]
    want = np.array([float(v) for v in vals])
    assert SampledFunction(3, vals).to_float().values.tobytes() == want.tobytes()
    small = [Fraction(v, 3) for v in range(-4, 4)]  # the vectorised division
    want = np.array([float(v) for v in small])
    assert SampledFunction(3, small).to_float().values.tobytes() == want.tobytes()
