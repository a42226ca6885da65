"""The stacked Fejer means of one dyadic block against the per-order route.

`walsh._fejer_rows` weights one Paley head by the multipliers n - i of
every order n in a column of one head size 2^r and butterflies the stack
once, returning it as one array: float rows are head * (w / n), exact rows
the numerators of n sigma_n over the spectrum's own denominator.
`fejer_mean` is its one-row case, tiled.  Each stacked row must equal that
one-row route for its order alone, float rows bit for bit, and the one-row
route must give `fejer_mean` its values and numerator dtype.  `_equal_rows`
checks the partial-sum identity on a stack over one common denominator.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import DyadicMartingale, SampledFunction, System, fejer_mean, s2n
from dyadlab import experiments, walsh
from dyadlab.experiments import (random_decaying_martingale, random_exact_martingale,
                                 verify_fejer_partial_identity)
from dyadlab.walsh import (CoefficientSequence, _butterflied, _equal_rows, _fejer_rows,
                           _fejer_spectrum, _synthesis)

INT64_MAX = (1 << 63) - 1
SYSTEMS = (System.PALEY, System.KACZMARZ)


def fraction_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    return DyadicMartingale.from_paley_coeffs(
        depth, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 12))) if rng.random() < 0.6
                else rng.randint(-9, 9) for _ in range(1 << depth)])


KINDS = {
    "int": random_exact_martingale,
    "fraction": fraction_martingale,
    "float": random_decaying_martingale,
}


def block_orders(m: int) -> np.ndarray:
    """The orders 2^m < n <= 2^(m+1), which share the head 2^(m+1), as a column."""
    return np.arange((1 << m) + 1, (2 << m) + 1)[:, None]


def check_stack(f: DyadicMartingale, system: System, orders: np.ndarray) -> np.ndarray:
    """The stack, after checking each row against its order alone and against `fejer_mean`."""
    spec = f.terminal
    rows = _fejer_rows(spec, system, orders)
    assert rows.shape == (len(orders), 1 << (orders.item(-1) - 1).bit_length())
    for n, row in zip(orders.ravel().tolist(), rows):
        alone, mean = _fejer_rows(spec, system, n), fejer_mean(f, system, n)
        assert alone.shape == row.shape and alone.dtype == mean._num.dtype, (system, n)
        if not spec.is_exact:
            assert row.tobytes() == alone.tobytes(), (system, n)
            assert _synthesis(row, f.depth).tobytes() == mean.values.tobytes(), (system, n)
            continue
        assert row.tolist() == alone.tolist(), (system, n)
        cells = [Fraction(v, spec._den * n) for v in _synthesis(row, f.depth).tolist()]
        assert mean.values.tolist() == cells, (system, n)
        assert all(type(v) is Fraction for v in mean.values.tolist())
    return rows


@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
def test_every_row_matches_the_per_order_route(system, kind, depth):
    f = KINDS[kind](random.Random(10 * depth + len(kind)), depth)
    for m in range(depth):
        rows = check_stack(f, system, block_orders(m))
        if kind == "float":  # head * (w / n), one order at a time, bit for bit
            spec = f.terminal
            for n, row in zip(block_orders(m).ravel().tolist(), rows):
                w = _fejer_spectrum(system, n)
                want = _butterflied(spec._num[:w.size] * (w / n))
                assert row.tobytes() == want.tobytes()


def test_one_butterfly_per_stack(monkeypatch):
    shapes = []
    stages = walsh._butterfly_stages

    def counted(arr):
        shapes.append(arr.shape)
        return stages(arr)

    monkeypatch.setattr(walsh, "_butterfly_stages", counted)
    f = random_exact_martingale(random.Random(4), 6)
    for m in range(6):
        _fejer_rows(f.terminal, System.KACZMARZ, block_orders(m))
    # a matrix with a row per order, one order included
    assert shapes == [(1 << m, 2 << m) for m in range(6)]


class TestInt64Edge:
    """Each order alone keeps the dtype of the full-width route on both sides of the int64
    edge, and the stack, widened once for all its rows, holds the same values."""

    @staticmethod
    def edge_martingale(excess: int, sign: int = 1) -> DyadicMartingale:
        # order 8 keeps all 8 cells, c_7 with weight 1: sum |c (8 - i)| = 8a + b = MAX + excess,
        # while every smaller order drops c_7; the four rows together are past int64
        a = INT64_MAX // 8
        b = INT64_MAX - 8 * a + excess
        return DyadicMartingale.from_paley_coeffs(3, [sign * a, 0, 0, 0, 0, 0, 0, -sign * b])

    @staticmethod
    def dtypes(f: DyadicMartingale, system: System) -> list[np.dtype]:
        return [fejer_mean(f, system, n)._num.dtype for n in block_orders(2).ravel().tolist()]

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_row_at_int64_max_stays_int64(self, system, sign):
        f = self.edge_martingale(0, sign)
        rows = check_stack(f, system, block_orders(2))
        assert self.dtypes(f, system) == [np.dtype(np.int64)] * 4
        assert rows.dtype == np.dtype(object)  # the stack's own sum of |c w| is past int64

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_row_one_past_widens_alone(self, system, sign):
        f = self.edge_martingale(1, sign)
        check_stack(f, system, block_orders(2))
        assert self.dtypes(f, system) == [np.dtype(np.int64)] * 3 + [np.dtype(object)]
        assert fejer_mean(f, system, 8).values[0] == Fraction(8 * (INT64_MAX // 8) * sign, 8) + \
            Fraction(-sign * (INT64_MAX - 8 * (INT64_MAX // 8) + 1), 8)

    def test_product_past_int64_widens_though_its_sum_fits(self):
        # c_7 weighs 1 in order 8, but max|c| * 8 is past int64, as the product bound sees it
        f = DyadicMartingale.from_paley_coeffs(3, [1, 0, 0, 0, 0, 0, 0, INT64_MAX // 4])
        check_stack(f, System.PALEY, block_orders(2))
        assert self.dtypes(f, System.PALEY) == [np.dtype(np.int64)] * 3 + [np.dtype(object)]

    def test_object_spectrum_stays_object(self):
        f = DyadicMartingale.from_paley_coeffs(2, [2**70, 1, -1, 3])
        rows = check_stack(f, System.KACZMARZ, block_orders(1))
        assert rows.dtype == np.dtype(object)
        assert {fejer_mean(f, System.KACZMARZ, n)._num.dtype for n in (3, 4)} == {
            np.dtype(object)}


class TestEqualRows:
    """Stacks of n sigma_n numerators over the spectrum's denominator, against n base + t step."""

    def test_identity_rows_hold_and_a_changed_cell_fails_its_row_only(self):
        f = random_exact_martingale(random.Random(2), 5)
        term, m = f.terminal_function(), 3
        smf = s2n(f, m)
        inner = s2n(fejer_mean(f, System.KACZMARZ, 1 << m) - term, m)
        n, spec = block_orders(m), walsh.fwht(smf)
        rows = _fejer_rows(spec, System.KACZMARZ, n)
        assert _equal_rows(rows, spec, n, smf, inner, 1 << m) == [True] * 8
        rows[2, 5] += 1  # n sigma_n of order 11 one part in the denominator too large at cell 5
        assert _equal_rows(rows, spec, n, smf, inner, 1 << m) == [True, True, False] + [True] * 5

    def test_scaled_numerators_widen_before_they_wrap(self):
        # over d = 4, row 1 + 2^62 scales to 2^64 + 4, which int64 would wrap to 4, the right
        # side's n base = 4 * 1/4 over d: only the widened comparison tells them apart
        spec = CoefficientSequence(0, System.PALEY, [7])
        base, step = SampledFunction(0, [Fraction(1, 4)]), SampledFunction(0, [0])
        rows = np.array([[1], [1 + 2**62]])
        assert _equal_rows(rows, spec, np.array([[4], [4]]), base, step, 1) == [True, False]
        # n base = 4 (2^62 + 1) = 2^64 + 4 on the right, which int64 would wrap to 4
        base = SampledFunction(0, [2**62 + 1])
        rows = np.array([[4], [2**64 + 4]], dtype=object)
        assert _equal_rows(rows, spec, np.array([[4], [4]]), base, step, 1) == [False, True]

    def test_numerators_past_int64_compare_exactly(self):
        big = 2**62 + 1
        spec = CoefficientSequence(1, System.PALEY, [Fraction(1, 15), 0])
        base = SampledFunction(1, [Fraction(big, 3), -big])
        step = SampledFunction(1, [big, Fraction(1, 5)])
        n, t = np.array([[2], [3]]), 5
        rows = np.array([[int(15 * (k * b + t * s)) for b, s in zip(base.values, step.values)]
                         for k in (2, 3)], dtype=object)
        assert _equal_rows(rows, spec, n, base, step, t) == [True, True]
        rows[1, 1] += 1
        assert _equal_rows(rows, spec, n, base, step, t) == [True, False]


def test_identity_verdicts_follow_the_stack_rows(monkeypatch):
    """A row broken in a later stack stops the scan there, with the rows before it counted."""
    real = experiments._fejer_rows
    calls = []

    def broken(spec, system, n):
        calls.append(n.ravel().tolist())
        rows = real(spec, system, n)
        if len(calls) == 3:  # trial 0's m = 2: orders 5..8; order 7's row comes out one too large
            rows = rows.copy()
            rows[2] += 1
        return rows

    monkeypatch.setattr(experiments, "_fejer_rows", broken)
    report = verify_fejer_partial_identity(4, 2, seed=3)
    assert report.witness == {"checked": 1 + 2 + 3, "first_failure": {"trial": 0, "m": 2, "n": 7}}
    assert calls == [[2], [3, 4], [5, 6, 7, 8]]


def test_stores_per_identity_pass_do_not_grow_with_the_orders(monkeypatch):
    """Pass m checks 2^m orders as one array, so it wraps as many cells as pass m - 1."""
    real, calls = walsh._Cells._store, [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(walsh._Cells, "_store", counted)
    totals = []
    for m_max in range(6):
        calls[0] = 0
        assert verify_fejer_partial_identity(7, 1, 0, m_max=m_max).passed
        totals.append(calls[0])
    steps = {b - a for a, b in zip(totals, totals[1:])}
    assert len(steps) == 1, totals
