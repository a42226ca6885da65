"""The stacked Fejer means of one dyadic block against the per-order route.

`walsh._fejer_rows` weights one Paley head by the multipliers n - i of
every order n of one head size 2^r and butterflies the stack once;
`fejer_mean` is its one-row case.  Each stacked row must equal what
`fejer_mean` gives for its order alone, in value, readout type and
numerator dtype, and float rows must equal today's expression
head * (w / n), butterflied and tiled, bit for bit.  `_equal_rows` checks
the partial-sum identity on the stack's integer numerators.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import DyadicMartingale, SampledFunction, System, fejer_mean, s2n
from dyadlab import experiments, walsh
from dyadlab.experiments import (random_decaying_martingale, random_exact_martingale,
                                 verify_fejer_partial_identity)
from dyadlab.walsh import _butterflied, _equal_rows, _fejer_rows, _fejer_spectrum, _synthesis

INT64_MAX = (1 << 63) - 1
SYSTEMS = (System.PALEY, System.KACZMARZ)


def same_cells(got: SampledFunction, want: SampledFunction) -> bool:
    """Equal numerator dtype, and float cells bitwise or exact cells equal in value and type."""
    if got._num.dtype != want._num.dtype or got.resolution != want.resolution:
        return False
    if not got.is_exact:
        return got.values.tobytes() == want.values.tobytes()
    a, b = got.values.tolist(), want.values.tolist()
    return a == b and [type(v) for v in a] == [type(v) for v in b]


def fraction_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    return DyadicMartingale.from_paley_coeffs(
        depth, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 12))) if rng.random() < 0.6
                else rng.randint(-9, 9) for _ in range(1 << depth)])


KINDS = {
    "int": random_exact_martingale,
    "fraction": fraction_martingale,
    "float": random_decaying_martingale,
}


def block_orders(m: int) -> range:
    """The orders 2^m < n <= 2^(m+1), which share the head 2^(m+1)."""
    return range((1 << m) + 1, (2 << m) + 1)


def check_stack(f: DyadicMartingale, system: System, orders) -> list[SampledFunction]:
    rows = _fejer_rows(f.terminal, system, orders)
    assert len(rows) == len(orders)
    for n, row in zip(orders, rows):
        assert same_cells(row, fejer_mean(f, system, n)), (system, n)
    return rows


@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
def test_every_row_matches_the_per_order_route(system, kind, depth):
    f = KINDS[kind](random.Random(10 * depth + len(kind)), depth)
    for m in range(depth):
        rows = check_stack(f, system, block_orders(m))
        if kind == "float":  # today's expression, one order at a time, bit for bit
            spec = f.terminal
            for n, row in zip(block_orders(m), rows):
                w = _fejer_spectrum(system, n)
                want = _synthesis(_butterflied(spec._num[:w.size] * (w / n)), depth)
                assert row.values.tobytes() == want.tobytes()


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
    # one order runs as a 1-D head, more as a matrix with a row per order
    assert shapes == [(2,)] + [(1 << m, 2 << m) for m in range(1, 6)]


class TestInt64Edge:
    """Rows of one stack keep the dtype they have alone, on both sides of the int64 edge."""

    @staticmethod
    def edge_martingale(excess: int, sign: int = 1) -> DyadicMartingale:
        # order 8 keeps all 8 cells, c_7 with weight 1: sum |c (8 - i)| = 8a + b = MAX + excess,
        # while every smaller order drops c_7 and a * 36 is past int64 for the whole stack
        a = INT64_MAX // 8
        b = INT64_MAX - 8 * a + excess
        return DyadicMartingale.from_paley_coeffs(3, [sign * a, 0, 0, 0, 0, 0, 0, -sign * b])

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_row_at_int64_max_stays_int64(self, system, sign):
        rows = check_stack(self.edge_martingale(0, sign), system, block_orders(2))
        assert [row._num.dtype for row in rows] == [np.dtype(np.int64)] * 4

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_row_one_past_widens_alone(self, system, sign):
        rows = check_stack(self.edge_martingale(1, sign), system, block_orders(2))
        assert [row._num.dtype for row in rows] == [np.dtype(np.int64)] * 3 + [np.dtype(object)]
        assert rows[-1].values[0] == Fraction(8 * (INT64_MAX // 8) * sign, 8) + \
            Fraction(-sign * (INT64_MAX - 8 * (INT64_MAX // 8) + 1), 8)

    def test_product_past_int64_widens_though_its_sum_fits(self):
        # c_7 weighs 1 in order 8, but max|c| * 8 is past int64, as the product bound sees it
        c = INT64_MAX // 4
        f = DyadicMartingale.from_paley_coeffs(3, [1, 0, 0, 0, 0, 0, 0, c])
        rows = check_stack(f, System.PALEY, block_orders(2))
        assert [row._num.dtype for row in rows] == [np.dtype(np.int64)] * 3 + [np.dtype(object)]

    def test_object_spectrum_stays_object(self):
        f = DyadicMartingale.from_paley_coeffs(2, [2**70, 1, -1, 3])
        rows = check_stack(f, System.KACZMARZ, block_orders(1))
        assert {row._num.dtype for row in rows} == {np.dtype(object)}


class TestEqualRows:
    def test_identity_rows_hold_and_a_changed_cell_fails_its_row_only(self):
        f = random_exact_martingale(random.Random(2), 5)
        term, m = f.terminal_function(), 3
        smf = s2n(f, m)
        inner = s2n(fejer_mean(f, System.KACZMARZ, 1 << m) - term, m)
        orders = block_orders(m)
        ts = [Fraction(1 << m, n) for n in orders]
        rows = _fejer_rows(walsh.fwht(smf), System.KACZMARZ, orders)
        assert _equal_rows(rows, smf, inner, ts) == [True] * 8
        bumped = [0] * 32
        bumped[5] = Fraction(1, 7)
        rows[2] = rows[2] + SampledFunction(5, bumped)
        assert _equal_rows(rows, smf, inner, ts) == [True, True, False] + [True] * 5

    def test_scaled_numerators_widen_before_they_wrap(self):
        # row 1 + 2^62 scales by d / d_row = 4 to 2^64 + 4, which int64 would wrap to 4,
        # the right side's 0 * 4 + 4: only the widened comparison tells them apart
        base, step = SampledFunction(0, [0]), SampledFunction(0, [4])
        rows = [SampledFunction(0, [1]), SampledFunction(0, [1 + 2**62])]
        assert _equal_rows(rows, base, step, [Fraction(1, 4)] * 2) == [True, False]

    def test_numerators_past_int64_compare_exactly(self):
        big = 2**62 + 1
        base = SampledFunction(1, [Fraction(big, 3), -big])
        step = SampledFunction(1, [big, Fraction(1, 5)])
        ts = [Fraction(7, 2), Fraction(-3, 11)]
        rows = [base + step.scale(t) for t in ts]
        assert _equal_rows(rows, base, step, ts) == [True, True]
        rows[1] = rows[1] + SampledFunction(1, [0, Fraction(1, 2**64)])
        assert _equal_rows(rows, base, step, ts) == [True, False]


def test_identity_verdicts_follow_the_stack_rows(monkeypatch):
    """A row broken in a later stack stops the scan there, with the rows before it counted."""
    real = experiments._fejer_rows
    calls = []

    def broken(spec, system, orders):
        calls.append(list(orders))
        rows = real(spec, system, orders)
        if len(calls) == 3:  # trial 0's m = 2: orders 5..8; order 7 comes out one too large
            rows[2] = rows[2] + SampledFunction.constant(1, rows[2].resolution)
        return rows

    monkeypatch.setattr(experiments, "_fejer_rows", broken)
    report = verify_fejer_partial_identity(4, 2, seed=3)
    assert report.witness == {"checked": 1 + 2 + 3, "first_failure": {"trial": 0, "m": 2, "n": 7}}
    assert calls == [[2], [3, 4], [5, 6, 7, 8]]
