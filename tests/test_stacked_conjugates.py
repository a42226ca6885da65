"""The stacked conjugation sweep against the per-point route.

`hardy._signs` gives the signs of many sign points as one matrix, and
one butterfly of the stacked signed spectra (`walsh._signed_sup_abs`,
`walsh._signed_square_sum`) folds all its rows.  Each row must equal
what `conjugate`, `terminal_function`, `maximal` and
`square_function_squared` give for its point one at a time, in value,
readout type and numerator dtype, and `_solved_shift` with the row's
terminal must decide what `conjugate_shift` decides.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (DyadicMartingale, GroupPoint, SampledFunction, conjugate, conjugate_shift,
                     maximal, square_function_squared, translate)
from dyadlab import experiments, hardy
from dyadlab.experiments import (random_decaying_martingale, random_exact_martingale,
                                 random_lacunary_martingale, verify_conjugate_translation)
from dyadlab.group import rademacher
from dyadlab.hardy import _signs, _solved_shift
from dyadlab.walsh import _signed_square_sum, _signed_sup_abs

INT64_MAX = (1 << 63) - 1


def same_cells(got: SampledFunction, want: SampledFunction) -> bool:
    """Equal numerator dtype, and float cells bitwise or exact cells equal in value and type."""
    if got._num.dtype != want._num.dtype:
        return False
    if not got.is_exact:
        return got.values.tobytes() == want.values.tobytes()
    a, b = got.values.tolist(), want.values.tolist()
    return a == b and [type(v) for v in a] == [type(v) for v in b]


def fraction_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    return DyadicMartingale.from_paley_coeffs(
        depth, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(1 << depth)])


def mixed_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    return DyadicMartingale.from_paley_coeffs(
        depth, [Fraction(rng.randint(-9, 9), 3) if rng.random() < 0.5 else rng.randint(-9, 9)
                for _ in range(1 << depth)])


def near_int64_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    """Coefficients within 2^8 of 2^63 - 1, either sign; every butterfly leaves int64."""
    return DyadicMartingale.from_paley_coeffs(
        depth, [rng.choice((1, -1)) * (INT64_MAX - rng.randrange(256))
                for _ in range(1 << depth)])


KINDS = {
    "int": random_exact_martingale,
    "lacunary": random_lacunary_martingale,
    "fraction": fraction_martingale,
    "mixed": mixed_martingale,
    "near_int64": near_int64_martingale,
    "float": random_decaying_martingale,
}


def conjugate_by_definition(f: DyadicMartingale, t: GroupPoint) -> DyadicMartingale:
    """Paley coefficient i times r_(bit_length(i))(t), read from the Rademacher function."""
    signed = [rademacher(i.bit_length(), t) * c for i, c in enumerate(f.terminal.coeffs)]
    return DyadicMartingale.from_paley_coeffs(f.depth, signed if f.is_exact else np.array(signed))


def sign_points(depth: int) -> list[GroupPoint]:
    return [GroupPoint(depth + 1, t) for t in range(1 << (depth + 1))]


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_row_matches_the_per_point_route(kind, depth):
    f = KINDS[kind](random.Random(100 * depth + len(kind)), depth)
    points = sign_points(depth)
    stack = _signs(f, points)
    maxima = list(_signed_sup_abs(f.terminal, stack))
    squares = list(_signed_square_sum(f.terminal, stack))
    assert len(stack) == len(maxima) == len(squares) == len(points)
    for t, signs, (terminal, peak), square in zip(points, stack, maxima, squares):
        assert np.array_equal(signs, _signs(f, [t])[0])
        g = conjugate(f, t)
        assert g.terminal == conjugate_by_definition(f, t).terminal
        assert same_cells(terminal, g.terminal_function())
        assert same_cells(peak, maximal(g))
        assert same_cells(square, square_function_squared(g))
        if f.is_exact:
            shift = _solved_shift(f, signs)
            matched = shift is not None and translate(f.terminal_function(), shift) == terminal
            assert conjugate_shift(f, t) == (shift if matched else None)


def test_lacunary_rows_all_translate():
    f = random_lacunary_martingale(random.Random(5), 6)
    stack = _signs(f, sign_points(6))
    for signs, (terminal, peak) in zip(stack, _signed_sup_abs(f.terminal, stack)):
        shift = _solved_shift(f, signs)
        assert translate(f.terminal_function(), shift) == terminal
        assert translate(maximal(f), shift) == peak


def test_near_int64_rows_widen_like_one_row():
    f = near_int64_martingale(random.Random(3), 4)
    (terminal, peak), = _signed_sup_abs(f.terminal, _signs(f, [GroupPoint(5, 9)]))
    assert terminal._num.dtype == peak._num.dtype == object
    assert maximal(conjugate(f, GroupPoint(5, 9)))._num.dtype == object


class TestOneRowBound:
    """Signs are +-1, so the stack widens on f's own one-row bound, never on its size."""

    def test_sup_row_at_the_int64_limit_stays_int64_in_64_rows(self):
        c = INT64_MAX // 32  # 32 cells of c: sum |c| is the one-row bound, just in int64
        f = DyadicMartingale.from_paley_coeffs(5, [c, -c] * 16)
        signs = _signs(f, sign_points(5))
        assert signs.shape == (64, 32)
        rows = list(_signed_sup_abs(f.terminal, signs))
        assert {r._num.dtype for row in rows for r in row} == {np.dtype(np.int64)}
        assert maximal(f)._num.dtype == np.int64
        for t, (terminal, peak) in zip(sign_points(5), rows):
            g = conjugate(f, t)
            assert terminal == g.terminal_function() and peak == maximal(g)

    def test_square_row_at_the_int64_limit_stays_int64_in_64_rows(self):
        # block sums 1, 1, 2, 4, 8, 16 times c: the squares add up to 342 c^2
        c = int(np.sqrt(INT64_MAX // 342))
        while 342 * (c + 1) ** 2 <= INT64_MAX:
            c += 1
        f = DyadicMartingale.from_paley_coeffs(5, [c] * 32)
        rows = list(_signed_square_sum(f.terminal, _signs(f, sign_points(5))))
        assert {row._num.dtype for row in rows} == {np.dtype(np.int64)}
        assert all(row == square_function_squared(f) for row in rows)

    def test_one_past_the_limit_widens(self):
        c = INT64_MAX // 32 + 1
        f = DyadicMartingale.from_paley_coeffs(5, [c] * 32)
        (terminal, peak), = _signed_sup_abs(f.terminal, _signs(f, [GroupPoint(6, 0)]))
        assert terminal._num.dtype == peak._num.dtype == object
        assert peak == maximal(f) and peak.values[0] == 32 * c


class TestChunks:
    @pytest.fixture
    def stacks(self, monkeypatch):
        """Record the rows of each sign matrix and of each stacked butterfly, by callee."""
        sizes = {}
        for name in ("_signs", "_signed_sup_abs", "_signed_square_sum"):
            real = getattr(experiments, name)

            def spy(f, rows, real=real, name=name):
                sizes.setdefault(name, []).append(len(rows))
                return real(f, rows)

            monkeypatch.setattr(experiments, name, spy)
        return sizes

    def test_one_chunk_per_martingale(self, stacks):
        verify_conjugate_translation(4, 2, seed=1)
        assert stacks == {name: [32] * 2
                          for name in ("_signs", "_signed_sup_abs", "_signed_square_sum")}

    def test_each_chunk_is_signed_once(self, stacks, monkeypatch):
        monkeypatch.setattr(experiments, "_STACK_CELLS", 3 << 4)
        verify_conjugate_translation(4, 2, seed=1)
        chunks = [3] * 10 + [2]  # 32 sign points in rows of 3
        assert stacks == {name: chunks * 2
                          for name in ("_signs", "_signed_sup_abs", "_signed_square_sum")}

    def test_depth_9_signs_two_chunks_in_under_40_mb(self, stacks):
        tracemalloc.start()
        try:
            assert verify_conjugate_translation(9, 1, seed=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacks["_signs"] == [1 << 9] * 2  # 2^10 points of 2^9 cells, 2^18 cells a chunk
        assert peak < 40 << 20

    @pytest.mark.parametrize("depth, count, seed", [(4, 2, 1), (3, 2, 0), (5, 3, 7)])
    def test_chunks_of_three_rows_give_the_same_report(self, stacks, monkeypatch,
                                                       depth, count, seed):
        whole = verify_conjugate_translation(depth, count, seed)
        stacks.clear()
        monkeypatch.setattr(experiments, "_STACK_CELLS", 3 << depth)
        chunked = verify_conjugate_translation(depth, count, seed)
        for sizes in stacks.values():
            assert max(sizes) == 3 and sum(sizes) == count << (depth + 1)
        assert (chunked.passed, chunked.witness, chunked.rows) == \
            (whole.passed, whole.witness, whole.rows)

    def test_chunked_rows_match_one_stack(self):
        f = random_exact_martingale(random.Random(9), 4)
        points = sign_points(4)
        for signed in (_signed_sup_abs, _signed_square_sum):
            whole = list(signed(f.terminal, _signs(f, points)))
            chunked = [row for first in range(0, 32, 3)
                       for row in signed(f.terminal, _signs(f, points[first:first + 3]))]
            assert len(chunked) == len(whole) == 32
            assert chunked == whole


def test_sweep_makes_no_per_point_calls(monkeypatch):
    """The per-point routes run once per martingale at most, not once per sign point,
    and no sign point reads a cell readout."""
    calls = {}

    def count(owner, name):
        real, key = getattr(owner, name), f"{owner.__name__}.{name}"

        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(DyadicMartingale, "terminal_function")

    def read(f, real=SampledFunction.values.fget):
        calls["SampledFunction.values"] = calls.get("SampledFunction.values", 0) + 1
        return real(f)

    monkeypatch.setattr(SampledFunction, "values", property(read))
    for name in ("conjugate", "maximal", "square_function_squared"):
        count(experiments, name)
        count(hardy, name)
    count(hardy, "conjugate_shift")
    per_depth = []
    for depth in (2, 5):  # 8 and 64 sign points per martingale
        calls.clear()
        assert verify_conjugate_translation(depth, 2, seed=0).passed
        per_depth.append(dict(calls))
    assert per_depth[0] == per_depth[1]
    # one lacunary and one dense martingale per trial, then the one norm-row conjugate
    assert {k: v for k, v in per_depth[0].items() if not k.startswith("dyadlab.hardy")} == {
        "DyadicMartingale.terminal_function": 2, "dyadlab.experiments.conjugate": 1,
        "dyadlab.experiments.maximal": 2, "dyadlab.experiments.square_function_squared": 2}
    assert "dyadlab.hardy.conjugate_shift" not in per_depth[0]
