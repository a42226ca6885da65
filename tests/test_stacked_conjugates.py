"""The stacked conjugation sweep against the per-point route.

`hardy._signs` gives the signs of many sign points as one matrix, and
one butterfly of the stacked signed spectra (`walsh._signed_sup_abs`,
`walsh._signed_square_sum`) folds all its rows into stacks (numerators, den)
of rows over one denominator.  Each row must equal what `conjugate`,
`terminal_function`, `maximal` and `square_function_squared` give for
its point one at a time, in value and numerator dtype, and
`SampledFunction._matches` must decide what `==` decides.  `hardy._shift_solver`
eliminates once per martingale and solves every row at once; the
per-point GF(2) elimination below (`solved_shift`) is its oracle, and
`conjugate_shift` is its one-row case.
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
from dyadlab.hardy import _shift_solver, _signs
from dyadlab.walsh import _Cells, _signed_square_sum, _signed_sup_abs

INT64_MAX = (1 << 63) - 1


def solved_shift(f: DyadicMartingale, signs: np.ndarray) -> GroupPoint | None:
    """The u with w_i(u) = signs[i] on every occupied Paley index i of f, if one exists.

    The per-point oracle: Gaussian elimination over GF(2) on Python ints,
    pivoting on the highest set bit, with each sign point's own right-hand side.
    """
    occupied = np.flatnonzero(f.terminal._nonzero())
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in zip(occupied.tolist(), (signs[occupied] < 0).tolist()):
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, rhs)
                break
            pmask, prhs = pivots[top]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                return None  # inconsistent: 0 = 1
    # masks only carry bits <= their pivot, so resolve low pivots first
    u = 0
    for top in sorted(pivots):
        mask, rhs = pivots[top]
        parity = ((mask & ~(1 << top)) & u).bit_count() & 1
        if parity ^ rhs:
            u |= 1 << top
    return GroupPoint(f.depth, u)


def row_of(rows: tuple, k: int) -> SampledFunction:
    """Row k of a stack (numerators, den) as a function, in lowest terms, reading out as
    Fractions (or floats)."""
    num, den = rows
    return SampledFunction._of(num.shape[-1].bit_length() - 1, num[k].copy(), den, True)


def same_cells(rows: tuple, k: int, want: SampledFunction) -> bool:
    """Row k has want's numerator dtype, and float cells bitwise or exact cells equal in value;
    `_matches` and `==` agree on it."""
    got = row_of(rows, k)
    if rows[0].dtype != want._num.dtype or not want._matches(rows)[k] or got != want:
        return False
    if not want.is_exact:
        return got.values.tobytes() == want.values.tobytes()
    return [Fraction(v) for v in got.values] == [Fraction(v) for v in want.values]


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
    assert np.array_equal(stack, _signs(f, np.arange(len(points))))
    terminals, peaks = _signed_sup_abs(f.terminal, stack)
    squares = _signed_square_sum(f.terminal, stack)
    assert len(stack) == len(terminals[0]) == len(peaks[0]) == len(squares[0]) == len(points)
    shifts = _shift_solver(f)(stack) if f.is_exact else None
    for k, (t, signs) in enumerate(zip(points, stack)):
        assert np.array_equal(signs, _signs(f, [t])[0])
        g = conjugate(f, t)
        assert g.terminal == conjugate_by_definition(f, t).terminal
        assert same_cells(terminals, k, g.terminal_function())
        assert same_cells(peaks, k, maximal(g))
        assert same_cells(squares, k, square_function_squared(g))
        if f.is_exact:
            shift = solved_shift(f, signs)
            assert shifts[k] == (-1 if shift is None else shift.index)
            matched = shift is not None and (translate(f.terminal_function(), shift)
                                             == g.terminal_function())
            assert conjugate_shift(f, t) == (shift if matched else None)


def test_lacunary_rows_all_translate():
    f = random_lacunary_martingale(random.Random(5), 6)
    stack = _signs(f, sign_points(6))
    terminals, peaks = _signed_sup_abs(f.terminal, stack)
    shifts = _shift_solver(f)(stack)
    assert (shifts >= 0).all()
    assert f.terminal_function()._matches(terminals, shifts).all()
    assert maximal(f)._matches(peaks, shifts).all()
    for k, signs in enumerate(stack):
        shift = solved_shift(f, signs)
        assert translate(f.terminal_function(), shift) == row_of(terminals, k)
        assert translate(maximal(f), shift) == row_of(peaks, k)


def test_near_int64_rows_widen_like_one_row():
    f = near_int64_martingale(random.Random(3), 4)
    terminals, peaks = _signed_sup_abs(f.terminal, _signs(f, [GroupPoint(5, 9)]))
    assert terminals[0].dtype == peaks[0].dtype == object
    assert maximal(conjugate(f, GroupPoint(5, 9)))._num.dtype == object


def with_constant(rng: random.Random, depth: int) -> DyadicMartingale:
    """A lacunary martingale plus a nonzero constant term: r_0(t) = -1 leaves no shift."""
    coeffs = list(random_lacunary_martingale(rng, depth).terminal.coeffs)
    coeffs[0] = rng.choice((-2, -1, 1, 2))
    return DyadicMartingale.from_paley_coeffs(depth, coeffs)


class TestShiftSolver:
    """`_shift_solver` against the per-point oracle `solved_shift` at every sign point."""

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("kind", ["lacunary", "dense", "constant"])
    def test_every_point_matches_the_oracle(self, kind, depth):
        build = {"lacunary": random_lacunary_martingale, "dense": random_exact_martingale,
                 "constant": with_constant}[kind]
        for seed in range(3):
            f = build(random.Random(10 * depth + seed), depth)
            stack = _signs(f, sign_points(depth))
            want = [solved_shift(f, signs) for signs in stack]
            assert _shift_solver(f)(stack).tolist() == [-1 if u is None else u.index for u in want]
            if kind == "lacunary":
                assert None not in want
            elif kind == "constant":  # exactly the points with r_0(t) = -1 have no shift
                assert [u is None for u in want] == [t & 1 == 1 for t in range(len(stack))]
            elif depth >= 2 and seed == 0:  # a dense spectrum has inconsistent rows
                assert None in want


class TestMatches:
    """`SampledFunction._matches` decides what `==` decides on each row and a translate."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_agrees_with_eq(self, kind):
        f = KINDS[kind](random.Random(len(kind)), 3)
        stack = _signs(f, sign_points(3))
        terminals, peaks = _signed_sup_abs(f.terminal, stack)
        shifts = np.arange(len(stack)) % 8
        for rows, h in ((terminals, f.terminal_function()), (peaks, maximal(f))):
            got = h._matches(rows, shifts)
            want = [row_of(rows, k) == translate(h, GroupPoint(3, int(u)))
                    for k, u in enumerate(shifts)]
            assert got.tolist() == want

    def test_values_over_a_common_denominator(self):
        h = SampledFunction(2, [Fraction(1, 3), Fraction(2, 3), 0, 1])
        rows = (np.array([[2, 4, 0, 6], [2, 4, 0, 5]]), 6)  # not in lowest terms
        assert h._matches(rows).tolist() == [True, False]
        assert h._matches(rows, np.array([1, 0])).tolist() == [False, False]
        assert h._matches((np.array([[4, 2, 6, 0]]), 6), np.array([1])).tolist() == [True]

    def test_mode_must_agree(self):
        h = SampledFunction(1, [1, 2])
        assert h._matches((np.array([[1.0, 2.0]]), 1)).tolist() == [False]
        assert h.to_float()._matches((np.array([[1.0, 2.0]]), 1)).tolist() == [True]


class TestOneRowBound:
    """Signs are +-1, so the stack widens on f's own one-row bound, never on its size."""

    def test_sup_row_at_the_int64_limit_stays_int64_in_64_rows(self):
        c = INT64_MAX // 32  # 32 cells of c: sum |c| is the one-row bound, just in int64
        f = DyadicMartingale.from_paley_coeffs(5, [c, -c] * 16)
        signs = _signs(f, sign_points(5))
        assert signs.shape == (64, 32)
        terminals, peaks = _signed_sup_abs(f.terminal, signs)
        assert terminals[0].dtype == peaks[0].dtype == np.int64
        assert maximal(f)._num.dtype == np.int64
        for k, t in enumerate(sign_points(5)):
            g = conjugate(f, t)
            assert row_of(terminals, k) == g.terminal_function() and row_of(peaks, k) == maximal(g)

    def test_square_row_at_the_int64_limit_stays_int64_in_64_rows(self):
        # block sums 1, 1, 2, 4, 8, 16 times c: the squares add up to 342 c^2
        c = int(np.sqrt(INT64_MAX // 342))
        while 342 * (c + 1) ** 2 <= INT64_MAX:
            c += 1
        f = DyadicMartingale.from_paley_coeffs(5, [c] * 32)
        squares = _signed_square_sum(f.terminal, _signs(f, sign_points(5)))
        assert squares[0].dtype == np.int64
        assert square_function_squared(f)._matches(squares).all()

    def test_one_past_the_limit_widens(self):
        c = INT64_MAX // 32 + 1
        f = DyadicMartingale.from_paley_coeffs(5, [c] * 32)
        terminals, peaks = _signed_sup_abs(f.terminal, _signs(f, [GroupPoint(6, 0)]))
        assert terminals[0].dtype == peaks[0].dtype == object
        assert row_of(peaks, 0) == maximal(f) and peaks[0][0, 0] == 32 * c


class TestChunks:
    SIGNED = ("_signs", "_signed_sup_abs", "_signed_square_sum", "solve")

    @pytest.fixture
    def stacks(self, monkeypatch):
        """Record the rows of each sign matrix, of each stacked butterfly and of each solve,
        by callee, and under `_shift_solver` one entry per solver built."""
        sizes = {}
        for name in self.SIGNED[:3]:
            real = getattr(experiments, name)

            def spy(f, rows, real=real, name=name):
                sizes.setdefault(name, []).append(len(rows))
                return real(f, rows)

            monkeypatch.setattr(experiments, name, spy)

        def solver(f, real=experiments._shift_solver):
            sizes.setdefault("_shift_solver", []).append(f.depth)
            solve = real(f)
            return lambda signs: sizes.setdefault("solve", []).append(len(signs)) or solve(signs)

        monkeypatch.setattr(experiments, "_shift_solver", solver)
        return sizes

    def test_one_chunk_per_martingale(self, stacks):
        verify_conjugate_translation(4, 2, seed=1)
        assert stacks == {"_shift_solver": [4] * 2, **{name: [32] * 2 for name in self.SIGNED}}

    def test_each_chunk_is_signed_once(self, stacks, monkeypatch):
        monkeypatch.setattr(experiments, "_STACK_CELLS", 3 << 4)
        verify_conjugate_translation(4, 2, seed=1)
        chunks = [3] * 10 + [2]  # 32 sign points in rows of 3, one elimination per martingale
        assert stacks == {"_shift_solver": [4] * 2, **{name: chunks * 2 for name in self.SIGNED}}

    def test_depth_9_signs_two_chunks_in_under_40_mb(self, stacks):
        tracemalloc.start()
        try:
            assert verify_conjugate_translation(9, 1, seed=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacks["_signs"] == [1 << 9] * 2  # 2^10 points of 2^9 cells, 2^18 cells a chunk
        assert stacks["_shift_solver"] == [9]
        assert peak < 40 << 20

    @pytest.mark.parametrize("depth, count, seed", [(4, 2, 1), (3, 2, 0), (5, 3, 7)])
    def test_chunks_of_three_rows_give_the_same_report(self, stacks, monkeypatch,
                                                       depth, count, seed):
        whole = verify_conjugate_translation(depth, count, seed)
        stacks.clear()
        monkeypatch.setattr(experiments, "_STACK_CELLS", 3 << depth)
        chunked = verify_conjugate_translation(depth, count, seed)
        assert stacks.pop("_shift_solver") == [depth] * count
        for sizes in stacks.values():
            assert max(sizes) == 3 and sum(sizes) == count << (depth + 1)
        assert (chunked.passed, chunked.witness, chunked.rows) == \
            (whole.passed, whole.witness, whole.rows)

    def test_chunked_rows_match_one_stack(self):
        f = random_exact_martingale(random.Random(9), 4)
        points = sign_points(4)
        chunks = [_signs(f, points[first:first + 3]) for first in range(0, 32, 3)]
        solve = _shift_solver(f)
        assert np.array_equal(np.concatenate([solve(c) for c in chunks]), solve(_signs(f, points)))
        whole = (*_signed_sup_abs(f.terminal, _signs(f, points)),
                 _signed_square_sum(f.terminal, _signs(f, points)))
        parts = zip(*[(*_signed_sup_abs(f.terminal, c), _signed_square_sum(f.terminal, c))
                      for c in chunks])
        for (num, den), pieces in zip(whole, parts):
            assert len(num) == 32 and {p[1] for p in pieces} == {den}
            assert np.array_equal(np.concatenate([p[0] for p in pieces]), num)


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


def test_sweep_stores_no_cells_per_sign_point(monkeypatch):
    """No sign point's row becomes a function: the sweep stores as many cell objects with
    8 sign points per martingale as with 64."""
    stores = []
    real = _Cells._store

    def store(self, *args, **kwargs):
        stores.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(_Cells, "_store", store)
    counts = []
    for depth in (2, 5):  # 8 and 64 sign points per martingale
        stores.clear()
        assert verify_conjugate_translation(depth, 2, seed=0).passed
        counts.append(len(stores))
    assert counts[0] == counts[1]
