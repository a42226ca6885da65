"""Group arithmetic, intervals, and the coordinate reversal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (DyadicInterval, GroupPoint, JInterval, group_add,
                     interval_indices, msb, rademacher, tau, tau_index, tau_permutation)


class TestGroupPoint:
    def test_coords_index_agree(self):
        x = GroupPoint.from_coords([1, 0, 1, 1])
        assert x.index == 0b1101
        assert x.coords == (1, 0, 1, 1)
        assert GroupPoint(4, 0b1101).coords == (1, 0, 1, 1)

    def test_unit_and_zero(self):
        assert GroupPoint.unit(2, 4).coords == (0, 0, 1, 0)
        assert GroupPoint.zero(3).index == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            GroupPoint(2, 4)
        with pytest.raises(ValueError):
            GroupPoint.from_coords([2])


class TestGroupAdd:
    def test_self_inverse(self):
        for j in range(8):
            x = GroupPoint(3, j)
            assert group_add(x, x) == GroupPoint.zero(3)

    def test_coordinatewise(self):
        x = GroupPoint.from_coords([1, 0, 0])
        y = GroupPoint.from_coords([0, 1, 0])
        assert group_add(x, y).coords == (1, 1, 0)

    def test_identity(self):
        y = GroupPoint(3, 5)
        assert group_add(GroupPoint.zero(3), y) == y
        assert (GroupPoint.zero(3) + y) == y

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError, match="resolution mismatch"):
            group_add(GroupPoint(3, 1), GroupPoint(4, 1))

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_group_laws(self, a, b, c):
        N = 8
        x, y, z = (GroupPoint(N, v) for v in (a, b, c))
        assert group_add(x, y) == group_add(y, x)
        assert group_add(group_add(x, y), z) == group_add(x, group_add(y, z))
        assert group_add(x, x).index == 0


class TestRademacher:
    def test_signs(self):
        x = GroupPoint.from_coords([0, 1, 0])
        assert rademacher(0, x) == 1
        assert rademacher(1, x) == -1

    def test_unit_point(self):
        assert rademacher(0, GroupPoint.unit(0, 3)) == -1

    def test_out_of_resolution(self):
        with pytest.raises(ValueError):
            rademacher(3, GroupPoint(3, 0))


class TestTau:
    def test_small_widths_identity(self):
        x = GroupPoint(5, 0b10110)
        assert tau(0, x) == x
        assert tau(1, x) == x

    def test_reverses_prefix(self):
        assert tau(2, GroupPoint.from_coords([1, 0, 1])).coords == (0, 1, 1)
        assert tau(3, GroupPoint.from_coords([1, 0, 0, 1])).coords == (0, 0, 1, 1)

    def test_width_error(self):
        with pytest.raises(ValueError):
            tau(4, GroupPoint(3, 0))

    @settings(max_examples=60)
    @given(st.integers(0, 4095), st.integers(0, 12))
    def test_involution_exhaustive_feel(self, j, A):
        x = GroupPoint(12, j)
        assert tau(A, tau(A, x)) == x

    def test_permutation_matches_index_form(self):
        for N in range(7):
            for A in range(N + 1):
                perm = tau_permutation(A, N)
                assert perm.tolist() == [tau_index(A, j) for j in range(1 << N)]

    def test_permutation_width_error(self):
        with pytest.raises(ValueError):
            tau_permutation(4, 3)

    def test_involution_exhaustive_small(self):
        for A in range(7):
            seen = set()
            for j in range(64):
                image = tau_index(A, j)
                assert tau_index(A, image) == j
                seen.add(image)
            assert len(seen) == 64  # bijection preserves counting measure


class TestMsb:
    @pytest.mark.parametrize("n,expected", [(1, 0), (5, 2), (16, 4), (341, 8)])
    def test_values(self, n, expected):
        assert msb(n) == expected

    def test_zero_undefined(self):
        with pytest.raises(ValueError):
            msb(0)


class TestIntervals:
    def test_full_group(self):
        interval = DyadicInterval.at_zero(0, 3)
        assert interval.indices(3) == list(range(8))
        assert interval.measure == 1

    def test_singleton(self):
        x = GroupPoint(3, 5)
        assert DyadicInterval(3, x).indices(3) == [5]

    def test_bit_convention(self):
        # I_1(0) at N=2 holds the points with x_0 = 0
        assert DyadicInterval.at_zero(1, 2).indices(2) == [0, 2]

    def test_measure_halves(self):
        for n in range(5):
            a = DyadicInterval.at_zero(n, 6).measure
            b = DyadicInterval.at_zero(n + 1, 6).measure
            assert a == 2 * b
            assert a == Fraction(1, 1 << n)

    def test_membership(self):
        interval = DyadicInterval(2, GroupPoint.from_coords([1, 0, 0]))
        assert interval.contains(GroupPoint.from_coords([1, 0, 1]))
        assert not interval.contains(GroupPoint.from_coords([1, 1, 1]))

    def test_index_count(self):
        interval = DyadicInterval(2, GroupPoint(5, 0b00001))
        idx = interval.indices(5)
        assert len(idx) == 1 << 3
        assert idx == sorted(idx)
        assert all(j & 0b11 == 0b01 for j in idx)

    def test_rank_overflow(self):
        with pytest.raises(ValueError):
            interval_indices(DyadicInterval.at_zero(4, 4), 3)


class TestCells:
    def test_rank_zero_is_every_cell(self):
        assert DyadicInterval.at_zero(0, 3).cells(3) == slice(0, 8, 1)

    def test_rank_equal_resolution_is_one_cell(self):
        cells = DyadicInterval(3, GroupPoint(3, 5)).cells(3)
        assert cells == slice(5, 8, 8)
        assert list(range(8)[cells]) == [5]

    def test_anchor_bits_above_rank_ignored(self):
        assert DyadicInterval(2, GroupPoint(5, 0b10101)).cells(5) == slice(0b01, 32, 4)

    def test_anchor_resolution_differs_from_sampling(self):
        x = GroupPoint(3, 0b110)
        assert DyadicInterval(2, x).cells(6) == slice(0b10, 64, 4)
        assert DyadicInterval(3, x).cells(4) == slice(0b110, 16, 8)

    def test_rank_beyond_resolution_raises(self):
        with pytest.raises(ValueError, match="interval rank 4 exceeds resolution 3"):
            DyadicInterval.at_zero(4, 4).cells(3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 63), st.integers(0, 3))
    def test_cells_are_the_members(self, rank, anchor, extra):
        interval = DyadicInterval(rank, GroupPoint(6, anchor))
        N = rank + extra
        members = [j for j in range(1 << N) if interval.contains(GroupPoint(N, j))]
        assert list(range(1 << N)[interval.cells(N)]) == members
        assert interval_indices(interval, N) == members


class TestJInterval:
    def test_two_spikes(self):
        J = JInterval(N=6, m=1, l=4)
        assert J.anchor_index == (1 << 1) | (1 << 4)
        assert J.contains(GroupPoint(6, J.anchor_index))
        assert not J.contains(GroupPoint(6, 1 << 4))

    def test_m_minus_one_drops_constraint(self):
        J = JInterval(N=4, m=-1, l=2)
        assert J.anchor_index == 1 << 2
        assert J.as_interval().rank == 4

    def test_m_equal_l_degenerates(self):
        assert JInterval(N=4, m=2, l=2).anchor_index == 1 << 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            JInterval(N=4, m=3, l=2)
        with pytest.raises(ValueError):
            JInterval(N=4, m=-2, l=2)
        with pytest.raises(ValueError):
            JInterval(N=4, m=0, l=4)
