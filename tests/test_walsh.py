"""Character systems, the block bit-reversal, transforms, and kernels."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (DyadicInterval, GroupPoint, SampledFunction, System,
                     convolve, convolve_by_sum, dirichlet, fejer, fejer_by_average,
                     fejer_numerators, fwht, inverse_fwht, kaczmarz, kaczmarz_paley_index,
                     kaczmarz_samples, partial_sum, sigma_permutation,
                     walsh_paley, walsh_paley_samples)
from dyadlab import walsh
from dyadlab.walsh import _fejer_spectrum


class TestPaley:
    def test_w0_constant(self):
        assert all(walsh_paley(0, GroupPoint(3, j)) == 1 for j in range(8))

    def test_w1_is_r0(self):
        for j in range(8):
            assert walsh_paley(1, GroupPoint(3, j)) == (-1) ** (j & 1)

    def test_w3_product(self):
        # r_0 * r_1 at (1,1,0) gives (-1)(-1) = +1
        assert walsh_paley(3, GroupPoint.from_coords([1, 1, 0])) == 1

    def test_spectrum_overflow(self):
        with pytest.raises(ValueError):
            walsh_paley(8, GroupPoint(3, 0))

    def test_samples_match_pointwise(self):
        for n in range(16):
            row = walsh_paley_samples(n, 4)
            assert row == [walsh_paley(n, GroupPoint(4, j)) for j in range(16)]

    def test_character_law_exhaustive(self):
        N = 8
        for n in (0, 1, 5, 37, 200, 255):
            row = walsh_paley_samples(n, N)
            for x in range(0, 256, 7):
                for h in range(0, 256, 11):
                    assert row[x ^ h] == row[x] * row[h]


class TestKaczmarz:
    def test_kappa0(self):
        assert all(kaczmarz(0, GroupPoint(3, j)) == 1 for j in range(8))

    def test_matches_paley_low_indices(self):
        for n in range(4):
            for j in range(8):
                x = GroupPoint(3, j)
                assert kaczmarz(n, x) == walsh_paley(n, x)

    @pytest.mark.parametrize("N", [0, 1, 5])
    def test_samples_match_the_pointwise_product(self, N):
        for n in range(1 << N):
            row = kaczmarz_samples(n, N)
            assert all(type(v) is int for v in row)
            assert row == [kaczmarz(n, GroupPoint(N, j)) for j in range(1 << N)]

    def test_rows_build_no_int64_coordinate_matrix(self):
        # the N int8 coordinate rows take N 2^N bytes; as an int64 N x 2^N matrix they took
        # 8 times that (168 MB at N = 20) before the cast to int8
        N, n = 20, (1 << 19) + 12345
        tracemalloc.start()
        try:
            row = kaczmarz_samples(n, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (N + 8) << N
        cells = [0, 1, 12345, (1 << 19) + 7, (1 << N) - 1]
        assert [row[j] for j in cells] == [kaczmarz(n, GroupPoint(N, j)) for j in cells]

    def test_kappa5_is_w6(self):
        for j in range(8):
            x = GroupPoint(3, j)
            assert kaczmarz(5, x) == walsh_paley(6, x)

    def test_index_multiplication_fails_for_kaczmarz(self):
        # kappa_4 * kappa_5 = w_4 w_6 = w_2 = kappa_2, but 4 XOR 5 = 1:
        # the enumeration n -> kappa_n is not multiplicative although each
        # kappa_n is itself a character.
        N = 3
        k4 = kaczmarz_samples(4, N)
        k5 = kaczmarz_samples(5, N)
        product = [a * b for a, b in zip(k4, k5)]
        assert product == kaczmarz_samples(2, N)
        assert product != kaczmarz_samples(4 ^ 5, N)
        # each kappa_n does satisfy the translation law
        for x in range(8):
            for h in range(8):
                assert k5[x ^ h] == k5[x] * k5[h]


class TestSigma:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 2), (3, 3),
                                            (5, 6), (6, 5), (7, 7)])
    def test_values(self, n, expected):
        assert kaczmarz_paley_index(n) == expected

    def test_pointwise_equivalence_exhaustive(self):
        N = 6
        for n in range(1 << N):
            assert kaczmarz_samples(n, N) == \
                walsh_paley_samples(kaczmarz_paley_index(n), N)

    def test_permutation_matches_index_form(self):
        for N in range(11):
            sigma = sigma_permutation(N)
            assert sigma.dtype == np.int64 and not sigma.flags.writeable
            assert sigma.tolist() == [kaczmarz_paley_index(n) for n in range(1 << N)]

    def test_block_involution(self):
        sigma = sigma_permutation(8)
        for n in range(1, 256):
            top = n.bit_length() - 1
            s = sigma[n]
            assert (1 << top) <= s < (1 << (top + 1))  # block preserved
            assert sigma[s] == n  # involution on the block

    def test_blocks_bijective(self):
        sigma = sigma_permutation(8)
        for top in range(8):
            block = range(1 << top, 1 << (top + 1))
            assert sorted(sigma[n] for n in block) == list(block)


class TestFwht:
    def test_constant(self):
        f = SampledFunction.constant(Fraction(7, 2), 3)
        coeffs = fwht(f)
        assert coeffs[0] == Fraction(7, 2)
        assert all(c == 0 for c in coeffs.coeffs[1:])

    def test_character_unit_mass(self):
        for m in (0, 3, 9, 15):
            f = SampledFunction(4, walsh_paley_samples(m, 4))
            coeffs = fwht(f)
            assert coeffs[m] == 1
            assert sum(1 for c in coeffs.coeffs if c != 0) == 1

    def test_kaczmarz_ordering_unit_mass(self):
        f = SampledFunction(4, kaczmarz_samples(9, 4))
        coeffs = fwht(f, System.KACZMARZ)
        assert coeffs[9] == 1
        assert sum(1 for c in coeffs.coeffs if c != 0) == 1

    def test_roundtrip_exact(self):
        f = SampledFunction(4, [Fraction(j, 16) - 1 for j in range(16)])
        assert inverse_fwht(fwht(f)) == f

    @settings(max_examples=40)
    @given(st.lists(st.integers(-50, 50), min_size=16, max_size=16))
    def test_roundtrip_property(self, values):
        f = SampledFunction(4, values)
        assert inverse_fwht(fwht(f)) == f

    def test_roundtrip_float(self):
        rng = np.random.default_rng(5)
        f = SampledFunction(6, rng.normal(size=64))
        g = inverse_fwht(fwht(f))
        np.testing.assert_allclose(np.asarray(g.values), np.asarray(f.values),
                                   rtol=1e-12, atol=1e-12)

    def test_definition_matches_direct_sum(self):
        f = SampledFunction(3, [3, -1, 4, 1, -5, 9, 2, -6])
        coeffs = fwht(f)
        for i in range(8):
            direct = Fraction(
                sum(f[j] * (-1) ** ((i & j).bit_count() & 1) for j in range(8)), 8)
            assert coeffs[i] == direct

    def test_ordering_permutation_is_bijection(self):
        f = SampledFunction(4, list(range(16)))
        paley = fwht(f, System.PALEY)
        kacz = paley.to_ordering(System.KACZMARZ)
        assert kacz.to_ordering(System.PALEY) == paley
        assert sorted(kacz.coeffs) == sorted(paley.coeffs)

    def test_truncate_paley(self):
        f = SampledFunction(3, [3, -1, 4, 1, -5, 9, 2, -6])
        g = partial_sum(f, System.PALEY, 4)
        coeffs = fwht(g)
        assert all(c == 0 for c in coeffs.coeffs[4:])
        assert list(coeffs.coeffs[:4]) == list(fwht(f).coeffs[:4])


class TestOrthonormality:
    @pytest.mark.parametrize("system", [System.PALEY, System.KACZMARZ])
    def test_exhaustive(self, system):
        N = 8
        size = 1 << N
        if system is System.PALEY:
            rows = np.array([walsh_paley_samples(n, N) for n in range(size)],
                            dtype=np.int64)
        else:
            sigma = sigma_permutation(N)
            rows = np.array([walsh_paley_samples(sigma[n], N) for n in range(size)],
                            dtype=np.int64)
        gram = rows @ rows.T
        assert np.array_equal(gram, size * np.eye(size, dtype=np.int64))


class TestDirichlet:
    @pytest.mark.parametrize("system", ["paley", "kaczmarz"])
    def test_closed_form(self, system):
        N = 6
        for m in range(N + 1):
            expected = SampledFunction.indicator(
                DyadicInterval.at_zero(m, N), N, scale=1 << m)
            assert dirichlet(system, 1 << m, N) == expected

    def test_value_at_zero(self):
        for n in range(0, 17):
            assert dirichlet("paley", n, 4)[0] == n
            assert dirichlet("kaczmarz", n, 4)[0] == n

    def test_d0_vanishes(self):
        assert dirichlet("paley", 0, 3) == SampledFunction.constant(0, 3)

    def test_overflow(self):
        with pytest.raises(ValueError):
            dirichlet("paley", 9, 3)

    @pytest.mark.parametrize("build", [dirichlet, fejer, fejer_numerators])
    def test_negative_resolution_is_named(self, build):
        for n in (0, 1):
            with pytest.raises(ValueError, match=r"^resolution must be >= 0, got -1$"):
                build("paley", n, -1)

    @pytest.mark.parametrize("system", ["paley", "kaczmarz"])
    def test_matches_character_summation(self, system):
        N = 4
        for n in (1, 3, 7, 11, 16):
            direct = [0] * 16
            for k in range(n):
                if system == "paley":
                    row = walsh_paley_samples(k, N)
                else:
                    row = kaczmarz_samples(k, N)
                direct = [a + b for a, b in zip(direct, row)]
            assert list(dirichlet(system, n, N).values) == direct


class TestFejer:
    def test_k1_is_one(self):
        assert fejer("paley", 1, 3) == SampledFunction.constant(Fraction(1), 3)

    def test_value_at_zero(self):
        for n in (1, 2, 5, 13, 16):
            assert fejer("paley", n, 4)[0] == Fraction(n + 1, 2)

    def test_k2_hand_values(self):
        k2 = fejer("paley", 2, 1)
        assert list(k2.values) == [Fraction(3, 2), Fraction(1, 2)]

    def test_order_zero_error(self):
        with pytest.raises(ValueError):
            fejer("paley", 0, 3)

    @pytest.mark.parametrize("system", ["paley", "kaczmarz"])
    def test_matches_definitional_average(self, system):
        for n in (1, 2, 3, 5, 8, 12):
            assert fejer(system, n, 4) == fejer_by_average(system, n, 4)

    def test_denominator_divides_order(self):
        for v in fejer("paley", 12, 4).values:
            assert 12 % v.denominator == 0


class TestCellLimit:
    """The kernels refuse 2^25 cells before allocating; 2^24 reach the synthesis."""

    @pytest.mark.parametrize("build", [dirichlet, fejer, fejer_numerators])
    def test_edge(self, build, monkeypatch):
        class Reached(Exception):
            pass

        def stop(num, N):
            raise Reached(N)

        monkeypatch.setattr(walsh, "_synthesis", stop)
        with pytest.raises(Reached):
            build(System.KACZMARZ, 3, 24)
        with pytest.raises(ValueError,
                           match=r"^depth 25 would materialize 2\^25 cells; the limit is 24$"):
            build(System.KACZMARZ, 3, 25)


class TestFejerSpectrum:
    @pytest.mark.parametrize("system", [System.PALEY, System.KACZMARZ])
    def test_matches_definition(self, system):
        # coefficient n - i at the Paley index of system function i < n: the
        # head of 2^((n-1).bit_length()) cells, and 0 on every later cell
        for N in range(7):
            for n in range((1 << N) + 1):
                expected = np.zeros(1 << N, dtype=np.int64)
                for i in range(n):
                    j = i if system is System.PALEY else kaczmarz_paley_index(i)
                    expected[j] = n - i
                got = _fejer_spectrum(system, n)
                head = 1 << max(n - 1, 0).bit_length()
                assert got.dtype == np.int64
                assert np.array_equal(got, expected[:head])
                assert not expected[head:].any()


class TestKernelDecomposition:
    def test_exact_for_both_block_sizes(self):
        from dyadlab import verify_kernel_decomposition
        report = verify_kernel_decomposition(7)
        assert report.passed
        assert report.parameters["i_values"] == [1, 2]
        assert report.witness["checked"] == 4 + 16


class TestConvolve:
    def test_exact_diagonalization(self):
        f = SampledFunction(3, [3, -1, 4, 1, -5, 9, 2, -6])
        g = SampledFunction(3, [1, 2, 0, -1, 3, 0, 1, 1])
        conv = convolve(f, g)
        lhs = fwht(conv)
        fc, gc = fwht(f), fwht(g)
        for i in range(8):
            assert lhs[i] == fc[i] * gc[i]

    def test_spectral_route_equals_direct_sum(self):
        rng = random.Random(5)
        for N in range(6):
            f = SampledFunction(N, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                    for _ in range(1 << N)])
            g = SampledFunction(N, [rng.randint(-9, 9) for _ in range(1 << N)])
            assert convolve(f, g) == convolve_by_sum(f, g)
            np.testing.assert_allclose(
                convolve(f.to_float(), g.to_float()).values,
                convolve_by_sum(f.to_float(), g.to_float()).values, rtol=0, atol=1e-12)

    def test_direct_sum_over_several_chunks(self):
        # 2^11 rows of 2^11 cells are gathered in two chunks of at most 4e6 cells
        rng = np.random.default_rng(1)
        f = SampledFunction(11, rng.integers(-9, 10, 1 << 11).tolist())
        g = SampledFunction(11, rng.integers(-9, 10, 1 << 11).tolist())
        assert convolve(f, g) == convolve_by_sum(f, g)

    def test_float_at_resolution_16(self):
        # the direct sum would gather 2^32 cells here
        rng = np.random.default_rng(0)
        f = SampledFunction(16, rng.uniform(-1, 1, 1 << 16))
        g = SampledFunction(16, rng.uniform(-1, 1, 1 << 16))
        conv = convolve(f, g)
        assert not conv.is_exact
        assert conv.integral() == pytest.approx(f.integral() * g.integral(), abs=1e-12)


class TestIndicator:
    """The masked indicator reads out as the per-cell list it is defined by."""

    @pytest.mark.parametrize("scale", [1, 4, -(1 << 70), Fraction(3, 2), Fraction(4),
                                       Fraction(0)])
    def test_matches_cell_list(self, scale):
        N = 5
        for rank in range(N + 1):
            for anchor in (0, 3, 31):
                interval = DyadicInterval(rank, GroupPoint(N, anchor))
                cells = [0] * (1 << N)
                for j in interval.indices(N):
                    cells[j] = scale
                got = SampledFunction.indicator(interval, N, scale).values.tolist()
                assert [(type(v), v) for v in got] == [(type(v), v) for v in cells]

    def test_rejects_float_scale_and_rank_above_resolution(self):
        with pytest.raises(ValueError):
            SampledFunction.indicator(DyadicInterval.at_zero(1, 3), 3, 0.5)
        with pytest.raises(ValueError):
            SampledFunction.indicator(DyadicInterval.at_zero(4, 4), 3)
