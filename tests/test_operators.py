"""Partial sums, Fejer means, and the weighted maximal sweep."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (DyadicMartingale, SampledFunction, System, coefficients,
                     compose_with_tau, convolve, dirichlet, fejer, fejer_mean,
                     fejer_mean_by_average, fejer_weight, fwht, hardy_quasinorm,
                     kaczmarz_samples, partial_sum, s2n, walsh_paley_samples,
                     weighted_maximal)
from dyadlab.experiments import (build_t2, q_seq, random_decaying_martingale,
                                 random_exact_martingale)
from dyadlab.operators import _fejer_sums
from dyadlab.walsh import sigma_permutation


class TestCoefficients:
    def test_kaczmarz_character_unit_mass(self):
        for j in (0, 3, 5, 9, 14):
            f = DyadicMartingale.from_function(
                SampledFunction(4, kaczmarz_samples(j, 4)))
            kacz = coefficients(f, System.KACZMARZ)
            assert kacz[j] == 1
            assert sum(1 for c in kacz.coeffs if c != 0) == 1

    def test_orderings_consistent(self):
        f = random_exact_martingale(random.Random(0), 4)
        paley = coefficients(f, System.PALEY)
        kacz = coefficients(f, System.KACZMARZ)
        assert kacz.to_ordering(System.PALEY) == paley


class TestPartialSum:
    def test_polynomial_identity(self):
        f = random_exact_martingale(random.Random(1), 4)
        for system in (System.PALEY, System.KACZMARZ):
            assert partial_sum(f, system, 16) == f.terminal_function()

    def test_block_orders_agree_across_systems(self):
        # sigma permutes blocks within themselves, so S_{2^m} coincide
        rng = random.Random(2)
        for _ in range(5):
            f = random_exact_martingale(rng, 6)
            for m in range(7):
                w = partial_sum(f, System.PALEY, 1 << m)
                k = partial_sum(f, System.KACZMARZ, 1 << m)
                assert w == k == s2n(f, m)

    def test_kaczmarz_midblock_differs_from_paley(self):
        # S_6 keeps {0..5} in Paley order but {0,1,2,3,4,6} in Kaczmarz order
        f = random_exact_martingale(random.Random(3), 4)
        assert partial_sum(f, System.PALEY, 6) != \
            partial_sum(f, System.KACZMARZ, 6)

    def test_order_overflow(self):
        f = random_exact_martingale(random.Random(4), 3)
        with pytest.raises(ValueError):
            partial_sum(f, System.PALEY, 9)

    def test_t2_proof_decomposition(self):
        # S_j^k f = S_{2^{2^i}} f + (2^{2^i}/2^{2i}) r_{2^i} (D^w_{j-2^{2^i}} o tau_{2^i})
        fam = build_t2(2, 6)
        f = fam.martingale
        for i in (1, 2):
            A = 1 << i
            base = s2n(f, A)
            r_row = SampledFunction(6, walsh_paley_samples(1 << A, 6))
            coeff = Fraction(1 << A, 1 << (2 * i))
            for j in range((1 << A) + 1, q_seq(1 << (i - 1)) + 1):
                lhs = partial_sum(f, System.KACZMARZ, j)
                shifted = compose_with_tau(
                    dirichlet(System.PALEY, j - (1 << A), 6), A)
                rhs = base + (r_row * shifted).scale(coeff)
                assert lhs == rhs


class TestFejerMean:
    def test_constant_fixed_point(self):
        f = SampledFunction.constant(Fraction(5, 3), 4)
        for n in (1, 3, 7, 16):
            assert fejer_mean(f, System.PALEY, n) == f

    def test_weight_form_equals_definitional(self):
        rng = random.Random(5)
        f = random_exact_martingale(rng, 6)
        for system in (System.PALEY, System.KACZMARZ):
            for n in range(1, 65):
                assert fejer_mean(f, system, n) == \
                    fejer_mean_by_average(f, system, n)

    def test_proof_identity_spot(self):
        f = random_exact_martingale(random.Random(6), 5)
        term = f.terminal_function()
        for m in (1, 3):
            smf = s2n(f, m)
            inner = s2n(fejer_mean(f, System.KACZMARZ, 1 << m) - term, m)
            for n in ((1 << m) + 1, 1 << (m + 1)):
                lhs = fejer_mean(smf, System.KACZMARZ, n) - smf
                assert lhs == inner.scale(Fraction(1 << m, n))

    def test_commutes_with_block_partial_sum(self):
        rng = random.Random(7)
        f = random_exact_martingale(rng, 5)
        for m in (1, 2, 3):
            a = s2n(SampledFunction(5, fejer_mean(f, System.KACZMARZ, 1 << m).values), m)
            b = fejer_mean(
                DyadicMartingale.from_function(s2n(f, m)), System.KACZMARZ, 1 << m)
            assert a == b

    def test_linearity(self):
        rng = random.Random(8)
        f = random_exact_martingale(rng, 4)
        g = random_exact_martingale(rng, 4)
        fg = DyadicMartingale.from_paley_coeffs(
            4, [a + b for a, b in zip(f.terminal.coeffs, g.terminal.coeffs)])
        for n in (3, 7, 12):
            assert fejer_mean(fg, System.KACZMARZ, n) == \
                fejer_mean(f, System.KACZMARZ, n) + fejer_mean(g, System.KACZMARZ, n)
            assert partial_sum(fg, System.KACZMARZ, n) == \
                partial_sum(f, System.KACZMARZ, n) + partial_sum(g, System.KACZMARZ, n)

    def test_output_spectrum_contained_in_acting_order(self):
        rng = random.Random(15)
        f = random_exact_martingale(rng, 5)
        for system in (System.PALEY, System.KACZMARZ):
            for n in (1, 5, 11, 20):
                for out in (partial_sum(f, system, n), fejer_mean(f, system, n)):
                    spec = fwht(out, system)
                    assert all(c == 0 for c in spec.coeffs[n:])

    def test_paley_mean_is_kernel_convolution(self):
        N = 6
        rng = random.Random(9)
        f = SampledFunction(N, [Fraction(rng.randint(-20, 20), 2)
                                for _ in range(1 << N)])
        for n in (1, 2, 5, 17, 64):
            assert fejer_mean(f, System.PALEY, n) == convolve(f, fejer("paley", n, N))

    def test_order_errors(self):
        f = random_exact_martingale(random.Random(10), 3)
        with pytest.raises(ValueError):
            fejer_mean(f, System.PALEY, 0)
        with pytest.raises(ValueError):
            fejer_mean(f, System.PALEY, 9)

    def test_float_mode_matches_exact(self):
        f = random_exact_martingale(random.Random(11), 5)
        g = DyadicMartingale.from_function(f.terminal_function().to_float())
        for n in (3, 21, 32):
            a = np.array([float(v) for v in
                          fejer_mean(f, System.KACZMARZ, n).values])
            b = np.asarray(fejer_mean(g, System.KACZMARZ, n).values)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestConvergenceToTerminal:
    def test_block_fejer_error_decays_for_decaying_spectrum(self):
        rng = random.Random(12)
        f = random_decaying_martingale(rng, 8)
        term = f.terminal_function()
        errs = []
        for n in range(1, 9):
            diff = fejer_mean(f, System.KACZMARZ, 1 << n) - term
            errs.append(float(hardy_quasinorm(
                DyadicMartingale.from_function(diff), 1)))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2 * float(hardy_quasinorm(f, 1))


class TestFejerSums:
    @pytest.mark.parametrize("system", [System.PALEY, System.KACZMARZ])
    def test_each_sum_is_n_times_the_mean(self, system):
        for N in range(7):
            exact = random_exact_martingale(random.Random(N), N)
            ints = np.array(exact.terminal.coeffs, dtype=np.int64)
            sums = list(_fejer_sums(ints, system, 1 << N))
            assert [n for n, _ in sums] == list(range(1, (1 << N) + 1))
            for n, acc in sums:
                # order n comes on the 2^r cells its functions 0..n-1 depend on
                assert acc.size == 1 << (n - 1).bit_length()
                assert acc.dtype == np.int64
                full = np.tile(acc, (1 << N) // acc.size)
                assert full.tolist() == list(fejer_mean(exact, system, n).scale(n).values)

            decaying = random_decaying_martingale(random.Random(N), N)
            floats = np.array(decaying.terminal.coeffs, dtype=np.float64)
            for n, acc in _fejer_sums(floats, system, 1 << N):
                assert acc.size == 1 << (n - 1).bit_length()
                assert acc.dtype == np.float64
                np.testing.assert_allclose(
                    np.tile(acc, (1 << N) // acc.size),
                    fejer_mean(decaying, system, n).scale(n).values,
                    rtol=1e-12, atol=1e-12)


def weighted_maximal_by_loop(f, p, n_max):
    """The sweep's own running sum of Kaczmarz partial sums (reference)."""
    N = f.depth
    coeffs = np.array(f.terminal.coeffs, dtype=np.float64)
    sigma = sigma_permutation(N)
    idx = np.arange(1 << N)
    partial = np.full(1 << N, coeffs[0])
    acc = partial.copy()
    best = np.abs(acc) / fejer_weight(p, 1)
    for n in range(2, n_max + 1):
        j = sigma[n - 1]
        c = coeffs[j]
        if c != 0.0:
            row = 1.0 - 2.0 * (np.bitwise_count(idx & j) & 1).astype(np.float64)
            partial = partial + c * row
        acc = acc + partial
        best = np.maximum(best, np.abs(acc) / (n * fejer_weight(p, n)))
    return best


class TestWeightedMaximal:
    @pytest.mark.parametrize("depth", [6, 9])
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2)])
    def test_bitwise_equal_to_loop(self, depth, p):
        rng = random.Random(depth)
        cases = [random_decaying_martingale(rng, depth) for _ in range(2)]
        cases.append(random_exact_martingale(rng, depth))
        # top block only: the maximum sits where the two orderings differ
        half = 1 << (depth - 1)
        cases.append(DyadicMartingale.from_paley_coeffs(
            depth, [0] * half + [rng.randint(-9, 9) for _ in range(half)]))
        for f in cases:
            # 2^k + 1 puts a doubling of the sweep's cells on the last order
            for n_max in (1, 2, 7, 9, (1 << (depth - 1)) + 1, 1 << depth):
                got = np.asarray(weighted_maximal(f, p, n_max).values)
                want = weighted_maximal_by_loop(f, p, n_max)
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()

    def test_weights(self):
        assert fejer_weight(Fraction(1, 4), 1) == 4.0   # (n+1)^{1/p-2}
        assert fejer_weight(Fraction(1, 4), 3) == 16.0
        assert fejer_weight(Fraction(1, 2), 1) == 1.0   # log2(2)^2
        assert fejer_weight(Fraction(1, 2), 3) == 4.0

    def test_p_range(self):
        f = random_exact_martingale(random.Random(13), 4)
        with pytest.raises(ValueError):
            weighted_maximal(f, Fraction(3, 4), 8)
        with pytest.raises(ValueError):
            fejer_weight(Fraction(2, 3), 1)

    def test_matches_direct_sweep(self):
        f = random_exact_martingale(random.Random(14), 5)
        p = Fraction(1, 4)
        n_max = 12
        got = np.asarray(weighted_maximal(f, p, n_max).values)
        direct = np.zeros(32)
        for n in range(1, n_max + 1):
            sig = np.array([float(v) for v in
                            fejer_mean(f, System.KACZMARZ, n).values])
            direct = np.maximum(direct, np.abs(sig) / fejer_weight(p, n))
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-12)

    def test_sweep_norm_bounded_in_range(self):
        from dyadlab.experiments import build_t1
        from dyadlab import lp_quasinorm
        fam = build_t1(Fraction(1, 4), 9, 10)
        v256 = float(lp_quasinorm(
            weighted_maximal(fam.martingale, Fraction(1, 4), 256), Fraction(1, 4)))
        v512 = float(lp_quasinorm(
            weighted_maximal(fam.martingale, Fraction(1, 4), 512), Fraction(1, 4)))
        assert v512 <= 1.2 * v256  # sweep norm saturates, no blowup
