"""Family builders, kernel sweeps, divergence and rate tables."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (SampledFunction, System, dirichlet, dirichlet_prefix, fejer,
                     is_p_atom, modulus_hp, s2n)
from dyadlab.experiments import (audit_family, build_t1, build_t2,
                                 convergence_table, divergence_t1, divergence_t2,
                                 kernel_half_integral, q_seq,
                                 random_decaying_martingale,
                                 random_exact_martingale,
                                 random_lacunary_martingale, rate_table_t1,
                                 rate_table_t2, t2_radial_modulus,
                                 verify_closed_form, verify_conjugate_translation,
                                 verify_fejer_partial_identity, verify_identities,
                                 verify_kernel_decomposition, verify_lemma2,
                                 verify_permutation_equivalence, verify_yano)
from dyadlab.walsh import _kernel_l1_fits_int64, _numerators_fit_int64


class TestQSeq:
    def test_values(self):
        assert q_seq(0) == 1
        assert q_seq(2) == 21
        assert q_seq(3) == 85
        assert q_seq(4) == 341

    def test_recurrence(self):
        for A in range(1, 11):
            assert q_seq(A) == 4 * q_seq(A - 1) + 1

    def test_negative(self):
        with pytest.raises(ValueError):
            q_seq(-1)


class TestBuildT1:
    def test_block_coefficients(self):
        fam = build_t1(Fraction(1, 4), 5, 7)
        coeffs = fam.martingale.terminal.coeffs
        assert coeffs[0] == 0
        for i in range(6):
            for j in range(1 << i, 1 << (i + 1)):
                assert coeffs[j] == 1 << i
        assert all(c == 0 for c in coeffs[64:])

    def test_coefficients_independent_of_p(self):
        a = build_t1(Fraction(1, 4), 4, 6).martingale.terminal
        b = build_t1(Fraction(1, 3), 4, 6).martingale.terminal
        assert a == b

    def test_atom_support_and_mean(self):
        fam = build_t1(Fraction(1, 4), 5, 7)
        for i, (atom, interval) in enumerate(fam.atoms):
            assert interval.rank == i
            inside = set(interval.indices(7))
            assert all(atom[j] == 0 for j in range(128) if j not in inside)
            assert sum(atom[j] for j in inside) == 0

    def test_atoms_certified(self):
        fam = build_t1(Fraction(1, 4), 5, 7)
        for atom, interval in fam.atoms:
            assert is_p_atom(atom, interval, Fraction(1, 4)).passed

    def test_partial_sums_select_whole_atoms(self):
        # S_{2^A} a_i = a_i for i < A and 0 for i >= A
        fam = build_t1(Fraction(1, 4), 4, 6)
        zero = SampledFunction.constant(0, 6)
        for A in range(1, 6):
            for i, (atom, _) in enumerate(fam.atoms):
                projected = s2n(atom, A)
                assert projected == (atom if i < A else zero)

    def test_weights(self):
        fam = build_t1(Fraction(1, 4), 4, 6)
        assert fam.weights == [Fraction(1, 1 << (2 * i)) for i in range(5)]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_t1(Fraction(1, 2), 3, 5)
        with pytest.raises(ValueError):
            build_t1(Fraction(1, 4), 5, 5)

    def test_float_p_allowed(self):
        fam = build_t1(0.3, 3, 5)
        assert not fam.atoms[1][0].is_exact
        assert fam.martingale.is_exact  # spectrum itself stays integer


class TestBuildT2:
    def test_block_coefficients(self):
        fam = build_t2(3, 10)
        coeffs = fam.martingale.terminal.coeffs
        expected_blocks = {1: 1, 2: 1, 3: 4}  # value 2^{2^i - 2i}
        for i, value in expected_blocks.items():
            for j in range(1 << (1 << i), 1 << ((1 << i) + 1)):
                assert coeffs[j] == value
        occupied = {j for i in expected_blocks
                    for j in range(1 << (1 << i), 1 << ((1 << i) + 1))}
        assert all(coeffs[j] == 0 for j in range(1024) if j not in occupied)

    def test_atom_sup_bound(self):
        fam = build_t2(3, 10)
        for i, (atom, interval) in enumerate(fam.atoms, start=1):
            sup = max(abs(v) for v in atom.values)
            assert sup <= (1 << (1 << i)) ** 2
            assert interval.rank == 1 << i
            assert is_p_atom(atom, interval, Fraction(1, 2)).passed

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            build_t2(3, 8)  # block 3 needs depth >= 9

    def test_modulus_tail_bound(self):
        # half-power subadditivity with unit-norm atoms gives
        # omega_{H_{1/2}}(1/2^n) <= (sum_{2^i >= n} 2^{-i})^2 = O(1/n^2)
        fam = build_t2(3, 10)
        for n in (2, 4, 8):
            k = (n - 1).bit_length()  # smallest i with 2^i >= n
            root_bound = sum(2.0 ** -i for i in range(k, 40))
            assert float(modulus_hp(fam.martingale, n, Fraction(1, 2))) \
                <= root_bound ** 2 + 1e-12


def typed_cells(f):
    return [(type(v), v) for v in f.values.tolist()]


class TestBlockAtoms:
    """Each atom is a scaled D_{2^{m+1}} - D_{2^m}, in value and readout type."""

    @staticmethod
    def dirichlet_block(m, M):
        return dirichlet(System.PALEY, 2 << m, M) - dirichlet(System.PALEY, 1 << m, M)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_t1(self, M):
        fam = build_t1(Fraction(1, 4), M - 1, M)
        for i, (atom, _) in enumerate(fam.atoms):
            expected = self.dirichlet_block(i, M).scale(1 << (3 * i))  # 2^{i(1/p-1)}
            assert typed_cells(atom) == typed_cells(expected)

    @pytest.mark.parametrize("M", range(3, 9))
    def test_t2(self, M):
        fam = build_t2((M - 1).bit_length() - 1, M)  # every block with 2^L + 1 <= M
        for i, (atom, _) in enumerate(fam.atoms, start=1):
            expected = self.dirichlet_block(1 << i, M).scale(1 << (1 << i))
            assert typed_cells(atom) == typed_cells(expected)


class TestAudit:
    def test_t1(self):
        report = audit_family(build_t1(Fraction(1, 4), 5, 7))
        assert report.passed
        assert report.witness["coefficients_match"]
        assert report.witness["atoms_pass"]

    def test_t2(self):
        assert audit_family(build_t2(2, 6)).passed

    def test_float_atoms(self):
        assert audit_family(build_t1(0.3, 6, 8)).witness["coefficients_match"]

    @pytest.mark.parametrize("fam", [build_t1(Fraction(1, 4), 5, 7), build_t2(2, 6),
                                     build_t1(0.3, 6, 8)], ids=["t1", "t2", "t1-float"])
    def test_perturbed_weight_fails(self, fam):
        fam.weights[1] = fam.weights[1] * (1 + Fraction(1, 1 << 20))
        report = audit_family(fam)
        assert not report.passed
        assert not report.witness["coefficients_match"]


class TestAtomicDecomposition:
    @pytest.mark.parametrize("family", ["t1", "t2"])
    def test_weighted_atoms_reconstruct_levels(self, family):
        # sum_k mu_k S_{2^n} a_k recovers f^(n) exactly, every level
        fam = (build_t1(Fraction(1, 4), 5, 7) if family == "t1"
               else build_t2(2, 7))
        mart = fam.martingale
        for n in range(8):
            acc = SampledFunction.constant(0, 7)
            for weight, (atom, _) in zip(fam.weights, fam.atoms):
                acc = acc + s2n(atom, n).scale(weight)
            assert acc == mart.level(n)

    def test_hardy_vs_weight_series_ratio_stable(self):
        from dyadlab import atomic_norm_bound, hardy_quasinorm
        ratios = []
        for M in (6, 8, 10):
            fam = build_t1(Fraction(1, 4), M - 1, M)
            hardy = float(hardy_quasinorm(fam.martingale, Fraction(1, 4)))
            ratios.append(hardy / atomic_norm_bound(fam.weights, Fraction(1, 4)))
        assert max(ratios) / min(ratios) < 2.0

    def test_t1_hardy_norm_bounded_in_depth(self):
        from dyadlab import hardy_quasinorm
        values = [float(hardy_quasinorm(
            build_t1(Fraction(1, 4), M - 1, M).martingale, Fraction(1, 4)))
            for M in range(2, 11)]
        assert max(values) <= 10.0
        increments = [b - a for a, b in zip(values, values[1:])]
        # geometric saturation: each step gains at most 0.9x the previous
        assert all(b <= 0.9 * a for a, b in zip(increments, increments[1:]))


def yano_rows_by_loop(n_max, N):
    """The sweep's own Dirichlet and Fejer-numerator recursion (reference)."""
    idx = np.arange(1 << N, dtype=np.int64)
    D = np.zeros(1 << N, dtype=np.int64)   # Dirichlet kernel D_n
    T = np.zeros(1 << N, dtype=np.int64)   # sum_{k<=n} D_k = n * K_n
    rows = []
    for n in range(1, n_max + 1):
        D += 1 - 2 * (np.bitwise_count(idx & (n - 1)).astype(np.int64) & 1)
        T += D
        rows.append({"n": n, "l1_norm": Fraction(int(np.sum(np.abs(T))), n << N)})
    return rows


class TestYano:
    @pytest.mark.parametrize("N", range(9))
    def test_rows_match_loop(self, N):
        for n_max in sorted({1, 2, 3, (1 << N) // 2 + 1, (1 << N) - 1, 1 << N}):
            if 1 <= n_max <= 1 << N:
                report = verify_yano(n_max, N, include_rows=True)
                assert report.rows == yano_rows_by_loop(n_max, N)

    def test_small_norms(self):
        report = verify_yano(5, 4, include_rows=True)
        norms = {row["n"]: row["l1_norm"] for row in report.rows}
        assert norms[1] == 1
        assert norms[2] == 1
        assert norms[5] == Fraction(21, 20)

    def test_bound_holds_midrange(self):
        report = verify_yano(128, 9)
        assert report.passed
        assert 1 < float(report.witness["max_l1_norm"]) <= 2

    def test_argmax_on_lacunary_index(self):
        # the sweep maximum sits on the q-sequence at this scale
        report = verify_yano(128, 9)
        assert report.witness["argmax_n"] == q_seq(3)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            verify_yano(64, 3)

    @pytest.mark.parametrize("N", [0, 2, 10, 22])
    def test_int64_guard_edge(self, N):
        # sum_x |n K_n(x)| <= 2^N n(n+1)/2 straddles 2^63 at n = 2^{32 - N/2}:
        # (n - 1) n 2^{N-1} = 2^63 - n 2^{N-1} and n (n + 1) 2^{N-1} = 2^63 + n 2^{N-1}
        n = 2 ** (32 - N // 2)
        assert _kernel_l1_fits_int64(n - 1, N)
        assert not _kernel_l1_fits_int64(n, N)

    def test_guard_runs_before_allocation(self):
        with pytest.raises(ValueError, match="int64"):
            verify_yano(2**22, 22)

    def test_no_orders(self):
        with pytest.raises(ValueError, match="n_max"):
            verify_yano(0, 5)


class TestLemma2:
    def test_a3_single_cell(self):
        report = verify_lemma2(3)
        assert report.passed
        assert len(report.rows) == 1
        row = report.rows[0]
        assert (row["m"], row["s"]) == (0, 2)
        assert row["bound"] == 2
        assert row["points"] == 2
        assert report.witness["min_slack"] > 0

    def test_a4_cells_and_bounds(self):
        report = verify_lemma2(4)
        assert report.passed
        cells = {(row["m"], row["s"]): row["bound"] for row in report.rows}
        assert cells == {(0, 2): 2, (0, 3): 8, (1, 3): 32}
        assert q_seq(3) == 85  # kernel order used at A = 4

    def test_a5_passes(self):
        report = verify_lemma2(5)
        assert report.passed
        assert report.witness["min_slack"] > 0

    def test_rows_deterministic(self):
        a = verify_lemma2(4)
        b = verify_lemma2(4)
        assert a.rows == b.rows

    @pytest.mark.parametrize("A", range(3, 8))
    def test_cells_match_first_minimum_scan(self, A):
        T = dirichlet_prefix(q_seq(A - 1), 2 * A)
        for row in verify_lemma2(A).rows:
            m, s = row["m"], row["s"]
            anchor = (1 << (2 * m)) | (1 << (2 * s))
            best = None
            for t in range(row["points"]):
                x = anchor | (t << (2 * s + 1))
                slack = abs(int(T[x])) - row["bound"]
                if best is None or slack < best[0]:
                    best = (slack, x)
            assert (row["min_slack"], row["argmin_index"]) == best
            assert type(row["min_slack"]) is int and type(row["argmin_index"]) is int

    def test_a10_passes(self):
        report = verify_lemma2(10)
        assert report.passed
        assert report.parameters["cells"] == 36
        assert report.witness["min_slack"] > 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify_lemma2(2)

    def test_prefix_matches_fejer(self):
        T = dirichlet_prefix(9, 4)
        K = fejer("paley", 9, 4)
        assert [Fraction(int(v), 9) for v in T] == list(K.values)


def prefix_by_loop(n, N):
    """Reference n * K_n: accumulate D_k and their running sum, k = 1..n."""
    idx = np.arange(1 << N, dtype=np.int64)
    D = np.zeros(1 << N, dtype=np.int64)
    T = np.zeros(1 << N, dtype=np.int64)
    for k in range(1, n + 1):
        D += 1 - 2 * (np.bitwise_count(idx & (k - 1)).astype(np.int64) & 1)
        T += D
    return T


class TestDirichletPrefix:
    def test_matches_loop_for_every_order(self):
        for N in range(7):
            for n in range((1 << N) + 1):
                T = dirichlet_prefix(n, N)
                assert T.dtype == np.int64
                assert np.array_equal(T, prefix_by_loop(n, N)), (n, N)

    @pytest.mark.parametrize("A", range(3, 9))
    def test_matches_loop_at_lacunary_orders(self, A):
        q = q_seq(A - 1)
        assert np.array_equal(dirichlet_prefix(q, 2 * A), prefix_by_loop(q, 2 * A))

    def test_int64_guard_edge(self):
        # partial butterfly values are bounded by n(n+1)/2, reached at x = 0
        assert _numerators_fit_int64(2**32 - 1)
        assert not _numerators_fit_int64(2**32)

    def test_guard_runs_before_allocation(self):
        with pytest.raises(ValueError, match="int64"):
            dirichlet_prefix(2**32, 32)

    def test_order_overflow(self):
        with pytest.raises(ValueError):
            dirichlet_prefix(17, 4)


class TestDivergenceT1:
    def test_table(self):
        report = divergence_t1(build_t1(Fraction(1, 4), 7, 8), [4, 5])
        assert report.passed
        for row in report.rows:
            assert row["kappa_weak_norm"] == 1
            assert float(row["weak_norm"]) > 0.25
            assert row["weight"] == Fraction(1 << row["n"], (1 << row["n"]) + 1)
            assert float(row["truncation_tail_norm"]) < 1e-3

    def test_exact_mode_rationals(self):
        report = divergence_t1(build_t1(Fraction(1, 4), 6, 7), [4])
        assert report.mode == "exact"
        assert isinstance(report.rows[0]["weak_norm"], Fraction)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            divergence_t1(build_t1(Fraction(1, 4), 6, 7), [8])

    @pytest.mark.parametrize("n", [7, -1])
    def test_order_range_named(self, n):
        with pytest.raises(ValueError, match=f"n_list value {n} outside 0..6 at depth 7"):
            divergence_t1(build_t1(Fraction(1, 4), 6, 7), [4, n])


class TestDivergenceT2:
    def test_table(self):
        report = divergence_t2(build_t2(2, 6), [2])
        row = report.rows[0]
        assert row["order"] == 21
        assert row["quasi_norm"] > 0
        assert row["kernel_half_integral_inner_minus_1"] == pytest.approx(
            kernel_half_integral(5, 4, 6))

    def test_orders(self):
        report = divergence_t2(build_t2(3, 10), [2, 3])
        assert [row["order"] for row in report.rows] == [21, 341]
        assert report.witness["kernel_growth_2_to_3"] > 1.5

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            divergence_t2(build_t2(3, 8), [3])

    @pytest.mark.parametrize("i", [3, 0, -2, 10 ** 12])
    def test_order_range_named(self, i):
        with pytest.raises(ValueError, match=rf"i_list value {i} needs i >= 1 and .* <= 2\^6"):
            divergence_t2(build_t2(2, 6), [2, i])

    def test_tau_preserves_integral(self):
        # the coordinate reversal is measure preserving, so the kernel
        # integral must not depend on the reversal width
        a = kernel_half_integral(5, 4, 6)
        b = kernel_half_integral(5, 2, 6)
        c = kernel_half_integral(5, 0, 6)
        assert a == pytest.approx(b) == pytest.approx(c)


class TestRateTables:
    def test_t1_stability(self):
        rows = rate_table_t1(Fraction(1, 4), range(3, 7), L=9, M=10)
        ratios = [row["ratio"] for row in rows]
        assert max(ratios) / min(ratios) < 2.0

    def test_t2_radial_matches_array(self):
        fam = build_t2(3, 10)
        for n in (2, 3, 4, 5, 8, 9, 10):
            arr = float(modulus_hp(fam.martingale, n, Fraction(1, 2)))
            rad = t2_radial_modulus(n, 3, 10)
            assert math.isclose(arr, rad, rel_tol=1e-12, abs_tol=1e-15)

    def test_t2_radial_depth_guard(self):
        with pytest.raises(ValueError):
            t2_radial_modulus(4, 5, 20)

    def test_t2_scaled_rows(self):
        rows = rate_table_t2(range(4, 10), blocks=5)
        assert [row["n"] for row in rows] == list(range(4, 10))
        for row in rows:
            assert row["scaled"] == pytest.approx(row["modulus"] * row["n"] ** 2)


class TestConvergenceTable:
    def test_constant_error_zero(self):
        f = random_exact_martingale(random.Random(0), 4)
        const = f.level(0)
        mart = __import__("dyadlab").DyadicMartingale.from_function(const.to_float())
        rows = convergence_table(mart, Fraction(1, 2), [1, 2, 4, 8])
        assert all(row["error_norm"] == pytest.approx(0, abs=1e-12) for row in rows)

    def test_rapidly_decaying_spectrum(self):
        # hat f(i) = 4^{-i}: modulus far below the p = 1/4 rate threshold
        import numpy as np
        coeffs = np.array([4.0 ** -min(i, 500) for i in range(1 << 8)])
        f = __import__("dyadlab").DyadicMartingale.from_paley_coeffs(8, coeffs)
        rows = convergence_table(f, Fraction(1, 4), [4, 16, 64, 256])
        for row in rows[1:]:
            assert row["modulus"] < row["threshold"]
        errs = [row["error_norm"] for row in rows]
        assert errs[-1] < errs[0]

    def test_threshold_columns(self):
        f = random_decaying_martingale(random.Random(1), 4)
        rows_half = convergence_table(f, Fraction(1, 2), [2, 4])
        assert rows_half[0]["threshold"] == 1.0
        rows_quarter = convergence_table(f, Fraction(1, 4), [4])
        assert rows_quarter[0]["threshold"] == pytest.approx(2.0 ** -4)
        rows_one = convergence_table(f, 1, [4])
        assert rows_one[0]["threshold"] is None

    def test_no_orders(self):
        f = random_decaying_martingale(random.Random(1), 4)
        with pytest.raises(ValueError, match="order"):
            convergence_table(f, Fraction(1, 2), iter([]))


class TestIdentitySuite:
    @pytest.mark.parametrize("verify", [verify_fejer_partial_identity,
                                        verify_conjugate_translation])
    def test_no_martingales(self, verify):
        with pytest.raises(ValueError, match="count"):
            verify(4, 0, 1)

    def test_all_pass(self):
        reports = verify_identities(resolution=6, depth=4, seed=3, count=3)
        assert [r.claim for r in reports] == [
            "block-dirichlet-closed-form",
            "kaczmarz-bit-reversal-equivalence",
            "fejer-partial-sum-identity",
            "kaczmarz-block-kernel-decomposition",
            "conjugate-translation-and-isometry",
        ]
        assert all(r.passed for r in reports)

    def test_individual_reports(self):
        assert verify_closed_form(6).passed
        assert verify_permutation_equivalence(6).passed
        assert verify_fejer_partial_identity(5, 2, seed=0).passed
        assert verify_kernel_decomposition(6).passed
        assert verify_conjugate_translation(4, 2, seed=0).passed


class TestGenerators:
    def test_deterministic(self):
        a = random_exact_martingale(random.Random(42), 5).terminal
        b = random_exact_martingale(random.Random(42), 5).terminal
        assert a == b

    def test_lacunary_shape(self):
        f = random_lacunary_martingale(random.Random(1), 6)
        coeffs = f.terminal.coeffs
        assert coeffs[0] == 0
        for b in range(6):
            block = coeffs[1 << b:1 << (b + 1)]
            assert sum(1 for c in block if c != 0) == 1

    def test_decaying_scale(self):
        f = random_decaying_martingale(random.Random(2), 6)
        coeffs = f.terminal.coeffs
        assert all(abs(c) <= 8.0 ** -(i.bit_length()) for i, c in
                   enumerate(coeffs) if i >= 1)
