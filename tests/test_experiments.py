"""Family builders, kernel sweeps, divergence and rate tables."""

import dataclasses
import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (DyadicInterval, DyadicMartingale, GroupPoint, JInterval, SampledFunction,
                     System, dirichlet, dirichlet_prefix, experiments, fejer, interval_indices,
                     is_p_atom, kaczmarz_paley_index, modulus_hp, normalize_p, s2n, walsh)
from dyadlab.cli import main
from dyadlab.experiments import (audit_family, build_t1, build_t2,
                                 convergence_table, divergence_t1, divergence_t2, jsonable,
                                 kernel_half_integral, q_seq,
                                 random_decaying_martingale,
                                 random_exact_martingale,
                                 random_lacunary_martingale, rate_table_t1,
                                 rate_table_t2, t2_radial_modulus,
                                 verify_closed_form, verify_conjugate_translation,
                                 verify_fejer_partial_identity, verify_identities,
                                 verify_kernel_decomposition, verify_lemma2,
                                 verify_permutation_equivalence, verify_yano)
from dyadlab.group import tau_permutation
from dyadlab.norms import _inverse
from dyadlab.operators import _fejer_sums
from dyadlab.walsh import _kernel_l1_fits_int64
from test_shell_oracle import array_atoms


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
        for i, (atom, interval) in enumerate(array_atoms(fam)):
            assert interval.rank == i
            inside = set(interval.indices(7))
            assert all(atom[j] == 0 for j in range(128) if j not in inside)
            assert sum(atom[j] for j in inside) == 0

    def test_atoms_certified(self):
        fam = build_t1(Fraction(1, 4), 5, 7)
        for atom, interval in array_atoms(fam):
            assert is_p_atom(atom, interval, Fraction(1, 4)).passed

    def test_partial_sums_select_whole_atoms(self):
        # S_{2^A} a_i = a_i for i < A and 0 for i >= A
        fam = build_t1(Fraction(1, 4), 4, 6)
        zero = SampledFunction.constant(0, 6)
        for A in range(1, 6):
            for i, (atom, _) in enumerate(array_atoms(fam)):
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

    @pytest.mark.parametrize("M", [1, 8, 24, 65])
    def test_print_limit_edge(self, M, int_digits):
        # at p = 1/k a depth-M family forms integers below 2^(M(k+3)); it is refused once
        # they could print with more digits than the int-to-str limit allows
        k = int(4300 * math.log2(10)) // M - 3
        assert build_t1(Fraction(1, k), M - 1, M).p == Fraction(1, k)
        bits = M * (k + 4)
        with pytest.raises(ValueError, match=rf"^p = 1/{k + 1} at depth {M} forms integers of "
                                             rf"up to {bits} bits, past the 4300-digit limit "
                                             r"on printing an int$"):
            build_t1(Fraction(1, k + 1), 0, M)
        sys.set_int_max_str_digits(0)  # no limit
        assert build_t1(Fraction(1, 10 ** 300), M - 1, M).levels == M - 1

    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(2, 5)], ids=["1/4", "2/5"])
    def test_atoms_equal_the_two_indicator_difference(self, p):
        # D_{2^(m+1)} - D_{2^m} as two indicators, scaled as the atom is
        inv_p = _inverse(p)  # 4, or the float 2.5
        for M in range(1, 11):
            fam = build_t1(p, M - 1, M)
            for m, (atom, interval) in enumerate(array_atoms(fam)):
                block = (SampledFunction.indicator(DyadicInterval.at_zero(m + 1, M), M, 2 << m)
                         - SampledFunction.indicator(DyadicInterval.at_zero(m, M), M, 1 << m))
                if isinstance(inv_p, float):
                    block = block.to_float()
                want = block.scale(2 ** (m * (inv_p - 1)))
                assert interval == DyadicInterval.at_zero(m, M)
                assert atom == want and atom.values.tolist() == want.values.tolist()
                assert [type(v) for v in atom.values] == [type(v) for v in want.values]

    def test_float_p_allowed(self):
        fam = build_t1(0.3, 3, 5)
        assert not list(array_atoms(fam))[1][0].is_exact
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
        for i, (atom, interval) in enumerate(array_atoms(fam), start=1):
            sup = max(abs(v) for v in atom.values)
            assert sup <= (1 << (1 << i)) ** 2
            assert interval.rank == 1 << i
            assert is_p_atom(atom, interval, Fraction(1, 2)).passed

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            build_t2(3, 8)  # block 3 needs depth >= 9

    def test_needs_a_block(self):
        with pytest.raises(ValueError, match="family t2 needs at least one block, got L=0"):
            build_t2(0, 5)

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
        for i, (atom, _) in enumerate(array_atoms(fam)):
            expected = self.dirichlet_block(i, M).scale(1 << (3 * i))  # 2^{i(1/p-1)}
            assert typed_cells(atom) == typed_cells(expected)

    @pytest.mark.parametrize("M", range(3, 9))
    def test_t2(self, M):
        fam = build_t2((M - 1).bit_length() - 1, M)  # every block with 2^L + 1 <= M
        for i, (atom, _) in enumerate(array_atoms(fam), start=1):
            expected = self.dirichlet_block(1 << i, M).scale(1 << (1 << i))
            assert typed_cells(atom) == typed_cells(expected)


def reference_block(m, M):
    return (SampledFunction.indicator(DyadicInterval.at_zero(m + 1, M), M, 2 << m)
            - SampledFunction.indicator(DyadicInterval.at_zero(m, M), M, 1 << m))


def reference_t1(p, L, M):
    """build_t1 as it was written with its own loops, kept as the builders' oracle."""
    p = normalize_p(p)
    coeffs = [0] * (1 << M)
    for i in range(L + 1):
        for j in range(1 << i, 1 << (i + 1)):
            coeffs[j] = 1 << i
    exact_scale = isinstance(p, Fraction) and p.numerator == 1
    inv_p = p.denominator if exact_scale else 1.0 / float(p)
    atoms, weights = [], []
    for i in range(L + 1):
        block = reference_block(i, M)
        if exact_scale:
            atom = block.scale(1 << (i * (inv_p - 1)))
            weights.append(Fraction(1, 1 << ((inv_p - 2) * i)))
        else:
            atom = block.to_float().scale(2.0 ** (i * (inv_p - 1.0)))
            weights.append(2.0 ** (-(inv_p - 2.0) * i))
        atoms.append((atom, DyadicInterval.at_zero(i, M)))
    return DyadicMartingale.from_paley_coeffs(M, coeffs), atoms, weights


def reference_t2(L, M):
    """build_t2 as it was written with its own loops, kept as the builders' oracle."""
    coeffs = [0] * (1 << M)
    for i in range(1, L + 1):
        for j in range(1 << (1 << i), 1 << ((1 << i) + 1)):
            coeffs[j] = 1 << ((1 << i) - 2 * i)
    atoms, weights = [], []
    for i in range(1, L + 1):
        m = 1 << i
        atoms.append((reference_block(m, M).scale(1 << m), DyadicInterval.at_zero(m, M)))
        weights.append(Fraction(1, 1 << (2 * i)))
    return DyadicMartingale.from_paley_coeffs(M, coeffs), atoms, weights


class TestOneLacunaryBuilder:
    """build_t1 and build_t2 share one builder; the separate loops are its oracle."""

    @staticmethod
    def assert_same(fam, reference):
        mart, atoms, weights = reference
        assert fam.martingale.terminal == mart.terminal
        assert [type(c) for c in fam.martingale.terminal.coeffs.tolist()] \
            == [type(c) for c in mart.terminal.coeffs.tolist()]
        got = list(array_atoms(fam))
        assert len(got) == len(atoms)
        for (atom, interval), (want, want_interval) in zip(got, atoms):
            assert interval == want_interval
            assert atom.mode == want.mode
            assert typed_cells(atom) == typed_cells(want)
        assert [(type(w), w) for w in fam.weights] == [(type(w), w) for w in weights]

    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("M", [1, 4, 7])
    def test_t1(self, p, M):
        for L in range(M):
            fam = build_t1(p, L, M)
            assert (fam.kind, fam.p, fam.levels, fam.depth) == ("t1", p, L, M)
            self.assert_same(fam, reference_t1(p, L, M))

    @pytest.mark.parametrize("L", [1, 2])
    def test_t2(self, L):
        for M in range((1 << L) + 1, 9):
            fam = build_t2(L, M)
            assert (fam.kind, fam.p, fam.levels, fam.depth) == ("t2", Fraction(1, 2), L, M)
            self.assert_same(fam, reference_t2(L, M))

    def test_depth_limit(self):
        # a family is its blocks at any depth; each reader of its 2^M arrays refuses
        # M = 25 before allocating, as the random generator does, and the audit,
        # which reads shells, runs
        for fam in (build_t1(Fraction(1, 4), 3, 25), build_t2(2, 25)):
            for read in (lambda: fam.martingale, lambda: list(array_atoms(fam)), fam.terminal):
                assert refused_peak(read) < 1 << 20
            assert audit_family(fam).passed
        assert refused_peak(lambda: random_decaying_martingale(random.Random(1), 25)) < 1 << 20

    def test_fields_are_the_definition(self):
        assert [f.name for f in dataclasses.fields(experiments.CounterexampleFamily)] \
            == ["kind", "p", "levels", "depth", "blocks"]

    def test_block_readers_build_no_martingale(self, monkeypatch):
        depths, real = [], DyadicMartingale.from_paley_coeffs

        def counting(depth, coeffs):
            depths.append(depth)
            return real(depth, coeffs)

        monkeypatch.setattr(DyadicMartingale, "from_paley_coeffs", counting)
        build_t1(Fraction(1, 4), 12, 13)
        build_t2(3, 12)
        rate_table_t1()
        rate_table_t2()
        t2_radial_modulus(4, 3, 12)
        assert depths == []
        fam = build_t1(Fraction(1, 4), 3, 6)
        assert fam.martingale is fam.martingale  # built once, when first read
        assert depths == [6]

    def test_rate_table_t1_past_the_array_limit(self):
        rows = rate_table_t1(Fraction(1, 4), range(3, 9), 39, 40)
        near = rate_table_t1(Fraction(1, 4), range(3, 9), 23, 24)
        assert [r["n"] for r in rows] == list(range(3, 9))
        for row, other in zip(rows, near):
            assert 0 < row["modulus"] == pytest.approx(other["modulus"], rel=1e-2)


def refused_peak(read):
    """The tracemalloc peak, in bytes, of `read()` refusing depth 25 with the one capacity error."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"^depth 25 would materialize 2\^25 cells; the limit is 24$"):
            read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("p,mode", [(Fraction(2, 5), "float"), (Fraction(1, 4), "exact")])
    def test_mode_is_the_audited_sums(self, p, mode):
        # float atoms at p = 2/5 are summed and compared within 1e-12
        assert audit_family(build_t1(p, 5, 7)).mode == mode

    @pytest.mark.parametrize("fam", [build_t1(Fraction(1, 4), 5, 7), build_t2(2, 6),
                                     build_t1(0.3, 6, 8)], ids=["t1", "t2", "t1-float"])
    def test_one_row_per_block_in_block_order(self, fam):
        report = audit_family(fam)
        assert report.passed
        assert [row["rank"] for row in report.rows] == [m for m, _ in fam.blocks]

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
            for weight, (atom, _) in zip(fam.weights, array_atoms(fam)):
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

    @pytest.mark.parametrize("N", [0, 3, 6])
    def test_rows_independent_of_resolution(self, N):
        # ||K_n||_1 is the same at every resolution that holds order n
        n_max = 1 << N
        assert (verify_yano(n_max, N, include_rows=True).rows
                == verify_yano(n_max, N + 3, include_rows=True).rows)

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

    def test_guard_reads_the_summed_resolution(self, monkeypatch):
        # n_max = 2^21 sums on 2^21 cells, 2^21 + 1 on 2^22: the int64 bound
        # 2^R n(n+1)/2 <= 2^63 - 1 holds for the first and fails for the second
        sizes = []

        def no_sums(n_max):
            sizes.append(n_max)
            return np.zeros(n_max + 1, dtype=np.int64)

        monkeypatch.setattr(experiments, "_yano_sums", no_sums)
        verify_yano(2**21, 40)
        assert sizes == [2**21]
        with pytest.raises(ValueError, match="int64"):
            verify_yano(2**21 + 1, 40)
        assert sizes == [2**21]

    @pytest.mark.parametrize("n_max", [1, 2, 3, 5, 17, 64, 300, 1024, 4096])
    def test_rows_match_running_sums(self, n_max):
        # the Paley spectrum of 2^R 1_{I_R} is all ones, so its Fejer sums are n K_n
        R = (n_max - 1).bit_length()
        rows = [{"n": n, "l1_norm": Fraction(int(np.sum(np.abs(T))), n * T.size)}
                for n, T in _fejer_sums(np.ones(1 << R, np.int64), System.PALEY, n_max)]
        assert verify_yano(n_max, R, include_rows=True).rows == rows

    @pytest.mark.parametrize("n_max, norm, n", [
        (16384, Fraction(50692187, 44736512), 10922),
        (65536, Fraction(811216987, 715816960), 43690)])
    def test_witness_recorded_from_running_sums(self, n_max, norm, n):
        witness = verify_yano(n_max, 16).witness
        assert (witness["max_l1_norm"], witness["argmax_n"]) == (norm, n)


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

    @pytest.mark.parametrize("A", range(3, 7))
    def test_cells_are_the_two_spike_intervals(self, A):
        T = dirichlet_prefix(q_seq(A - 1), 2 * A)
        for row in verify_lemma2(A).rows:
            J = JInterval(2 * row["s"] + 1, 2 * row["m"], 2 * row["s"])
            xs = interval_indices(J.as_interval(), 2 * A)
            assert xs == [x for x in range(1 << (2 * A)) if J.contains(GroupPoint(2 * A, x))]
            assert row["points"] == len(xs)
            slacks = [abs(int(T[x])) - row["bound"] for x in xs]
            k = slacks.index(min(slacks))
            assert (row["min_slack"], row["argmin_index"]) == (slacks[k], xs[k])

    def test_argmin_off_the_anchor(self):
        # the kernel's minimum sits at each cell's anchor, so plant one elsewhere
        T = np.full(1 << 8, 1 << 20, dtype=np.int64)
        x = (1 << 0) | (1 << 4) | (0b101 << 5)
        T[x] = 0
        row = experiments._lemma2_cell(T, 4, 0, 2)
        assert (row["min_slack"], row["argmin_index"], row["points"]) == (-row["bound"], x, 8)
        assert type(row["argmin_index"]) is int

    def test_a10_passes(self):
        report = verify_lemma2(10)
        assert report.passed
        assert report.parameters["cells"] == 36
        assert report.witness["min_slack"] > 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify_lemma2(2)

    def test_grid_limit_before_allocation(self, capsys):
        # A = 13 would build q K_q on 2^26 cells; the family depth limit refuses it first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^depth 26 would materialize 2\^26 cells"):
                verify_lemma2(13)
            assert main(["verify", "lemma2", "--A", "13"]) == 2
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: depth 26") and err.count("\n") == 1

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
        assert _kernel_l1_fits_int64(2**32 - 1, 0)
        assert not _kernel_l1_fits_int64(2**32, 0)

    def test_guard_runs_before_allocation(self):
        with pytest.raises(ValueError, match="int64"):
            dirichlet_prefix(2**32, 32)

    def test_order_overflow(self):
        with pytest.raises(ValueError):
            dirichlet_prefix(17, 4)

    def test_negative_resolution_is_named(self):
        with pytest.raises(ValueError, match=r"^resolution must be >= 0, got -1$"):
            dirichlet_prefix(1, -1)


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

    def test_float_mode_floats(self):
        report = divergence_t1(build_t1(Fraction(2, 5), 6, 7), [4])
        assert report.mode == "float"
        assert isinstance(report.rows[0]["weak_norm"], float)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            divergence_t1(build_t1(Fraction(1, 4), 6, 7), [8])

    @pytest.mark.parametrize("n", [7, -1])
    def test_order_range_named(self, n):
        with pytest.raises(ValueError, match=f"n_list value {n} outside 0..6 at depth 7"):
            divergence_t1(build_t1(Fraction(1, 4), 6, 7), [4, n])

    def test_each_level_family_built_once(self, monkeypatch):
        # the default table (n = 4 .. 8, L = 13, M = 14) reads levels R = 4 .. 9; the depth + 1
        # family adds no block below R, so it shares every level with the family
        built = []
        real = experiments.CounterexampleFamily.martingale.func

        def counted(fam):
            built.append((fam.levels, fam.depth))
            return real(fam)

        prop = functools.cached_property(counted)
        prop.__set_name__(experiments.CounterexampleFamily, "martingale")
        monkeypatch.setattr(experiments.CounterexampleFamily, "martingale", prop)
        report = divergence_t1(build_t1(Fraction(1, 4), 13, 14), [4, 5, 6, 7, 8])
        assert sorted(built) == [(R - 1, R) for R in range(4, 10)]
        assert report.passed

    def test_empty_order_list_named(self):
        with pytest.raises(ValueError, match=r"^n_list must name at least one order$"):
            divergence_t1(build_t1(Fraction(1, 4), 6, 7), [])


def synthesized_terminals(monkeypatch) -> list[int]:
    """The depth of every martingale whose terminal level is synthesized from here on."""
    depths = []
    real = DyadicMartingale.terminal_function

    def counted(f):
        depths.append(f.depth)
        return real(f)

    monkeypatch.setattr(DyadicMartingale, "terminal_function", counted)
    return depths


def test_each_level_terminal_synthesized_once_per_table(monkeypatch):
    # the default t1 table reads 20 gaps over levels R = 4 .. 9, and t2's rows at orders
    # 5, 21 and 341 read levels 3, 5 and 9 twice each (depth M and M + 1); neither
    # synthesizes f^(M) or f^(M+1)
    depths = synthesized_terminals(monkeypatch)
    divergence_t1(build_t1(Fraction(1, 4), 13, 14), [4, 5, 6, 7, 8])
    assert sorted(depths) == list(range(4, 10))
    depths.clear()
    divergence_t2(build_t2(3, 12), [1, 2, 3])
    assert depths == [3, 5, 9]


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

    def test_depth_limit_is_the_kernel_columns(self, monkeypatch):
        # depth 24 passes the one cell-limit check and reaches the first kernel column,
        # whose 2^24 tiled roots are the table's largest array; depth 25 is refused before it
        class Reached(Exception):
            pass

        def stop(order, tau_width, N):
            raise Reached(order, tau_width, N)

        monkeypatch.setattr(experiments, "kernel_half_integral", stop)
        with pytest.raises(Reached) as reached:
            divergence_t2(build_t2(3, 24), [2])
        assert reached.value.args == (q_seq(1), 4, 24)
        with pytest.raises(ValueError,
                           match=r"^depth 25 would materialize 2\^25 cells; the limit is 24$"):
            divergence_t2(build_t2(3, 25), [2])

    @pytest.mark.parametrize("i", [3, 0, -2, 10 ** 12])
    def test_order_range_named(self, i):
        with pytest.raises(ValueError, match=rf"i_list value {i} needs i >= 1 and .* <= 2\^6"):
            divergence_t2(build_t2(2, 6), [2, i])

    def test_empty_order_list_named(self):
        with pytest.raises(ValueError, match=r"^i_list must name at least one order$"):
            divergence_t2(build_t2(2, 6), [])

    @pytest.mark.parametrize("M", [6, 12, 16])
    def test_kernel_half_integral_equals_sequential_loop(self, M):
        # the running sum is the definition's left-to-right sum of math.sqrt, bit for bit
        orders = [q_seq(1), q_seq(2) - 1, q_seq(3), q_seq(4) - 1, (1 << M) - 1, 1 << M]
        for order in (n for n in orders if n <= 1 << M):
            for width in (0, 2, 4, M):
                total = 0.0
                for v in np.abs(dirichlet_prefix(order, M)[tau_permutation(width, M)]).tolist():
                    total += math.sqrt(v)
                got = kernel_half_integral(order, width, M)
                assert type(got) is float
                assert got.hex() == (total / (1 << M)).hex(), (order, width)

    @pytest.mark.parametrize("M", [12, 16, 20])
    @pytest.mark.parametrize("order, width", [(85, 8), (340, 16)])
    def test_kernel_half_integral_equals_the_one_expression(self, order, width, M):
        # the in-place steps give the bits of the one-expression form they replaced
        if width > M:
            with pytest.raises(ValueError, match=f"width {width} exceeds resolution {M}"):
                kernel_half_integral(order, width, M)
            return
        T = np.abs(dirichlet_prefix(order, M)[tau_permutation(width, M)])
        want = float(np.add.accumulate(np.sqrt(T))[-1]) / (1 << M)
        assert kernel_half_integral(order, width, M).hex() == want.hex()

    def test_kernel_half_integral_memory_is_the_tiled_roots(self):
        # one 2^P-cell period is tiled to 2^20 float roots; no 2^20-cell kernel or tau index
        tracemalloc.start()
        try:
            kernel_half_integral(341, 16, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (1 << 20) * 8

    @pytest.mark.parametrize("order", [-1, -(1 << 30), (1 << 12) + 1, 1 << 40])
    def test_kernel_half_integral_order_outside_the_spectrum(self, order):
        # the message names the resolution N, not the period the cells are built on
        with pytest.raises(ValueError,
                           match=rf"^kernel order {order} overflows spectrum at resolution 12$"):
            kernel_half_integral(order, 4, 12)

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
        with pytest.raises(ValueError, match="at least one block"):
            t2_radial_modulus(4, 0, 5)

    def test_t2_scaled_rows(self):
        rows = rate_table_t2(range(4, 10), blocks=5)
        assert [row["n"] for row in rows] == list(range(4, 10))
        for row in rows:
            assert row["scaled"] == pytest.approx(row["modulus"] * row["n"] ** 2)


class TestShellFold:
    """`_radial_modulus` against `modulus_hp` on the family's 2^M cells, bit for bit."""

    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), 0.3], ids=str)
    def test_t1_equals_array_route(self, p):
        for M in range(1, 10):
            for L in range(M):
                fam = build_t1(p, L, M)
                for n in range(M + 1):
                    assert (experiments._radial_modulus(fam.blocks, M, n, fam.p)
                            == float(modulus_hp(fam.martingale, n, fam.p))), (L, M, n)

    def test_t2_equals_array_route(self):
        for L in range(1, 4):
            for M in range((1 << L) + 1, 13):
                fam = build_t2(L, M)
                for n in range(M + 1):
                    assert (t2_radial_modulus(n, L, M)
                            == float(modulus_hp(fam.martingale, n, Fraction(1, 2)))), (L, M, n)

    def test_level_outside_depth(self):
        for n in (-1, 7):
            with pytest.raises(ValueError, match="outside 0..6"):
                rate_table_t1(Fraction(1, 4), [n], 5, 6)

    def test_rate_table_t1_starts_no_butterfly(self, monkeypatch):
        sizes, stages = [], walsh._butterfly_stages

        def counted(arr):
            sizes.append(arr.size)
            return stages(arr)

        monkeypatch.setattr(walsh, "_butterfly_stages", counted)
        rate_table_t1()
        assert sizes == []


def test_jsonable_refuses_what_no_report_holds():
    assert jsonable({1: [Fraction(1, 2), np.float64(0.5), None]}) == {"1": ["1/2", 0.5, None]}
    for obj in (object(), GroupPoint(2, 1), np.int64(3)):
        with pytest.raises(TypeError):
            jsonable(obj)


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

    @pytest.mark.parametrize("n", [0, 17])
    def test_order_range(self, n):
        f = random_decaying_martingale(random.Random(1), 4)
        with pytest.raises(ValueError, match=f"order {n} outside 1..2\\^4"):
            convergence_table(f, Fraction(1, 2), [1, n])

    @pytest.mark.parametrize("p, n, want", [
        (Fraction(1, 4), 3, 2.0 ** -6), (0.3, 2, 2.0 ** (-2 * (1 / 0.3 - 2))),
        (Fraction(1, 2), 4, 1 / 16), (Fraction(1, 2), 0, None),
        (Fraction(3, 4), 2, None), (1, 2, None),
    ])
    def test_rate_threshold(self, p, n, want):
        assert experiments._rate_threshold(p, n) == want

    def test_random_depth_limit_runs_before_allocation(self, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(shape, *args, **kwargs):
            raise Allocated(shape)

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(Allocated):  # depth 24 is the last one allowed
            random_decaying_martingale(random.Random(1), 24)
        with pytest.raises(ValueError, match="^depth 25 would materialize"):
            random_decaying_martingale(random.Random(1), 25)


class TestIdentitySuite:
    @pytest.mark.parametrize("verify", [verify_fejer_partial_identity,
                                        verify_conjugate_translation])
    def test_no_martingales(self, verify):
        with pytest.raises(ValueError, match="count"):
            verify(4, 0, 1)

    @pytest.mark.parametrize("verify, message", [
        (lambda: verify_fejer_partial_identity(0, 1, 0), r"^depth must be >= 1, got 0$"),
        (lambda: verify_fejer_partial_identity(3, 1, 0, m_max=-1),
         r"^m_max must be in 0\.\.2 at depth 3, got -1$"),
        (lambda: verify_closed_form(-1), r"^resolution must be >= 0, got -1$")],
        ids=["fejer-depth-0", "fejer-m_max-negative", "closed-form-negative"])
    def test_nothing_to_check_is_refused(self, verify, message):
        # each of these would otherwise pass with nothing checked
        with pytest.raises(ValueError, match=message):
            verify()

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

    def test_conjugate_depth_limit(self, monkeypatch):
        # 2^(depth+1) sign points of 2^depth cells: depth 11 signs 2^23 cells, depth 12 2^25
        class Reached(Exception):
            pass

        def stop(rng, depth):
            raise Reached(depth)

        monkeypatch.setattr(experiments, "random_lacunary_martingale", stop)
        with pytest.raises(Reached):
            verify_conjugate_translation(11, 1, 0)
        with pytest.raises(ValueError,
                           match=r"^depth 12 signs 2\^25 cells; the limit is 2\^24$"):
            verify_conjugate_translation(12, 1, 0)

    def test_individual_reports(self):
        assert verify_closed_form(6).passed
        assert verify_permutation_equivalence(6).passed
        assert verify_fejer_partial_identity(5, 2, seed=0).passed
        assert verify_kernel_decomposition(6).passed
        assert verify_conjugate_translation(4, 2, seed=0).passed


def plus_one(f):
    return f + SampledFunction.constant(1, f.resolution)


class TestFirstFailure:
    """Cases come in blocks (key of case k, held per case), in order."""

    def test_stops_at_the_first_failure(self):
        seen = []

        def cases():
            for k in range(5):
                seen.append(k)
                yield (lambda i, k=k: {"k": k, "i": i}), [k != 2]

        assert experiments._first_failure(cases()) == (3, {"k": 2, "i": 0})
        assert seen == [0, 1, 2]

    def test_counts_the_rows_of_each_block_up_to_the_failing_one(self):
        blocks = [(str, np.ones(4, dtype=bool)), (lambda i: {"row": i}, [True, False, False]),
                  (str, [False])]
        assert experiments._first_failure(iter(blocks)) == (6, {"row": 1})

    def test_all_held(self):
        assert experiments._first_failure(((str, [True] * k) for k in range(4))) == (6, None)
        assert experiments._first_failure(iter([])) == (0, None)


def test_kernel_decomposition_resolution_guard():
    with pytest.raises(ValueError, match="i = 2 needs resolution >= 5, got 4"):
        verify_kernel_decomposition(4)


class TestIdentityVerdictsCanFail:
    """Each identity report fails, with its witness, when one callee call goes wrong."""

    @staticmethod
    def break_call(monkeypatch, name, k, wrong):
        """Make the k-th call (from 1) of `name` in `experiments` return wrong(result)."""
        real, calls = getattr(experiments, name), []

        def broken(*args):
            calls.append(args)
            out = real(*args)
            return wrong(out) if len(calls) == k else out

        monkeypatch.setattr(experiments, name, broken)

    def test_closed_form(self, monkeypatch):
        # calls run Paley m = 0..4, then Kaczmarz m = 0..4
        self.break_call(monkeypatch, "dirichlet", 8, plus_one)
        report = verify_closed_form(4)
        assert report.passed is False
        assert report.witness == {"failures": [{"system": "kaczmarz", "m": 2}], "checked": 10}

    def test_permutation_equivalence(self, monkeypatch):
        def broken(rows):  # row 7 (from 1), w_sigma(6), comes out with its first cell negated
            rows = rows.copy()
            rows[6, 0] *= -1
            return rows

        self.break_call(monkeypatch, "walsh_paley_rows", 1, broken)
        report = verify_permutation_equivalence(4)
        assert report.passed is False
        assert report.witness == {"first_mismatch": {"n": 6, "sigma_n": kaczmarz_paley_index(6)}}

    def test_fejer_partial_identity(self, monkeypatch):
        # each m stacks one row per n in (2^m, 2^(m+1)]: 15 rows per trial at depth 4;
        # row 15 + 1 + 2 + 2 is trial 1's m = 2, n = 6
        real, rows = experiments._fejer_rows, itertools.count(1)

        def broken(*args):  # the 20th row over all stacks comes out one too large
            return [plus_one(row) if next(rows) == 20 else row for row in real(*args)]

        monkeypatch.setattr(experiments, "_fejer_rows", broken)
        report = verify_fejer_partial_identity(4, 2, seed=0)
        assert report.passed is False
        assert report.witness == {"checked": 15 + 5,
                                  "first_failure": {"trial": 1, "m": 2, "n": 6}}

    def test_kernel_decomposition(self, monkeypatch):
        # i = 1 makes calls s = 0..3, then i = 2 makes s = 0..15
        self.break_call(monkeypatch, "compose_with_tau", 7, plus_one)
        report = verify_kernel_decomposition(6)
        assert report.passed is False
        assert report.witness == {"checked": 7, "first_failure": {"i": 2, "s": 2}}

    # at depth 3 each trial stacks 16 sign points, so the stacked operations
    # give 16 rows per trial: row k is trial (k - 1) // 16, t = (k - 1) % 16
    @pytest.mark.parametrize("name, k, wrong, trial, t, kind", [
        ("_signed_sup_abs", 22, lambda rows, i: (row_changed(rows[0], i, plus_den), rows[1]),
         1, 5, "no-shift"),
        ("_signed_sup_abs", 19, lambda rows, i: (rows[0], row_changed(rows[1], i, plus_den)),
         1, 2, "lacunary-multiset"),
        # the peak moved by a translate keeps its value multiset but not its cells
        ("_signed_sup_abs", 27, lambda rows, i: (rows[0], row_changed(rows[1], i, xor_five)),
         1, 10, "lacunary-multiset"),
        ("_signed_square_sum", 4, lambda rows, i: row_changed(rows, i, plus_den),
         0, 3, "square-function"),
    ], ids=["no-shift", "lacunary-multiset", "lacunary-translate", "square-function"])
    def test_conjugate_translation(self, monkeypatch, name, k, wrong, trial, t, kind):
        real, seen = getattr(experiments, name), [0]

        def broken(f, signs):  # the k-th row (from 1) over all stacks comes out as wrong says
            first, seen[0] = seen[0], seen[0] + len(signs)
            out = real(f, signs)
            return wrong(out, k - 1 - first) if first < k <= seen[0] else out

        monkeypatch.setattr(experiments, name, broken)
        report = verify_conjugate_translation(3, 2, seed=0)
        assert report.passed is False
        assert report.witness["first_failure"] == {"trial": trial, "t": t, "kind": kind}
        checked = 16 * trial + t + 1
        assert report.witness["checked"] == checked
        assert report.witness["shifts_found"] == checked - (kind == "no-shift")
        assert report.rows is None


def row_changed(rows: tuple, i: int, change) -> tuple:
    """The stack (numerators, den) with row i replaced by change(row, den)."""
    num, den = rows[0].copy(), rows[1]
    num[i] = change(num[i], den)
    return num, den


def plus_den(row, den):  # the row's values plus one
    return row + den


def xor_five(row, den):  # the row translated by 5
    return row[np.arange(len(row)) ^ 5]


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
