"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; each test hard-fails if its criterion is not met.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

import dyadlab as dl
from dyadlab import experiments as ex
from dyadlab.cli import main as cli_main

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_c01_block_dirichlet_closed_form():
    """dirichlet(system, 2^m, 12) == 2^m 1_{I_m}, both systems, m <= 10."""
    start = time.perf_counter()
    N = 12
    for system in ("paley", "kaczmarz"):
        for m in range(11):
            expected = dl.SampledFunction.indicator(
                dl.DyadicInterval.at_zero(m, N), N, scale=1 << m)
            assert dl.dirichlet(system, 1 << m, N) == expected, (system, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report("1", f"22 kernels exact at N=12 in {elapsed:.1f}s")


def test_c02_permutation_equivalence_exhaustive():
    """kappa_n == w_{sigma(n)} pointwise for every n < 2^10 at N = 10."""
    N = 10
    size = 1 << N
    idx = np.arange(size, dtype=np.int64)
    rad = [1 - 2 * ((idx >> k) & 1) for k in range(N)]  # r_k sample rows
    sigma = dl.sigma_permutation(N)
    for n in range(size):
        if n == 0:
            kacz = np.ones(size, dtype=np.int64)
        else:
            A = dl.msb(n)
            kacz = rad[A].copy()  # definitional product, digits reversed
            for k in range(A):
                if n >> k & 1:
                    kacz *= rad[A - 1 - k]
        paley = 1 - 2 * (np.bitwise_count(idx & sigma[n]).astype(np.int64) & 1)
        assert np.array_equal(kacz, paley), f"mismatch at n={n}"
    report("2", f"all {size} characters at N={N}, zero tolerance")


def test_c03_kernel_l1_bound():
    """max_{1<=n<=512} ||K_n||_1 <= 2 in exact rationals at N = 12."""
    start = time.perf_counter()
    r = ex.verify_yano(512, 12)
    elapsed = time.perf_counter() - start
    assert r.passed
    assert r.witness["max_l1_norm"] <= 2
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report("3", f"max ||K_n||_1 = {r.witness['max_l1_norm']} "
                f"(~{float(r.witness['max_l1_norm']):.4f}) at n = "
                f"{r.witness['argmax_n']}, {elapsed:.1f}s")


def test_c04_lacunary_kernel_lower_bound():
    """Exhaustive pass for A in {3,4,5}; minimal slack > 0, exact mode."""
    slacks = {}
    for A in (3, 4, 5):
        r = ex.verify_lemma2(A)
        assert r.passed, f"A={A}"
        assert r.witness["min_slack"] > 0, f"A={A} slack {r.witness['min_slack']}"
        assert r.mode == "exact"
        slacks[A] = r.witness["min_slack"]
    report("4", f"min slack per A: {slacks}")


def test_c05_fejer_partial_sum_identity():
    """sigma_n^k S_{2^m}f - S_{2^m}f == (2^m/n) S_{2^m}(sigma_{2^m}f - f), exact.

    50 seeded integer-coefficient martingales, all m <= 6, all
    2^m < n <= 2^{m+1}; a seeded sample of the cases is re-checked through
    the definitional Fejer average to bind the two computation routes.
    """
    r = ex.verify_fejer_partial_identity(7, 50, seed=2024, m_max=6)
    assert r.passed and r.witness["checked"] == 50 * 127
    rng = random.Random(99)
    f = ex.random_exact_martingale(rng, 7)
    for m in (2, 5):
        smf = dl.s2n(f, m)
        for n in ((1 << m) + 1, (1 << (m + 1))):
            assert dl.fejer_mean(smf, "kaczmarz", n) == \
                dl.fejer_mean_by_average(smf, "kaczmarz", n)
    report("5", f"{r.witness['checked']} identities, zero tolerance")


def test_c06_kernel_decomposition():
    """D^k_{s+2^{2^i}} == D_{2^{2^i}} + r_{2^i}(D_s^w o tau_{2^i}), N = 10."""
    r = ex.verify_kernel_decomposition(10)
    assert r.passed and r.witness["checked"] == 4 + 16
    report("6", "i in {1,2}, all s < 2^{2^i}, exact at N=10")


def test_c07_conjugate_transform():
    """Conjugation matches its translation and preserves H_p, depth 5.

    Block-lacunary martingales with vanishing constant term: for every
    sign point t (64 of them) the solved shift reproduces the conjugate
    exactly and the maximal-function value multiset is unchanged, which
    forces ||f~||_{H_p} = ||f||_{H_p} for every p; p in {1/4, 1/2, 1}
    are also compared numerically.
    """
    M = 5
    rng = random.Random(7)
    checked = 0
    for _ in range(10):
        f = ex.random_lacunary_martingale(rng, M)
        f_max = sorted(dl.maximal(f).values)
        norm1 = dl.hardy_quasinorm(f, 1).value
        for t_index in range(1 << (M + 1)):
            t = dl.GroupPoint(M + 1, t_index)
            shift = dl.conjugate_shift(f, t)
            assert shift is not None
            conj = dl.conjugate(f, t)
            assert dl.translate(f.terminal_function(), shift) == \
                conj.terminal_function()
            assert sorted(dl.maximal(conj).values) == f_max  # all H_p equal
            assert dl.hardy_quasinorm(conj, 1).value == norm1  # exact rational
            for p in (QUARTER, HALF):
                a = float(dl.hardy_quasinorm(f, p))
                b = float(dl.hardy_quasinorm(conj, p))
                assert math.isclose(a, b, rel_tol=1e-12)
            checked += 1
    report("7", f"{checked} (martingale, sign-point) pairs at depth {M}")


def test_c08_coefficient_audits():
    """Family spectra match their closed forms exactly."""
    fam1 = ex.build_t1(QUARTER, 8, 10)
    coeffs = fam1.martingale.terminal.coeffs
    assert coeffs[0] == 0
    for i in range(9):
        for j in range(1 << i, 1 << (i + 1)):
            assert coeffs[j] == 1 << i
    assert all(c == 0 for c in coeffs[1 << 9:])
    assert ex.audit_family(fam1).passed

    fam2 = ex.build_t2(3, 10)
    coeffs2 = fam2.martingale.terminal.coeffs
    occupied = {}
    for i in (1, 2, 3):
        for j in range(1 << (1 << i), 1 << ((1 << i) + 1)):
            occupied[j] = (1 << (1 << i)) // (1 << (2 * i))
    for j in range(1 << 10):
        assert coeffs2[j] == occupied.get(j, 0)
    assert ex.audit_family(fam2).passed
    report("8", "t1 blocks <= 8 and t2 blocks i <= 3, exact")


def test_c09_t1_rate_stability():
    """omega_{H_{1/4}}(1/2^n) / 2^{-2n} varies by < 2x over n in {3..8}."""
    rows = ex.rate_table_t1(QUARTER, range(3, 9), L=12, M=13)
    ratios = [row["ratio"] for row in rows]
    spread = max(ratios) / min(ratios)
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    assert spread < 2.0, f"spread {spread:.3f}"
    report("9", f"ratio in [{min(ratios):.3f}, {max(ratios):.3f}], "
                f"spread {spread:.3f} < 2")


def test_c10_t2_rate_stability():
    """omega_{H_{1/2}}(1/2^n) * n^2 bounded and stable over n in {4..9}.

    Stability pinned as max/min <= 6 and max <= 8 (the factor-4 swing of
    n^2 inside one dyadic run is intrinsic to the piecewise-constant
    modulus).
    """
    rows = ex.rate_table_t2(range(4, 10), blocks=5)
    scaled = [row["scaled"] for row in rows]
    assert all(v > 0 for v in scaled)
    assert max(scaled) <= 8.0, f"max {max(scaled):.3f}"
    assert max(scaled) / min(scaled) <= 6.0, \
        f"spread {max(scaled) / min(scaled):.3f}"
    report("10", f"omega*n^2 in [{min(scaled):.3f}, {max(scaled):.3f}]")


def test_c11_t1_weak_divergence():
    """||sigma_{2^n+1} f - f^(M)||_{L_{1/4,oo}} >= 0.5, n in {4..8}, M = 10.

    The values dip while the Fejer transient decays, then climb toward 1
    with the 2^n/(2^n+1) weight: pinned as >= 0.5 everywhere and
    non-decreasing from the minimum on.
    """
    r = ex.divergence_t1(ex.build_t1(QUARTER, 9, 10), [4, 5, 6, 7, 8])
    values = [float(row["weak_norm"]) for row in r.rows]
    assert all(v >= 0.5 for v in values), values
    turn = values.index(min(values))
    tail = values[turn:]
    assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:])), values
    assert values[-1] >= 0.5
    drift = max(abs(float(row["weak_norm_depth_plus_1"]) - float(row["weak_norm"]))
                for row in r.rows)
    report("11", f"values {['%.3f' % v for v in values]}, depth drift {drift:.1e}")


def test_c12_t2_half_norm_divergence():
    """||sigma_{q_{2^{i-1}}} f - f^(M)||_{1/2} non-vanishing, i in {2,3}, M=10;
    kernel half-integral grows by >= 1.5 from i=2 to i=3."""
    r = ex.divergence_t2(ex.build_t2(3, 10), [2, 3])
    values = [row["quasi_norm"] for row in r.rows]
    assert all(v > 0.01 for v in values), values
    growth = r.witness["kernel_growth_2_to_3"]
    assert growth >= 1.5, growth
    drift = max(row["depth_drift"] for row in r.rows)
    assert drift < 0.01
    report("12", f"quasi-norms {['%.3f' % v for v in values]}, "
                 f"kernel growth {growth:.2f}, depth drift {drift:.1e}")


def test_c13_block_fejer_convergence():
    """||sigma_{2^n} f - f^(M)||_{H_p} eventually decreasing, final < 1e-2 ||f||.

    20 seeded block-decaying random martingales at M = 10, p in {1/2, 1};
    'eventually decreasing' pinned as nonincreasing over the last four
    orders (from n = M-3 on).
    """
    M = 10
    rng = random.Random(31)
    for trial in range(20):
        f = ex.random_decaying_martingale(rng, M)
        term = f.terminal_function()
        for p in (HALF, 1):
            base = float(dl.hardy_quasinorm(f, p))
            errs = []
            for n in range(1, M + 1):
                diff = dl.fejer_mean(f, "kaczmarz", 1 << n) - term
                errs.append(float(dl.hardy_quasinorm(
                    dl.DyadicMartingale.from_function(diff), p)))
            tail = errs[-4:]
            assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:])), \
                (trial, p, errs)
            assert errs[-1] < 1e-2 * base, (trial, p, errs[-1], base)
    report("13", "20 martingales, p in {1/2, 1}, final error < 1% of norm")


def test_c14_norm_machinery():
    """Plancherel exact; Watari brackets for 200 f; weak-L_p <= L_p for 200 f."""
    N = 10
    rng = random.Random(1001)
    # Plancherel, exact mode, zero tolerance
    for _ in range(25):
        f = dl.SampledFunction(6, [rng.randint(-30, 30) for _ in range(64)])
        lhs, rhs = dl.plancherel_power_sums(f)
        assert lhs == rhs
    # Watari double inequalities, 200 float functions, p in {1,2,4}, n <= 10
    eps = 1e-9
    for trial in range(200):
        f = ex.random_sampled_function(rng, N)
        spectrum = dl.fwht(f)
        tails = {}
        for n in range(N + 1):
            arr = np.asarray(spectrum.coeffs).copy()
            arr[1 << n:] = 0.0
            tails[n] = f - dl.inverse_fwht(
                dl.CoefficientSequence(N, "paley", arr))
        for p in (1, 2, 4):
            profile = dl.translate_norm_profile(f, p)
            for n in range(N + 1):
                mask = np.arange(1 << N) & ((1 << n) - 1) == 0
                omega = float(np.max(profile[mask])) ** (1.0 / p)
                t = float(dl.lp_quasinorm(tails[n], p))
                assert omega / 2 <= t + eps, (trial, p, n)
                assert t <= omega + eps, (trial, p, n)
                if p == 2:
                    energy = float(np.sum(
                        np.square(np.asarray(spectrum.coeffs)[1 << n:])))
                    e2 = math.sqrt(energy)
                    assert t / 2 - eps <= e2 <= t + eps
    # Chebyshev containment, 200 functions, p in {1/2, 1, 2}
    for trial in range(200):
        f = ex.random_sampled_function(rng, 8)
        for p in (HALF, 1, 2):
            assert float(dl.weak_lp(f, p)) <= float(dl.lp_quasinorm(f, p)) + eps
    report("14", "Plancherel exact, 200x Watari (p=1,2,4), 200x weak<=Lp")


def test_c15_determinism(tmp_path):
    """Identical config and seed produce byte-identical reports."""
    out = tmp_path / "report.json"
    snapshots = []
    for _ in range(2):
        code = cli_main(["verify", "lemma2", "--A", "4", "--out", str(out)])
        assert code == 0
        snapshots.append(out.read_bytes())
    assert snapshots[0] == snapshots[1]
    body = json.loads(snapshots[0])
    assert body["reports"][0]["verdict"] == "pass"

    out_csv = tmp_path / "table.csv"
    csv_snaps = []
    for _ in range(2):
        code = cli_main(["converge", "--family", "random", "--p", "1/2",
                         "--depth", "6", "--n-max", "8", "--seed", "17",
                         "--format", "csv", "--out", str(out_csv)])
        assert code == 0
        csv_snaps.append(out_csv.read_bytes())
    assert csv_snaps[0] == csv_snaps[1]
    report("15", "json and csv reports byte-identical across reruns "
                 "(lemma2, seeded converge)")
