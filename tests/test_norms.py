"""Quasi-norms, weak norms, translation, moduli, approximation brackets."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (DyadicInterval, DyadicMartingale, GroupPoint, SampledFunction,
                     approx_bracket, dirichlet, fejer_mean, fwht, lp_quasinorm, modulus_lp,
                     normalize_p, partial_sum, plancherel_power_sums, translate,
                     translate_norm_profile, walsh_paley_samples, weak_lp)
from dyadlab.norms import _shift_power_sums


def random_exact(rng, N):
    return SampledFunction(N, [rng.randint(-9, 9) for _ in range(1 << N)])


def random_float(rng, N):
    return SampledFunction(N, np.array([rng.uniform(-1, 1) for _ in range(1 << N)]))


class TestLp:
    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("measure", [lp_quasinorm, weak_lp, translate_norm_profile],
                             ids=["lp_quasinorm", "weak_lp", "translate_norm_profile"])
    def test_non_finite_p_is_refused(self, measure, p):
        # the sup norm of [1, 2] is 2; an L_p formula at p = inf would read 1
        with pytest.raises(ValueError, match=f"exponent p must be finite, got {p}"):
            measure(SampledFunction(1, [1, 2]), p)

    def test_constant(self):
        f = SampledFunction.constant(-3, 4)
        assert lp_quasinorm(f, 1).value == 3
        assert lp_quasinorm(f, 2).power_sum == 9

    def test_block_kernel_l1(self):
        for n in range(5):
            assert lp_quasinorm(dirichlet("paley", 1 << n, 5), 1).value == 1

    def test_normalized_indicator(self):
        # 2^{n/p} 1_{I_n} has unit p-norm; p = 1 exact, p = 2 via power sum
        n = 3
        f = SampledFunction.indicator(DyadicInterval.at_zero(n, 5), 5, scale=1 << n)
        assert lp_quasinorm(f, 1).value == 1
        g = SampledFunction.indicator(DyadicInterval.at_zero(4, 5), 5, scale=4)
        assert lp_quasinorm(g, 2).power_sum == 1

    def test_bad_exponent(self):
        f = SampledFunction.constant(1, 2)
        with pytest.raises(ValueError):
            lp_quasinorm(f, 0)
        with pytest.raises(ValueError):
            lp_quasinorm(f, Fraction(-1, 2))

    def test_exponent_whose_float_is_zero(self):
        # 2^-1074 is the least positive float; 2^-1075 and below round to 0
        for p in (Fraction(1, 1 << 1075), Fraction(-3, 10 ** 400), "1e-400"):
            with pytest.raises(ValueError, match="^exponent p is nonzero but its float is 0$"):
                normalize_p(p)
        tiny = Fraction(1, 1 << 1074)
        assert normalize_p(tiny) == tiny and float(tiny) == 2.0 ** -1074
        assert normalize_p(Fraction(3, 1 << 1076)) == Fraction(3, 1 << 1076)  # rounds up
        assert normalize_p(0) == 0 and normalize_p(10 ** 400) == 10 ** 400

    def test_float_matches_exact(self):
        rng = random.Random(0)
        f = random_exact(rng, 6)
        for p in (1, 2, Fraction(1, 2), 1.7):
            a = float(lp_quasinorm(f, p))
            b = float(lp_quasinorm(f.to_float(), p))
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_power_subadditive_below_one(self):
        rng = random.Random(1)
        p = Fraction(1, 2)
        for _ in range(20):
            f, g = random_exact(rng, 5), random_exact(rng, 5)
            lhs = lp_quasinorm(f + g, p).power_sum
            rhs = lp_quasinorm(f, p).power_sum + lp_quasinorm(g, p).power_sum
            assert lhs <= rhs + 1e-9

    def test_triangle_above_one(self):
        rng = random.Random(2)
        for p in (1, 2, 4):
            for _ in range(10):
                f, g = random_exact(rng, 5), random_exact(rng, 5)
                assert float(lp_quasinorm(f + g, p)) <= \
                    float(lp_quasinorm(f, p)) + float(lp_quasinorm(g, p)) + 1e-9


class TestWeakLp:
    def test_unimodular(self):
        f = SampledFunction(3, walsh_paley_samples(5, 3))
        assert weak_lp(f, Fraction(1, 4)).value == 1
        assert weak_lp(f, 2).value == 1

    def test_scaled_indicator(self):
        # c * 1_{I_n}: single jump at level c with tail measure 2^{-n}
        f = SampledFunction.indicator(DyadicInterval.at_zero(2, 5), 5, scale=7)
        assert weak_lp(f, 1).value == Fraction(7, 4)
        assert weak_lp(f, Fraction(1, 2)).value == Fraction(7, 16)

    def test_chebyshev_containment(self):
        rng = random.Random(3)
        for p in (Fraction(1, 2), 1, 2):
            for _ in range(20):
                f = random_exact(rng, 6)
                assert float(weak_lp(f, p)) <= float(lp_quasinorm(f, p)) + 1e-9

    @settings(max_examples=30)
    @given(st.integers(-60, 60), st.integers(0, 2 ** 16 - 1))
    def test_homogeneity_exact(self, c, seed):
        rng = random.Random(seed)
        f = random_exact(rng, 4)
        p = Fraction(1, 2)
        assert weak_lp(f.scale(c), p).value == abs(c) * weak_lp(f, p).value

    def test_zero_function(self):
        assert weak_lp(SampledFunction.constant(0, 3), 1).value == 0

    def test_float_matches_exact(self):
        rng = random.Random(4)
        f = random_exact(rng, 6)
        for p in (Fraction(1, 4), Fraction(1, 2), 1, 2):
            a = float(weak_lp(f, p))
            b = float(weak_lp(f.to_float(), p))
            assert math.isclose(a, b, rel_tol=1e-12)


def weak_lp_by_fraction_scan(f, p):
    """Exact weak-L_p as a scan of every sorted cell magnitude (reference).

    With 1/p an integer each candidate is a Fraction; otherwise it is the
    float of each cell times a float power.  Returns (value, exact).
    """
    p = normalize_p(p)
    size = len(f)
    magnitudes = sorted(np.abs(f.values).tolist(), reverse=True)
    if isinstance(p, Fraction) and p.numerator == 1:
        best = Fraction(0)
        for count, v in enumerate(magnitudes, start=1):
            if v == 0:
                break
            cand = v * Fraction(count, size) ** p.denominator
            if cand > best:
                best = cand
        return best, True
    best = 0.0
    for count, v in enumerate(magnitudes, start=1):
        if v == 0:
            break
        cand = float(v) * (count / size) ** (1.0 / float(p))
        if cand > best:
            best = cand
    return best, False


WEAK_P = (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), 2)


def weak_cases(rng):
    """Seeded exact functions: ties, zeros, negatives, mixed denominators."""
    yield SampledFunction.constant(0, 4)
    for N in (0, 1, 3, 6):
        size = 1 << N
        yield SampledFunction(N, [rng.randint(-3, 3) for _ in range(size)])
        yield SampledFunction(N, [rng.choice([0, 0, 0, -5, 5, 2]) for _ in range(size)])
        yield SampledFunction(N, [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 8]))
                                  for _ in range(size)])
        yield SampledFunction(N, [rng.choice([Fraction(-7, 3), Fraction(7, 3), 2, -2, 0])
                                  for _ in range(size)])
        yield SampledFunction(N, [rng.randint(-2**70, 2**70) // rng.choice([1, 3])
                                  for _ in range(size)])


class TestWeakLpOracle:
    def test_matches_fraction_scan(self):
        rng = random.Random(11)
        for f in weak_cases(rng):
            for p in WEAK_P:
                got = weak_lp(f, p)
                value, exact = weak_lp_by_fraction_scan(f, p)
                assert got.exact is exact
                assert type(got.value) is type(value)
                assert got.value == value, (f, p)

    def test_operator_outputs_match_fraction_scan(self):
        f = DyadicMartingale.from_paley_coeffs(6, list(range(-32, 32)))
        g = fejer_mean(f, "kaczmarz", 9) - f.terminal_function()
        for p in WEAK_P:
            assert weak_lp(g, p).value == weak_lp_by_fraction_scan(g, p)[0]


# numerators above 2^53 whose float(Fraction) differs from float(num) / 3:
# an int64 -> float64 cast would round before dividing
WIDE = [Fraction(2**53 + 65, 3), Fraction(-(2**53) - 65, 3), Fraction(2**53 + 5, 3), 0,
        Fraction(1, 3), Fraction(-(2**53) - 3, 3), 0, 7]


class TestFloatReadout:
    def test_per_cell_rounding_matters(self):
        assert all(float(v) != float(v.numerator) / 3 for v in WIDE[:3])

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), 0.7, Fraction(3, 2)])
    def test_lp_quasinorm_float_p(self, p):
        f = SampledFunction(3, WIDE)
        pf = float(p)
        power_sum = math.fsum(abs(float(v)) ** pf for v in WIDE) / 8
        got = lp_quasinorm(f, p)
        assert got.power_sum == power_sum and not got.exact
        assert got.value == power_sum ** (1.0 / pf)

    @pytest.mark.parametrize("p", [Fraction(2, 3), 2, 0.7])
    def test_weak_lp_float_p(self, p):
        f = SampledFunction(3, WIDE)
        got = weak_lp(f, p)
        assert (got.value, got.exact) == weak_lp_by_fraction_scan(f, p)

    def test_translate_norm_profile(self):
        f = SampledFunction(3, WIDE)
        g = SampledFunction(3, np.array([float(v) for v in WIDE]))
        assert translate_norm_profile(f, 2).tobytes() == translate_norm_profile(g, 2).tobytes()


class TestTranslate:
    def test_zero_shift(self):
        f = SampledFunction(3, list(range(8)))
        assert translate(f, GroupPoint.zero(3)) == f

    def test_character_eigenfunction(self):
        N = 4
        for n in (1, 5, 11):
            f = SampledFunction(N, walsh_paley_samples(n, N))
            for h_idx in range(16):
                h = GroupPoint(N, h_idx)
                assert translate(f, h) == f.scale(f[h_idx])

    def test_indicator_moves(self):
        f = SampledFunction.indicator(DyadicInterval.at_zero(1, 3), 3)
        moved = translate(f, GroupPoint.unit(0, 3))
        expected = SampledFunction.indicator(
            DyadicInterval(1, GroupPoint.unit(0, 3)), 3)
        assert moved == expected

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            translate(SampledFunction.constant(1, 3), GroupPoint.zero(4))


class TestModulus:
    def test_coarse_measurable_vanishes(self):
        # constant on rank-2 cells => shifts inside I_2 change nothing
        f = SampledFunction(4, [j & 3 for j in range(16)])
        assert float(modulus_lp(f, 2, 1)) == 0
        assert float(modulus_lp(f, 3, 2)) == 0

    def test_rademacher_full_shift(self):
        f = SampledFunction(3, walsh_paley_samples(1, 3))
        for p in (1, 2, Fraction(1, 2)):
            assert math.isclose(float(modulus_lp(f, 0, p)), 2.0, rel_tol=1e-12)

    def test_block_character(self):
        for n in (1, 2, 3):
            f = SampledFunction(5, walsh_paley_samples(1 << n, 5))
            assert math.isclose(float(modulus_lp(f, n, 2)), 2.0, rel_tol=1e-12)

    def test_nonincreasing_in_rank(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_exact(rng, 5)
            values = [float(modulus_lp(f, n, 1)) for n in range(6)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rank_error(self):
        with pytest.raises(ValueError):
            modulus_lp(SampledFunction.constant(1, 3), 4, 1)

    def test_float_matches_exact(self):
        rng = random.Random(6)
        f = random_exact(rng, 5)
        for n in range(4):
            a = float(modulus_lp(f, n, 1))
            b = float(modulus_lp(f.to_float(), n, 1))
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_profile_matches_modulus(self):
        rng = random.Random(7)
        f = random_float(rng, 6)
        p = 2
        profile = translate_norm_profile(f, p)
        for n in range(7):
            mask = [h for h in range(64) if h & ((1 << n) - 1) == 0]
            best = max(profile[h] for h in mask)
            assert math.isclose(best, modulus_lp(f, n, p).power_sum,
                                rel_tol=1e-12, abs_tol=1e-15)


def profile_by_fractions(cells, p):
    """||f(.+h) - f||_p^p of float cells as exact Fractions, each rounded once (reference)."""
    x = [Fraction(v) for v in cells.tolist()]
    size = len(x)
    out = []
    for h in range(size):
        exact = Fraction(sum((x[j ^ h] - x[j]) ** p for j in range(size)), size)
        try:
            out.append(float(exact))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def gather_profile(cells, p):
    return _shift_power_sums(cells, np.arange(cells.size), float(p)) / cells.size


def profile_inputs(rng, N, p):
    """Float cells a float64 correlation would get wrong, and plain ones."""
    size = 1 << N
    uniform = np.array([rng.uniform(-1, 1) for _ in range(size)])
    yield "uniform", uniform
    yield "nearly constant", 1.0 + 2.0 ** -40 * uniform  # cancels in a float correlation
    yield "wide span", np.array([rng.choice([1, -1]) * rng.random() * 2.0 ** rng.randint(-1074, 250)
                                 for _ in range(size)])
    yield "subnormal cells", np.array([rng.choice([0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1022])
                                       for _ in range(size)])
    yield "subnormal sums", uniform * 2.0 ** (-1040 // p)
    yield "zero", np.zeros(size)


class TestProfileOracle:
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("N", [0, 1, 3, 6])
    def test_matches_rounded_fraction_sum(self, N, p):
        rng = random.Random(100 * N + p)
        for name, cells in profile_inputs(rng, N, p):
            got = translate_norm_profile(SampledFunction(N, cells), p)
            assert got[0] == 0.0, name
            assert got.tobytes() == profile_by_fractions(cells, p).tobytes(), name

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # in the gather
    @pytest.mark.parametrize("p", [4, 6])
    def test_overflow_is_inf_like_the_gather(self, p):
        rng = random.Random(p)
        cells = np.array([rng.choice([-1e100, 0.0, 1e100, 3e99]) for _ in range(64)])
        got = translate_norm_profile(SampledFunction(6, cells), p)
        assert np.isinf(got).sum() > 0 and got[0] == 0.0
        assert got.tobytes() == gather_profile(cells, p).tobytes()
        assert got.tobytes() == profile_by_fractions(cells, p).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the gather
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cells_take_the_gather(self, bad, p):
        rng = random.Random(3)
        cells = np.array([rng.uniform(-1, 1) for _ in range(16)])
        cells[5] = bad
        got = translate_norm_profile(SampledFunction(4, cells), p)
        assert got.tobytes() == gather_profile(cells, p).tobytes()


class TestApproxBracket:
    def test_low_spectrum_exact_zero(self):
        f = partial_sum(SampledFunction(4, list(range(16))), "paley", 4)
        br = approx_bracket(f, 2, 2)
        assert br.lower == br.upper == 0
        assert br.l2_value == 0

    def test_l2_exact_is_tail_energy(self):
        rng = random.Random(8)
        f = random_exact(rng, 5)
        for n in range(6):
            br = approx_bracket(f, n, 2)
            coeffs = fwht(f)
            energy = sum(c * c for c in coeffs.coeffs[1 << n:])
            assert br.l2_tail_energy == energy
            assert type(br.l2_tail_energy) is type(energy)  # int 0 once the tail is empty
            assert br.lower - 1e-12 <= br.l2_value <= br.upper + 1e-12

    def test_l2_float_is_tail_energy(self):
        rng = random.Random(8)
        f = SampledFunction(5, np.array([rng.uniform(-1, 1) for _ in range(32)]))
        for n in range(6):
            br = approx_bracket(f, n, 2)
            energy = sum(c * c for c in fwht(f).coeffs[1 << n:].tolist())
            assert type(br.l2_tail_energy) is float
            assert br.l2_tail_energy == pytest.approx(energy, rel=1e-12, abs=1e-15)

    def test_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            approx_bracket(SampledFunction.constant(1, 3), 1, Fraction(1, 2))

    def test_watari_sandwich_random(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_exact(rng, 5)
            for p in (1, 2, 4):
                for n in range(6):
                    tail = float(lp_quasinorm(f - partial_sum(f, "paley", 1 << n), p))
                    omega = float(modulus_lp(f, n, p))
                    assert omega / 2 <= tail + 1e-9
                    assert tail <= omega + 1e-9


class TestPlancherel:
    def test_exact(self):
        rng = random.Random(10)
        for _ in range(10):
            f = random_exact(rng, 6)
            lhs, rhs = plancherel_power_sums(f)
            assert lhs == rhs

    def test_float(self):
        rng = random.Random(11)
        f = random_float(rng, 8)
        lhs, rhs = plancherel_power_sums(f)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)
