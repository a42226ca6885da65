"""Truncated spectra synthesize their own head of 2^r cells and tile it.

S_n f, sigma_n f, D_n, n K_n and the martingale levels have Paley spectra
that vanish from cell 2^r on, r = (n-1).bit_length(), so `walsh`
butterflies only that head.  The oracle here is the full-width route:
the multiplier over all 2^N cells from its definition, the spectrum zeroed
wherever it vanishes, and one butterfly of all 2^N cells.  Values, readout
types and the numerator dtype must agree; float cells compare with
np.array_equal, since zero padding can only flip the sign of a zero.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import (DyadicMartingale, SampledFunction, System, dirichlet, fejer, fejer_mean,
                     fejer_numerators, kaczmarz_paley_index, partial_sum)
from dyadlab import walsh
from dyadlab.experiments import random_decaying_martingale, random_exact_martingale
from dyadlab.walsh import _butterfly_array, _butterflied, _product, _zeroed

MAX = 2**63 - 1
SYSTEMS = (System.PALEY, System.KACZMARZ)


def multiplier(system: System, n: int, N: int) -> np.ndarray:
    """n - i at the Paley index of system function i < n, over all 2^N cells."""
    w = np.zeros(1 << N, dtype=np.int64)
    for i in range(n):
        w[i if system is System.PALEY else kaczmarz_paley_index(i)] = n - i
    return w


def full_partial_sum(f: DyadicMartingale, w: np.ndarray) -> SampledFunction:
    """The spectrum zeroed where w is 0, in lowest terms, then one 2^N butterfly."""
    kept = _zeroed(f.terminal, w == 0)
    return SampledFunction._of(f.depth, _butterflied(kept._num), kept._den,
                               bool(np.any(kept._frac)))


def full_fejer_mean(f: DyadicMartingale, w: np.ndarray, n: int) -> SampledFunction:
    """The spectrum zeroed where w is 0 and weighted by w / n, then one 2^N butterfly.

    Exact numerators are weighted as they are stored: the product c * w is
    butterflied before it is put in lowest terms over den * n.
    """
    spec = f.terminal
    num = np.where(w != 0, spec._num, 0)
    if not spec.is_exact:
        return SampledFunction._of(f.depth, _butterflied(num * (w / n)))
    return SampledFunction._of(f.depth, _butterflied(_product(num, w)), spec._den * n, True)


def assert_same(got: SampledFunction, want: SampledFunction) -> None:
    assert got.resolution == want.resolution and got.mode == want.mode
    if not got.is_exact:
        assert np.array_equal(got.values, want.values)
        return
    assert got.values.tolist() == want.values.tolist()
    assert [type(v) for v in got.values.tolist()] == [type(v) for v in want.values.tolist()]
    assert got._num.dtype == want._num.dtype


def check_every_order(f: DyadicMartingale) -> None:
    N = f.depth
    for system in SYSTEMS:
        for n in range((1 << N) + 1):
            w = multiplier(system, n, N)
            assert_same(partial_sum(f, system, n), full_partial_sum(f, w))
            if n:
                assert_same(fejer_mean(f, system, n), full_fejer_mean(f, w, n))
    for k in range(N + 1):
        assert_same(f.level(k), full_partial_sum(f, multiplier(System.PALEY, 1 << k, N)))


def fraction_martingale(rng: random.Random, N: int) -> DyadicMartingale:
    """Paley coefficients mixing ints and Fractions, so cells of both readouts are dropped."""
    coeffs = [rng.randint(-9, 9) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9),
                                                                    rng.choice((2, 3, 4, 12)))
              for _ in range(1 << N)]
    return DyadicMartingale.from_paley_coeffs(N, coeffs)


FAMILIES = {
    "int": lambda rng, N: random_exact_martingale(rng, N),
    "fraction": fraction_martingale,
    "float": lambda rng, N: random_decaying_martingale(rng, N),
}


@pytest.mark.parametrize("N", range(7))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_operators_match_the_full_width_route(family, N):
    check_every_order(FAMILIES[family](random.Random(100 + N), N))


EDGE = st.one_of(st.integers(MAX - 2**8, MAX), st.integers(-MAX, -MAX + 2**8),
                 st.integers(-3, 3))


@settings(max_examples=40)
@example(case=(2, [0, 0, MAX, MAX], 1))  # sigma_2 drops both: the product stays int64
@example(case=(2, [1, 2, 3, MAX], 1))  # S_3 and sigma_3 drop MAX, but it is in their head
@given(st.integers(0, 4).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(EDGE, min_size=1 << N, max_size=1 << N), st.sampled_from((1, 2, 6)))))
def test_int64_edge_matches_the_full_width_route(case):
    N, nums, den = case
    check_every_order(DyadicMartingale.from_paley_coeffs(N, [Fraction(v, den) for v in nums]
                                                         if den > 1 else nums))


@pytest.mark.parametrize("N", range(7))
@pytest.mark.parametrize("system", SYSTEMS)
def test_kernels_match_the_full_width_route(system, N):
    for n in range((1 << N) + 1):
        w = multiplier(system, n, N)
        got = fejer_numerators(system, n, N)
        assert got.dtype == np.int64 and got.flags.writeable
        assert np.array_equal(got, _butterfly_array(w))
        assert_same(dirichlet(system, n, N),
                    SampledFunction._of(N, _butterfly_array(np.minimum(w, 1))))
        if n:
            assert_same(fejer(system, n, N),
                        SampledFunction._of(N, _butterfly_array(w), n, True))


def test_kernel_numerators_are_a_fresh_array():
    first = fejer_numerators(System.KACZMARZ, 3, 4)
    first[:] = 0
    assert fejer_numerators(System.KACZMARZ, 3, 4)[0] == 6


class TestHeadButterfly:
    """Order n butterflies 2^((n-1).bit_length()) cells, not all 2^N."""

    N = 8

    @pytest.fixture
    def butterflies(self, monkeypatch):
        sizes = []
        stages = walsh._butterfly_stages

        def counted(arr):
            sizes.append(arr.size)
            return stages(arr)

        monkeypatch.setattr(walsh, "_butterfly_stages", counted)
        return sizes

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_fejer_mean_at_lacunary_orders(self, butterflies, mode):
        rng = random.Random(7)
        f = (random_exact_martingale(rng, self.N) if mode == "exact"
             else random_decaying_martingale(rng, self.N))
        for n in range(self.N):
            fejer_mean(f, System.KACZMARZ, (1 << n) + 1)
        assert butterflies == [2 << n for n in range(self.N)]

    @pytest.mark.parametrize("build", [
        lambda system, n, N: partial_sum(random_exact_martingale(random.Random(n), N), system, n),
        dirichlet,
        fejer_numerators,
    ], ids=["partial_sum", "dirichlet", "fejer_numerators"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_kernels_and_partial_sums(self, butterflies, build, system):
        orders = [0, 1, 2, 3, 5, 17, 100, 129, 256]
        for n in orders:
            build(system, n, self.N)
        assert butterflies == [1 << max(n - 1, 0).bit_length() for n in orders]
