"""Exact cells built from input read out exactly as computed cells do.

`SampledFunction` and `CoefficientSequence`, in both orderings, share one
constructor path and take their readout from the stored cells alone.  The
inputs here are lists of ints, Fractions and bools at the storage edges:
0 and +-(2^63 - 1), +-2^63, magnitudes up to about 2^72, and denominators
past 2^63.
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import CoefficientSequence, SampledFunction, System
from dyadlab.experiments import jsonable

MAX = 2**63 - 1
KINDS = (None, System.PALEY, System.KACZMARZ)  # None builds a SampledFunction

INTS = st.one_of(st.sampled_from([0, MAX, -MAX, MAX + 1, -MAX - 1]),
                 st.integers(-2**72, 2**72), st.integers(-3, 3))
DENS = st.one_of(st.integers(1, 6), st.integers(MAX + 1, 2**64))
CELLS = st.one_of(INTS, st.builds(Fraction, INTS, DENS), st.booleans())
CASES = st.tuples(st.sampled_from(KINDS), st.integers(0, 3).flatmap(
    lambda N: st.lists(CELLS, min_size=1 << N, max_size=1 << N)))


def build(kind, cells):
    N = len(cells).bit_length() - 1
    return SampledFunction(N, cells) if kind is None else CoefficientSequence(N, kind, cells)


def readout(x) -> list:
    return (x.values if isinstance(x, SampledFunction) else x.coeffs).tolist()


def rendered(x) -> str:
    return json.dumps(jsonable(readout(x)))


def assert_same_kind(x, y):
    assert type(x) is type(y) and getattr(x, "ordering", None) == getattr(y, "ordering", None)


@settings(max_examples=40)
@example(case=(None, [True, Fraction(4, 2)]))
@example(case=(System.PALEY, [True, -2**72]))
@example(case=(System.KACZMARZ, [True, False, 2**72, Fraction(1, 2**64)]))
@given(CASES)
def test_readout_is_the_input(case):
    kind, cells = case
    x = build(kind, cells)
    # [j] before the readout is cached, then the cached readout
    for got in ([x[j] for j in range(len(cells))], readout(x)):
        assert got == cells
        assert [type(v) for v in got] == [Fraction if isinstance(v, Fraction) else int
                                          for v in cells]


@settings(max_examples=40)
@given(CASES)
def test_cells_are_in_lowest_terms(case):
    kind, cells = case
    x = build(kind, cells)
    nums = x._num.tolist()
    assert [Fraction(n, x._den) for n in nums] == cells
    assert math.gcd(x._den, *nums) == 1
    fits = max(map(abs, nums)) <= MAX
    assert x._num.dtype == (np.dtype(np.int64) if fits else np.dtype(object))


@settings(max_examples=40)
@given(CASES)
def test_equality_and_hash_follow_kind_ordering_and_mode(case):
    kind, cells = case
    x, twin = build(kind, cells), build(kind, cells)
    assert x == twin and hash(x) == hash(twin)
    for other in KINDS:
        if other is not kind:
            assert build(other, cells) != x
    assert build(kind, np.array([float(v) for v in cells])) != x


@settings(max_examples=40)
@given(CASES)
def test_wrapping_keeps_kind_and_ordering(case):
    kind, cells = case
    x = build(kind, cells)
    assert not hasattr(build(None, cells), "ordering")
    for y in (x._like(x._num, x._den, x._frac), x._gathered(np.arange(len(cells)))):
        assert_same_kind(x, y)
        assert y == x and hash(y) == hash(x)
    if kind is not None:
        there = x.to_ordering(System.PALEY if kind is System.KACZMARZ else System.KACZMARZ)
        assert type(there) is CoefficientSequence and there.ordering is not kind
        back = there.to_ordering(kind)
        assert_same_kind(x, back)
        assert back == x


@settings(max_examples=40)
@example(case=(None, [True, Fraction(4, 2)]))
@given(CASES)
def test_input_renders_as_computed(case):
    kind, cells = case
    x = build(kind, cells)
    computed = x._weighted(np.ones(len(cells), dtype=np.int64))
    assert computed == x
    assert rendered(x) == rendered(computed)
    if kind is None:
        assert rendered(x) == rendered(x + x.scale(0))
