"""The divergence tables and the family audit on shells, against the array route.

`divergence_t1`, `divergence_t2` and `audit_family` read shell forms
(`experiments._Shells`): functions on the depth-M group that are constant on
each shell I_j \\ I_(j+1) of I_R, with 2^R low cells.  The array route they
replaced is rebuilt here from `fejer_mean`, `s2n`, `dirichlet`, `weak_lp`,
the per-cell L_p sums, `is_p_atom` and the atoms (`array_atoms`) on all 2^M
cells.  Every column, audit field and shell atom must equal it: exact values
as Fractions, float-p values bit for bit.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import (SampledFunction, System, dirichlet, fejer_mean, is_p_atom, lp_quasinorm,
                     normalize_p, s2n, weak_lp)
from dyadlab import experiments
from dyadlab.experiments import (_on_shell, audit_family, build_t1, build_t2, divergence_t1,
                                 divergence_t2, q_seq)
from dyadlab.group import DyadicInterval
from dyadlab.hardy import _atom_clauses
from dyadlab.norms import _inverse
from dyadlab.walsh import _check_depth

P_VALUES = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), 0.3]
FLOAT_P = [p for p in P_VALUES if not (isinstance(p, Fraction) and p.numerator == 1)]
LP_VALUES = [1, 2, 3, 4, Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), 0.3]


def same(a, b) -> bool:
    """Equal values of one type; floats bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def run_end_max(g: SampledFunction, p) -> float:
    """max over the ends of runs of equal |cell| of v (count / 2^N)^(1/p), as `weak_lp` forms it."""
    mags = np.sort(np.abs(g._floats()))[::-1]
    ends = np.flatnonzero(np.append(mags[:-1] != mags[1:], True) & (mags > 0))
    e, size = 1.0 / float(p), len(g)
    return max((v * ((k + 1) / size) ** e for v, k in zip(mags[ends].tolist(), ends.tolist())),
               default=0.0)


def per_cell_weak(g: SampledFunction, p):
    """weak-L_p of exact cells by its definition: the best v mu{|g| >= v}^(1/p) over every cell.

    At float p each cell's |value| is rounded once and powered with Python's `**`; when 1/p
    is an integer the maximum is an exact Fraction.
    """
    size = len(g)
    if isinstance(p, Fraction) and p.numerator == 1:
        mags = sorted((abs(v) for v in g.values.tolist()), reverse=True)
        return max((v * Fraction(count, size) ** p.denominator
                    for count, v in enumerate(mags, start=1)), default=0)
    mags, e = np.sort(np.abs(g._floats()))[::-1], 1.0 / float(p)
    return max((v * (count / size) ** e for count, v in enumerate(mags.tolist(), start=1) if v),
               default=0.0)


def weak(g: SampledFunction, p):
    """`weak_lp(g, p)`; at float p, first shown to be its best run end."""
    value = weak_lp(g, p)
    if not value.exact:
        assert same(value.value, run_end_max(g, p))
    return value


def per_cell_lp(g: SampledFunction, p) -> tuple:
    """(value, power_sum) of `lp_quasinorm` on exact cells by its definition, cell by cell.

    At integer p the power sum is the Fraction sum of |cell|^p; at other p it is the `fsum`
    of float(|cell|) ** p, each cell rounded once.  Both are over the 2^N cells.
    """
    size = len(g)
    if isinstance(p, int):
        power_sum = sum(abs(Fraction(v)) ** p for v in g.values.tolist()) / size
        return (power_sum if p == 1 else float(power_sum) ** (1.0 / p)), power_sum
    pf = float(p)
    power_sum = math.fsum(abs(float(v)) ** pf for v in g.values.tolist()) / size
    return power_sum ** (1.0 / pf), power_sum


def half_norm(g: SampledFunction):
    """`lp_quasinorm(g, 1/2)`, first shown equal to its per-cell definition."""
    value, (want, want_power) = lp_quasinorm(g, Fraction(1, 2)), per_cell_lp(g, 0.5)
    assert same(value.value, want) and same(value.power_sum, want_power)
    return value


def array_divergence_t1(fam, n_list) -> list[dict]:
    """The t1 table on 2^M and 2^(M+1) cells, as `divergence_t1` computed it before shells."""
    p, L, M = fam.p, fam.levels, fam.depth
    fam_deep = build_t1(p, L + 1, M + 1)
    term, term_deep = fam.terminal(), fam_deep.terminal()
    tail = weak(fam_deep.martingale.tail(M).terminal_function(), p)
    rows = []
    for n in n_list:
        order = (1 << n) + 1
        kappa_row = (dirichlet(System.KACZMARZ, order, M)
                     - dirichlet(System.KACZMARZ, 1 << n, M))
        sigma = fejer_mean(fam.martingale, System.KACZMARZ, order)
        sigma_deep = fejer_mean(fam_deep.martingale, System.KACZMARZ, order)
        rows.append({
            "n": n, "order": order,
            "weak_norm": weak(sigma - term, p).value,
            "kappa_weak_norm": weak(kappa_row, p).value,
            "fejer_error_2n": weak(fejer_mean(fam.martingale, System.KACZMARZ, 1 << n) - term,
                                   p).value,
            "partial_error_2n": weak(s2n(fam.martingale, n) - term, p).value,
            "weight": Fraction(1 << n, order),
            "weak_norm_depth_plus_1": weak(sigma_deep - term_deep, p).value,
            "truncation_tail_norm": tail.value,
        })
    return rows


def array_divergence_t2(fam, i_list) -> list[dict]:
    """The t2 table's L_(1/2) columns on 2^M and 2^(M+1) cells, as `divergence_t2` computed
    them before shells."""
    fam_deep = build_t2(fam.levels, fam.depth + 1)
    rows = []
    for i in i_list:
        order = q_seq(1 << (i - 1))
        qn = half_norm(fejer_mean(fam.martingale, System.KACZMARZ, order) - fam.terminal())
        qn_d = half_norm(fejer_mean(fam_deep.martingale, System.KACZMARZ, order)
                         - fam_deep.terminal())
        rows.append({"i": i, "half_power_integral": qn.power_sum, "quasi_norm": qn.value,
                     "quasi_norm_depth_plus_1": qn_d.value,
                     "depth_drift": abs(qn_d.value - qn.value) / (qn.value or 1.0)})
    return rows


def array_atoms(family):
    """Block m's p-atom 2^{m(1/p-1)} (D_{2^{m+1}} - D_{2^m}) on I_m, built when reached.

    The family's atoms on all 2^M cells, as `experiments` built them before the audit read
    shells.
    """
    M, inv_p = family.depth, _inverse(family.p)
    _check_depth(M)
    for m, _ in family.blocks:
        interval = DyadicInterval.at_zero(m, M)
        w = np.full(1 << M, _on_shell(m, 1, m), dtype=np.int64)  # read on I_m only
        w[DyadicInterval.at_zero(m + 1, M).cells(M)] = _on_shell(m, 1, m + 1)
        block = SampledFunction.indicator(interval, M)._weighted(w)
        if isinstance(inv_p, float):
            block = block.to_float()
        yield block.scale(2 ** (m * (inv_p - 1))), interval


def array_audit(family) -> dict:
    """The audit on the 2^M-cell atoms, as `audit_family` computed it before shells."""
    total, rows = None, []
    for k, ((atom, interval), w) in enumerate(zip(array_atoms(family), family.weights)):
        cert = is_p_atom(atom, interval, family.p)
        rows.append({"atom": k, "rank": interval.rank, "passed": cert.passed,
                     "violated": cert.violated})
        term = atom.scale(w)
        total = term if total is None else total + term
    atoms_ok = all(r["passed"] for r in rows)
    target = family.terminal()
    if total.is_exact:
        coeff_ok = total == target
    else:
        target = target.to_float().values
        coeff_ok = bool(np.max(np.abs(total.values - target)) <= 1e-12 * np.max(np.abs(target)))
    weight_power = sum(abs(float(w)) ** float(family.p) for w in family.weights)
    return {"passed": coeff_ok and atoms_ok, "rows": rows, "coefficients_match": coeff_ok,
            "atoms_pass": atoms_ok, "weight_power_sum": weight_power, "mode": total.mode}


def assert_same_rows(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in w:
            assert same(g[key], w[key]), (g.get("n", g.get("i")), key, g[key], w[key])


def assert_same_audit(family) -> None:
    report, want = audit_family(family), array_audit(family)
    got = {"passed": report.passed, "rows": report.rows, "mode": report.mode, **report.witness}
    assert got.keys() == want.keys()
    for key in ("passed", "rows", "coefficients_match", "atoms_pass", "mode"):
        assert got[key] == want[key], key
    assert same(got["weight_power_sum"], want["weight_power_sum"])


@pytest.mark.parametrize("p", P_VALUES, ids=str)
@pytest.mark.parametrize("M", range(1, 17))
def test_t1_table_equals_array_route(M, p):
    fam = build_t1(p, M - 1, M)
    report = divergence_t1(fam, range(M))
    assert report.mode == ("float" if p in FLOAT_P else "exact")
    assert_same_rows(report.rows, array_divergence_t1(fam, range(M)))


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_t1_table_equals_array_route_below_the_top_block(p):
    # L < M - 1: the depth + 1 family gains a block below the top, and the tail is 0
    for M in range(2, 9):
        for L in range(M - 1):
            fam = build_t1(p, L, M)
            assert_same_rows(divergence_t1(fam, range(M)).rows,
                             array_divergence_t1(fam, range(M)))


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_t1_audit_equals_array_route(p):
    for M in range(1, 17):
        for L in {0, M // 2, M - 1}:
            assert_same_audit(build_t1(p, L, M))


@pytest.mark.parametrize("L, M", [(2, 6), (3, 9), (3, 12), (3, 16)])
def test_t2_table_equals_array_route(L, M):
    fam = build_t2(L, M)
    i_list = list(itertools.takewhile(lambda i: q_seq(1 << (i - 1)) <= 1 << M,
                                      itertools.count(1)))
    want = array_divergence_t2(fam, i_list)
    got = divergence_t2(fam, i_list).rows
    assert [row["i"] for row in got] == i_list
    assert_same_rows([{key: row[key] for key in want[0]} for row in got], want)


def test_t2_audit_equals_array_route():
    for L in range(1, 4):
        for M in range((1 << L) + 1, 13):
            assert_same_audit(build_t2(L, M))


@pytest.mark.parametrize("build", [
    lambda: build_t1(Fraction(1, 4), 5, 7), lambda: build_t2(2, 6), lambda: build_t1(0.3, 6, 8),
    lambda: build_t1(Fraction(2, 5), 4, 9)], ids=["t1", "t2", "t1-0.3", "t1-2/5"])
def test_perturbed_audit_equals_array_route(build):
    for k in range(2):
        fam = build()
        fam.weights[k] = fam.weights[k] * (1 + Fraction(1, 1 << 20))
        assert_same_audit(fam)
        assert not audit_family(fam).witness["coefficients_match"]


# ---------------------------------------------------------------------------
# the shell form against its expansion on 2^M cells

def expand(shells: experiments._Shells) -> SampledFunction:
    """The shell form's function on all 2^M cells (an oracle for small M)."""
    R, M = shells.low.resolution, shells.depth
    low = shells.low.values
    cells = [low[x % (1 << R)] for x in range(1 << M)]
    for j, v in enumerate(shells.values, R):
        for x in range(0, 1 << M, 1 << j):
            cells[x] = v  # deeper shells overwrite: the last write is x's own shell
    return SampledFunction(M, cells)


def assert_same_atoms(family) -> None:
    """Each shell atom, its block expanded and scaled as `array_atoms` scales it, equals the
    array atom cell for cell, on the same interval."""
    got, want = list(experiments._shell_atoms(family)), list(array_atoms(family))
    assert len(got) == len(want) == len(family.blocks)
    for (scale, block, interval), (atom, want_interval) in zip(got, want):
        g = expand(block)
        g = g.scale(scale) if isinstance(scale, int) else g.to_float().scale(scale)
        assert interval == want_interval and g == atom
        assert all(same(a, b) for a, b in zip(g.values.tolist(), atom.values.tolist()))


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_t1_shell_atoms_equal_the_array_atoms(p):
    for M in range(1, 13):
        for L in {0, M // 2, M - 1}:
            assert_same_atoms(build_t1(p, L, M))


def test_t2_shell_atoms_equal_the_array_atoms():
    for L in range(1, 4):
        for M in range((1 << L) + 1, 13):
            assert_same_atoms(build_t2(L, M))


def random_shells(rng: random.Random) -> experiments._Shells:
    M = rng.randint(0, 7)
    R = rng.randint(0, M)

    def value():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6]))

    low = SampledFunction(R, [value() for _ in range(1 << R)])
    return experiments._Shells(M, low, [value() for _ in range(M - R + 1)])


def test_shell_form_equals_its_expansion():
    rng = random.Random(5)
    for _ in range(300):
        shells = random_shells(rng)
        g, R, M = expand(shells), shells.low.resolution, shells.depth
        for p in P_VALUES:
            assert same(shells.weak(p).value, weak(g, p).value)
        for p in LP_VALUES:
            got, want = shells.lp(normalize_p(p)), lp_quasinorm(g, p)
            assert got.exact is want.exact
            assert same(got.value, want.value) and same(got.power_sum, want.power_sum)
        assert shells.sup() == g._sup()
        for r in range(R, M + 1):
            inside = DyadicInterval.at_zero(r, M).cells(M)
            nonzero = g._nonzero()
            assert shells.vanishes_off(r) == (np.count_nonzero(nonzero)
                                              == np.count_nonzero(nonzero[inside]))
            assert shells.integral(r) == g._integral(inside)


def test_atom_clauses_name_each_violation():
    # the audit's clauses on shells see what is_p_atom sees on the cells
    M, p = 5, Fraction(1, 2)
    zero = SampledFunction.constant(0, 0)
    cases = {None: [0, 0, -2, 2, 2, 2], "support": [0, 1, -2, 2, 2, 2],
             "mean": [0, 0, -2, 2, 2, 4], "sup_bound": [0, 0, -32, 32, 32, 32]}
    for violated, values in cases.items():
        shells, interval = experiments._Shells(M, zero, values), DyadicInterval.at_zero(2, M)
        cert = _atom_clauses(interval, p, shells.vanishes_off(2), shells.integral(2),
                             shells.sup(), True)
        assert cert.violated == is_p_atom(expand(shells), interval, p).violated == violated


@pytest.mark.parametrize("cells", [
    [3, -3, Fraction(1, 2), 0], [2**70, -2**70, 1, Fraction(-1, 3)],
    np.array([1.5, -1.5, 0.25, 0.0])], ids=["int64", "object", "float"])
def test_magnitudes_count_each_distinct_cell(cells):
    f = SampledFunction(2, cells)
    runs, den = f._magnitudes(slice(1, None))
    assert runs == sorted(runs, reverse=True)
    assert {Fraction(a) / den: count for a, count in runs} == Counter(
        abs(Fraction(v)) for v in list(cells)[1:])


def runs_of(lengths: list[int], rng: random.Random) -> list:
    """Cells holding magnitude len(lengths) - k in a run of lengths[k] cells, signs and
    readouts mixed, then shuffled; the last magnitude is 0."""
    cells = []
    for k, length in enumerate(lengths):
        a = len(lengths) - 1 - k
        cells += [rng.choice((1, -1)) * (Fraction(3 * a, 3) if rng.random() < 0.5 else a)
                  for _ in range(length)]
    rng.shuffle(cells)
    return cells


@pytest.mark.parametrize("p", P_VALUES + [Fraction(7, 10), 1.5, Fraction(1, 2)], ids=str)
def test_exact_weak_lp_equals_its_per_cell_definition(p):
    rng = random.Random(11)
    cases = [
        runs_of([1, 2, 4, 8, 1], rng),  # cumulative counts 1, 3, 7, 15: each 2^k - 1, then a 0
        runs_of([1, 1, 1, 1, 12], rng),  # single-cell runs over twelve zeros
        runs_of([3, 4, 8, 1], rng),  # counts 3, 7, 15 and a single zero cell
        [0] * 16,
        [Fraction(1, 3)] + [0] * 15,
        runs_of([1, 31, 32, 64], rng),  # 2^k - 1 cells up to the run ends 1, 32, 64
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(64)],
        [rng.choice((2**70, -2**70, 3, 0)) for _ in range(32)],  # object numerators
    ]
    for cells in cases:
        g = SampledFunction((len(cells) - 1).bit_length(), cells)
        assert weak_lp(g, p).value == per_cell_weak(g, p)


@pytest.mark.parametrize("p", LP_VALUES, ids=str)
def test_exact_lp_quasinorm_equals_its_per_cell_definition(p):
    rng = random.Random(13)
    wide = [Fraction(2**53 + 65, 3), Fraction(-(2**53) - 65, 3), Fraction(1, 2**54 + 1),
            Fraction(-(2**60) - 1, 2**55 + 3), Fraction(7, 2**53 + 1), 0, 0, 1]
    cases = [
        runs_of([1, 3, 7, 15, 6], rng),  # runs of 2^k - 1 cells, then six zeros
        runs_of([31, 1], rng),  # a 31-cell run and one zero
        runs_of([2, 6, 12, 8, 4], rng),  # counts with several set bits
        [0] * 16,
        [Fraction(1, 3)] + [0] * 15,
        wide,  # numerators and denominators past 2^53
        [rng.choice(wide) for _ in range(64)],
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(64)],
        [rng.choice((2**70, -2**70, 3, 0)) for _ in range(32)],  # object numerators
    ]
    for cells in cases:
        g = SampledFunction((len(cells) - 1).bit_length(), cells)
        got, (value, power_sum) = lp_quasinorm(g, p), per_cell_lp(g, p)
        assert got.exact is isinstance(p, int)
        assert same(got.value, value) and same(got.power_sum, power_sum), cells
