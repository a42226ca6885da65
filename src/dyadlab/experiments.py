"""Counterexample families, kernel bound sweeps, and rate/divergence tables.

The two lacunary martingale families are built from differences of
block kernels D_{2^{m+1}} - D_{2^m} (each one a scaled p-atom on I_m):

* family "t1" (parameter 0 < p < 1/2): Paley spectrum 2^i on every
  index of block [2^i, 2^{i+1}), i <= L.  Its H_p modulus decays like
  2^{-n(1/p-2)} while Kaczmarz-Fejer means of order 2^n + 1 keep the
  weak-L_p distance from the terminal level away from zero.

* family "t2" (p = 1/2): spectrum 2^{2^i - 2i} on block
  [2^{2^i}, 2^{2^i+1}), i >= 1.  Its H_{1/2} modulus decays like 1/n^2
  while Fejer means of the lacunary orders q_A = (4^{A+1} - 1)/3 stay
  bounded away from the terminal level in L_{1/2}.

`verify_yano` sweeps max_n ||K_n||_1 <= 2 in exact integers, and
`verify_lemma2` exhaustively checks the pointwise lower bound
q_{A-1} |K_{q_{A-1}}(x)| >= 2^{2m+2s-3} on the two-spike cells of rank
2A.  Every verification returns a structured report with a concrete
extremal witness.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import lcm, log2
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .group import DyadicInterval, GroupPoint, JInterval, tau_permutation
from .hardy import (DyadicMartingale, _atom_clauses, _shift_solver, _signs, conjugate,
                    hardy_quasinorm, maximal, modulus_hp, s2n, square_function_squared)
from .norms import (PLike, QuasiNormValue, _inverse, _lp_of_runs, _weak_of_runs, normalize_p,
                    weak_lp)
from .operators import fejer_mean
from .walsh import (_MAX_DEPTH, SampledFunction, Scalar, System, _check_depth, _equal_rows,
                    _fejer_rows, _kernel_l1_fits_int64, _signed_square_sum, _signed_sup_abs,
                    compose_with_tau, dirichlet, fejer_numerators, fwht, kaczmarz_paley_index,
                    kaczmarz_rows, sigma_permutation, walsh_paley_rows, walsh_paley_samples)


# ---------------------------------------------------------------------------
# reports

def jsonable(obj):
    """Recursively convert report payloads to JSON-safe values (lossless rationals)."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"a report holds no {type(obj).__name__}")


@dataclass
class VerificationReport:
    """Pass/fail record of one reproduced claim, with an extremal witness."""

    claim: str
    parameters: dict
    passed: bool
    witness: dict
    mode: str
    rows: Optional[list[dict]] = None
    runtime_s: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "parameters": jsonable(self.parameters),
            "verdict": "pass" if self.passed else "fail",
            "witness": jsonable(self.witness),
            "mode": self.mode,
        }
        if self.rows is not None:
            out["rows"] = jsonable(self.rows)
        return out


# ---------------------------------------------------------------------------
# lacunary index sequence

def q_seq(A: int) -> int:
    """q_A = 4^A + 4^{A-1} + ... + 1 = (4^{A+1} - 1) // 3."""
    if A < 0:
        raise ValueError(f"q_A needs A >= 0, got {A}")
    return ((1 << (2 * (A + 1))) - 1) // 3


# ---------------------------------------------------------------------------
# integer kernel prefix sums (exact)

def dirichlet_prefix(n: int, N: int) -> np.ndarray:
    """sum_{k=1..n} D_k^w as int64 samples (= n * K_n^w), exactly."""
    return fejer_numerators(System.PALEY, n, N)


# ---------------------------------------------------------------------------
# counterexample families

def _on_shell(m: int, c: int, j: int) -> int:
    """Block m (Paley spectrum c on [2^m, 2^{m+1})) on the shell I_j \\ I_{j+1}, or on I_j at j = M.

    D_{2^k} is 2^k on I_k and 0 elsewhere (Fine 1949), so c (D_{2^{m+1}} - D_{2^m}) is c 2^m on
    I_{m+1}, -c 2^m on the rest of I_m and 0 off I_m.
    """
    return 0 if j < m else -c << m if j == m else c << m


def _radial(blocks: Sequence[tuple[int, int]], depth: int) -> list[int]:
    """The sum of the blocks (m, c) on each shell I_j \\ I_{j+1}, j < depth, then on I_depth."""
    return [sum(_on_shell(m, c, j) for m, c in blocks) for j in range(depth + 1)]


@dataclass(frozen=True)
class _Shells:
    """A function g on the depth-M group that is constant on each shell of I_R.

    `low` is g at resolution R: its cells 1..2^R - 1 (mass 2^-R each) are the rank-R cells
    off I_R, and its cell 0, which is I_R, is not read.  `values[j - R]` is g on the shell
    I_j \\ I_{j+1} (mass 2^{-j-1}) for R <= j < M, and `values[M - R]` is g on I_M (mass 2^-M).
    So the norms and atom clauses below cost O(2^R + M), not O(2^M).  The values are ints and
    Fractions, and `low` is exact.
    """

    depth: int
    low: SampledFunction
    values: list

    def _pieces(self) -> tuple[dict, int]:
        """{|g| times den: how many rank-M cells hold it}, and den, the lcm of every denominator."""
        R, M = self.low.resolution, self.depth
        runs, low_den = self.low._magnitudes(slice(1, None))
        den = lcm(low_den, *(v.denominator for v in self.values))
        cells = {a * (den // low_den): count << (M - R) for a, count in runs}
        for j, v in enumerate(self.values, R):
            a = abs(v.numerator) * (den // v.denominator)
            cells[a] = cells.get(a, 0) + (1 << max(M - j - 1, 0))
        return cells, den

    def weak(self, p: Fraction | float) -> QuasiNormValue:
        """`weak_lp` of g over its 2^M cells; exact when 1/p is an integer."""
        cells, den = self._pieces()
        return _weak_of_runs(p, sorted(cells.items(), reverse=True), den, 1 << self.depth)

    def lp(self, p: Fraction | float) -> QuasiNormValue:
        """`lp_quasinorm` of g over its 2^M cells; an exact power sum when p is an int."""
        cells, den = self._pieces()
        return _lp_of_runs(p, cells.items(), den, 1 << self.depth)

    def sup(self) -> Scalar:
        """sup |g| over every cell."""
        cells, den = self._pieces()
        return Fraction(max(cells), den)

    def vanishes_off(self, r: int) -> bool:
        """Whether g is 0 off I_r, for r >= R."""
        R = self.low.resolution
        return not self.low._nonzero()[1:].any() and not any(self.values[:r - R])

    def integral(self, r: int) -> Scalar:
        """The integral of g over I_r, for r >= R: each shell's value times its mass."""
        R, M = self.low.resolution, self.depth
        return sum(Fraction(v, 1 << min(j + 1, M)) for j, v in enumerate(self.values[r - R:], r))


@dataclass
class CounterexampleFamily:
    """A depth-M family given by its Paley blocks: spectrum c on [2^m, 2^{m+1}) per (m, c).

    Block m is its weight times the p-atom 2^{m(1/p-1)} (D_{2^{m+1}} - D_{2^m}) on I_m, so the
    weighted atoms sum to the terminal level; both are exact when 1/p is an integer, float
    otherwise.  The martingale (always exact) and the weights are built from the blocks when
    read; the atoms are read on shells (`_shell_atoms`).
    """

    kind: str
    p: Fraction | float
    levels: int
    depth: int
    blocks: list[tuple[int, int]]

    @cached_property
    def martingale(self) -> DyadicMartingale:
        _check_depth(self.depth)
        coeffs = [0] * (1 << self.depth)
        for m, c in self.blocks:
            coeffs[1 << m:2 << m] = [c] * (1 << m)
        return DyadicMartingale.from_paley_coeffs(self.depth, coeffs)

    @cached_property
    def weights(self) -> list:
        """Block (m, c)'s weight 2^{(2-1/p)m} c / 2^m: times the p-atom 2^{m(1/p-1)}
        (D_{2^{m+1}} - D_{2^m}) on I_m, it gives the block c (D_{2^{m+1}} - D_{2^m})."""
        inv_p = _inverse(self.p)
        return [Fraction(2) ** ((2 - inv_p) * m) * Fraction(c, 1 << m) for m, c in self.blocks]

    def terminal(self) -> SampledFunction:
        return self.martingale.terminal_function()


def _shell_atoms(family: CounterexampleFamily) -> Iterator[tuple[Scalar, _Shells, DyadicInterval]]:
    """Block m's p-atom 2^{m(1/p-1)} (D_{2^{m+1}} - D_{2^m}) on I_m: (scale, block, I_m).

    The scale is an int when 1/p is one, else a float.  The block is exact at every p and
    constant on each shell (`_on_shell`): a shell form of I_0 that costs O(M) at any depth M.
    """
    M, inv_p, low = family.depth, _inverse(family.p), SampledFunction.constant(0, 0)
    for m, _ in family.blocks:
        yield (2 ** (m * (inv_p - 1)), _Shells(M, low, [_on_shell(m, 1, j) for j in range(M + 1)]),
               DyadicInterval.at_zero(m, M))


def build_t1(p: PLike, L: int, M: int) -> CounterexampleFamily:
    """Family with spectrum 2^i on block [2^i, 2^{i+1}), i <= L, at depth M."""
    p = normalize_p(p)
    if not 0 < p < Fraction(1, 2):
        raise ValueError(f"family t1 needs 0 < p < 1/2, got {p}")
    if not 0 <= L < M:
        raise ValueError(f"need 0 <= L < M, got L={L}, M={M}")
    # At p = 1/k the weights are 1/2^{(k-2)m}, m < M, and a weak norm over the 2^M cells is
    # v (count/2^M)^k, v = sigma f - f^(M) with denominator at most 2^M and |v| < 2 sum |c| 2^m
    # < 2^{2M}: fractions of integers below 2^{M(k+3)}, which `str` prints only under its limit
    # (0 for none; Python before 3.10.7 has none)
    k, limit = _inverse(p), getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(k, int) and limit and M * (k + 3) > limit * log2(10):
        raise ValueError(f"p = 1/{k} at depth {M} forms integers of up to {M * (k + 3)} bits, "
                         f"past the {limit}-digit limit on printing an int")
    return CounterexampleFamily("t1", p, L, M, [(i, 1 << i) for i in range(L + 1)])


def build_t2(L: int, M: int) -> CounterexampleFamily:
    """Family with spectrum 2^{2^i}/4^i on block [2^{2^i}, 2^{2^i+1}), 1 <= i <= L."""
    if L < 1:
        raise ValueError(f"family t2 needs at least one block, got L={L}")
    if (1 << L) + 1 > M:
        raise ValueError(f"block {L} needs depth >= {(1 << L) + 1}, got {M}")
    # 2^{2^i} / 2^{2i} is an integer for i >= 1
    return CounterexampleFamily("t2", Fraction(1, 2), L, M,
                                [(1 << i, 1 << ((1 << i) - 2 * i)) for i in range(1, L + 1)])


def audit_family(family: CounterexampleFamily) -> VerificationReport:
    """Re-verify the family: each atom is a p-atom and the weighted atoms sum to f^(M).

    Every atom and f^(M) are constant on the shells of I_0 (`_on_shell`), so one pass
    certifies each atom and adds it, weighted, to a running total, shell by shell.
    """
    start = time.perf_counter()
    exact = isinstance(_inverse(family.p), int)
    total, atom_results = None, []
    for k, ((scale, block, interval), w) in enumerate(zip(_shell_atoms(family), family.weights)):
        rank = interval.rank
        cert = _atom_clauses(interval, family.p, block.vanishes_off(rank),
                             scale * block.integral(rank), scale * block.sup(), exact)
        atom_results.append({"atom": k, "rank": rank, "passed": cert.passed,
                             "violated": cert.violated})
        term = [(w if exact else float(w)) * (scale * v) for v in block.values]
        total = term if total is None else [a + b for a, b in zip(total, term)]
    atoms_ok = all(r["passed"] for r in atom_results)

    target = _radial(family.blocks, family.depth)
    if exact:
        coeff_ok = total == target
    else:
        # Float atoms (1/p not an integer) carry 2^{i(1/p-1)} and weights
        # 2^{-i(1/p-2)}, each rounded once from an exponent below 1024, so each
        # term is off by at most a few 1e-13 relative, and no shell's terms add
        # up to more than about 2 max|f^(M)| in absolute value.
        target = [float(v) for v in target]
        coeff_ok = (max(abs(a - b) for a, b in zip(total, target))
                    <= 1e-12 * max(map(abs, target)))

    weight_power = sum(abs(float(w)) ** float(family.p) for w in family.weights)
    return VerificationReport(
        claim=f"family-{family.kind}-audit",
        parameters={"p": family.p, "levels": family.levels, "depth": family.depth},
        passed=coeff_ok and atoms_ok, mode="exact" if exact else "float",
        witness={"coefficients_match": coeff_ok,  # the weighted atoms sum to f^(M)
                 "atoms_pass": atoms_ok, "weight_power_sum": weight_power},
        rows=atom_results, runtime_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# kernel bound verifications

def _yano_sums(n_max: int) -> np.ndarray:
    """int64 sum of |n K_n| over the 2^R cells, R = (n_max-1).bit_length(), at index n <= n_max.

    Order n = 2^k + m, 1 <= m <= 2^k, reads x_0..x_k.  Paley's lemma D_{2^k+i} = D_{2^k} + r_k D_i
    gives n K_n = a + r_k b with b = m K_m and a = 2^k K_{2^k} + m D_{2^k}, both on x_0..x_{k-1}.
    By Fine's closed form, at resolution k, a is 2^{k-1}(2^k+1) + m 2^k at 0, 2^{k+t-1} at e_t
    (t < k) and 0 elsewhere: 2^k n in all.  b(0) = m(m+1)/2, and with h = 2^t, b(e_t) =
    sum_{j<=m} D_j(e_t), where j -> D_j(e_t) is a triangle wave of period 2h, peak h: each whole
    period adds h^2, and the last rho = m mod 2h terms add rho(rho+1)/2 if rho <= h, else
    h^2 - u(u-1)/2 with u = 2h - rho.  As 2h divides 2^k >= m, b(e_t) <= 2^{k-1} h, so
    0 <= b <= a at those k + 1 points.  With |a+b| + |a-b| = 2 max(|a|, |b|), the sum for n
    is that for m plus 2^{R-k} (2^k n - the k + 1 values of b).  All orders of one k are one
    vector step.

    int64: each entry is at most 2^R n(n+1)/2, the `_kernel_l1_fits_int64(n_max, R)` bound; the
    sum for m and the shifted excess are at most the entry, and with R >= 1 every product
    (2^k n, rho(rho+1), u(u-1), h^2 per period) is below n^2 < 2^63.
    """
    R = (n_max - 1).bit_length()
    sums = np.zeros(n_max + 1, dtype=np.int64)
    sums[1] = 1 << R
    for k in range(R):
        m = np.arange(1, min(1 << k, n_max - (1 << k)) + 1, dtype=np.int64)
        excess = ((m + (1 << k)) << k) - m * (m + 1) // 2
        for t in range(k):
            h = 1 << t
            rho = m & (2 * h - 1)
            u = 2 * h - rho
            excess -= (m >> (t + 1)) * h * h + np.where(rho <= h, rho * (rho + 1) // 2,
                                                        h * h - u * (u - 1) // 2)
        sums[(1 << k) + 1:(1 << k) + m.size + 1] = sums[1:m.size + 1] + (excess << (R - k))
    return sums


def verify_yano(n_max: int, N: int, include_rows: bool = False) -> VerificationReport:
    """Exact sweep of ||K_n^w||_1 for 1 <= n <= n_max; passes iff max <= 2."""
    start = time.perf_counter()
    if N < 0:
        raise ValueError(f"resolution must be >= 0, got {N}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    R = (n_max - 1).bit_length()  # K_1..K_{n_max} live on the low R coordinates
    if R > N:
        raise ValueError(f"n_max {n_max} overflows spectrum at resolution {N}")
    if not _kernel_l1_fits_int64(n_max, R):
        raise ValueError("kernel sums would not fit int64; reduce n_max")
    # ||K_n||_1 = sums[n] / (n 2^R); the first strict maximum, by cross-multiplication
    sums = _yano_sums(n_max).tolist()
    best_n = 1
    for n in range(2, n_max + 1):
        if sums[n] * best_n > sums[best_n] * n:
            best_n = n
    best = Fraction(sums[best_n], best_n << R)
    rows = ([{"n": n, "l1_norm": Fraction(sums[n], n << R)} for n in range(1, n_max + 1)]
            if include_rows else None)
    return VerificationReport(
        claim="fejer-kernel-l1-bound",
        parameters={"n_max": n_max, "resolution": N, "bound": 2},
        passed=best <= 2,
        witness={"max_l1_norm": best, "argmax_n": best_n,
                 "max_l1_norm_float": float(best)},
        mode="exact", rows=rows, runtime_s=time.perf_counter() - start)


def _lemma2_cell(T: np.ndarray, A: int, m: int, s: int) -> dict:
    """Exhaustively check one (m, s) cell of the kernel lower bound.

    The cell's points are the two-spike interval x_{2m} = x_{2s} = 1, other
    coordinates below 2s + 1 zero, read from T as one strided view.
    """
    bound = 1 << (2 * m + 2 * s - 3)
    x = JInterval(2 * s + 1, 2 * m, 2 * s).as_interval().cells(2 * A)
    slack = np.abs(T[x]) - bound
    k = int(np.argmin(slack))  # first minimum, as a strict < scan finds it
    return {"m": m, "s": s, "bound": bound, "points": slack.size,
            "min_slack": int(slack[k]), "argmin_index": x.start + k * x.step}


def verify_lemma2(A: int) -> VerificationReport:
    """Check q_{A-1}|K_{q_{A-1}}(x)| >= 2^{2m+2s-3} on every admissible point.

    The point set at resolution N = 2A fixes x_{2m} = x_{2s} = 1, zeros
    elsewhere below 2s, and enumerates all trailing bits 2s+1..2A-1, for
    m = 0..A-3 and s = m+2..A-1.  Exact integer arithmetic throughout.
    The 2^{2A}-cell grid of q K_q is held whole, so A stops at _MAX_DEPTH / 2.
    """
    start = time.perf_counter()
    if A < 3:
        raise ValueError(f"the lower bound needs A >= 3, got {A}")
    N = 2 * A
    _check_depth(N)
    q = q_seq(A - 1)
    T = dirichlet_prefix(q, N)  # q * K_q, integer-valued
    cells = [(m, s) for m in range(0, A - 2) for s in range(m + 2, A)]
    rows = [_lemma2_cell(T, A, m, s) for m, s in cells]
    worst = min(rows, key=lambda r: r["min_slack"])
    return VerificationReport(
        claim="lacunary-kernel-lower-bound",
        parameters={"A": A, "resolution": N, "q": q, "cells": len(cells)},
        passed=all(r["min_slack"] >= 0 for r in rows),
        witness={"min_slack": worst["min_slack"], "m": worst["m"], "s": worst["s"],
                 "argmin_index": worst["argmin_index"]},
        mode="exact", rows=rows, runtime_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# divergence tables

def _gap(fam: CounterexampleFamily, R: int, read: Callable[[DyadicMartingale], SampledFunction],
         terminal: list, built: dict) -> _Shells:
    """read(f) - f^(M) as a shell form of I_R, for an operator `read` that sees only f^(R).

    read(f) = read(f^(R)) reads x_0..x_{R-1} only, so it is taken at resolution R and is
    read(f)(0) on I_R; off I_R, f^(M) is f^(R).  `terminal` is f^(M) on the shells (`_radial`).
    The level family and its f^(R) are built once per `built`, keyed on its levels, R and blocks.
    """
    blocks, levels = tuple((m, c) for m, c in fam.blocks if m < R), min(fam.levels, R - 1)
    if (levels, R, blocks) not in built:
        level = replace(fam, levels=levels, depth=R, blocks=list(blocks))
        built[levels, R, blocks] = level, level.terminal()
    level, low_terminal = built[levels, R, blocks]
    g = read(level.martingale)
    return _Shells(fam.depth, g - low_terminal, [g[0] - v for v in terminal[R:]])


def _kaczmarz_fejer(order: int) -> Callable[[DyadicMartingale], SampledFunction]:
    """f -> sigma^kappa_order f, an operator for `_gap`."""
    return lambda f: fejer_mean(f, System.KACZMARZ, order)


def divergence_t1(fam: CounterexampleFamily, n_list: Sequence[int]) -> VerificationReport:
    """weak-L_p distance ||sigma_{2^n+1} f - f^(M)|| for a built t1 family.

    Also tabulates the decomposition pieces: the unimodular character
    norm (always 1), the Fejer error at 2^n, the partial-sum error, and
    the weight 2^n/(2^n+1).  Values are recomputed one level deeper as a
    truncation-stability check.  Each distance is a shell form (`_gap`) of
    I_{n+1} at most, so a row costs O(2^n + M) at any depth M.
    """
    start = time.perf_counter()
    p, L, M = fam.p, fam.levels, fam.depth
    if not n_list:
        raise ValueError("n_list must name at least one order")
    for n in n_list:
        if not 0 <= n < M:
            raise ValueError(f"n_list value {n} outside 0..{M - 1} at depth {M}")
    _check_depth(max(n_list) + 1)  # the resolution of the deepest row's low cells
    fam_deep = build_t1(p, L + 1, M + 1)
    term, term_deep = _radial(fam.blocks, M), _radial(fam_deep.blocks, M + 1)
    tail_blocks = [(m, c) for m, c in fam_deep.blocks if m >= M]
    tail = _Shells(M + 1, SampledFunction.constant(0, 0), _radial(tail_blocks, M + 1)).weak(p)
    rows, built = [], {}
    for n in n_list:
        order = (1 << n) + 1
        kappa_row = (dirichlet(System.KACZMARZ, order, n + 1)
                     - dirichlet(System.KACZMARZ, 1 << n, n + 1))
        rows.append({
            "n": n, "order": order,
            "weak_norm": _gap(fam, n + 1, _kaczmarz_fejer(order), term, built).weak(p).value,
            "kappa_weak_norm": weak_lp(kappa_row, p).value,
            "fejer_error_2n": _gap(fam, n, _kaczmarz_fejer(1 << n), term, built).weak(p).value,
            "partial_error_2n": _gap(fam, n, lambda f: s2n(f, n), term, built).weak(p).value,
            "weight": Fraction(1 << n, order),
            "weak_norm_depth_plus_1": _gap(fam_deep, n + 1, _kaczmarz_fejer(order), term_deep,
                                           built).weak(p).value,
            "truncation_tail_norm": tail.value,
        })
    min_value = min(float(r["weak_norm"]) for r in rows)
    return VerificationReport(
        claim="t1-weak-divergence",
        parameters={"p": p, "n_list": list(n_list), "levels": L, "depth": M},
        passed=min_value > 0,
        witness={"min_weak_norm": min_value,
                 "argmin_n": min(rows, key=lambda r: float(r["weak_norm"]))["n"]},
        mode="exact" if tail.exact else "float",  # every weak norm here shares p and exactness
        rows=rows, runtime_s=time.perf_counter() - start)


def kernel_half_integral(order: int, tau_width: int, N: int) -> float:
    """integral |order * K_order(tau_width-reversed x)|^{1/2} dmu, float of exact values.

    order * K_order reads only the low R = (order - 1).bit_length() coordinates (Paley) and the
    reversal only the low tau_width, so the gathered cells repeat with period 2^P,
    P = max(R, tau_width): one period's roots, tiled to 2^N cells, give the running sum.
    """
    if tau_width > N:
        raise ValueError(f"coordinate reversal width {tau_width} exceeds resolution {N}")
    # at P = N an order outside 0..2^N is refused, naming resolution N
    P = min(max((order - 1).bit_length(), tau_width), N) if order >= 0 else N
    cells = dirichlet_prefix(order, P)[tau_permutation(tau_width, P)]
    _check_depth(N)  # the tiled roots are 2^N floats
    roots = np.tile(np.sqrt(np.abs(cells)), 1 << (N - P))
    # a running (sequential) sum, not numpy's pairwise one, keeps the reported floats stable
    return float(np.add.accumulate(roots, out=roots)[-1]) / (1 << N)


def divergence_t2(fam: CounterexampleFamily, i_list: Sequence[int]) -> VerificationReport:
    """L_{1/2} distance ||sigma_{q_{2^{i-1}}} f - f^(M)|| for a built t2 family.

    Reports the half-power integral of the lacunary kernel through the
    coordinate reversal, under both readings of the kernel order
    (q_{2^{i-1}-1} and q_{2^{i-1}} - 1), with their growth ratios.
    """
    start = time.perf_counter()
    half = Fraction(1, 2)
    L, M = fam.levels, fam.depth
    if not i_list:
        raise ValueError("i_list must name at least one order")
    for i in i_list:  # i <= M keeps q_seq small
        if not 1 <= i <= M or q_seq(1 << (i - 1)) > 1 << M:
            raise ValueError(f"i_list value {i} needs i >= 1 and q_(2^(i-1)) <= 2^{M}")
    _check_depth(M)  # the kernel columns tile 2^M float roots
    fam_deep = build_t2(L, M + 1)
    term, term_deep = _radial(fam.blocks, M), _radial(fam_deep.blocks, M + 1)
    rows, built = [], {}
    for i in i_list:
        A = 1 << (i - 1)
        order = q_seq(A)
        R, sigma = (order - 1).bit_length(), _kaczmarz_fejer(order)
        qn = _gap(fam, R, sigma, term, built).lp(half)
        row = {
            "i": i, "q_index": A, "order": order,
            "half_power_integral": qn.power_sum,
            "quasi_norm": qn.value,
            "kernel_half_integral_inner_minus_1": kernel_half_integral(
                q_seq(A - 1), 1 << i, M),
            "kernel_half_integral_order_minus_1": kernel_half_integral(
                order - 1, 1 << i, M),
        }
        row["kernel_ratio_vs_2i"] = row["kernel_half_integral_inner_minus_1"] / (1 << i)
        qn_d = _gap(fam_deep, R, sigma, term_deep, built).lp(half)
        row["quasi_norm_depth_plus_1"] = qn_d.value
        row["depth_drift"] = abs(qn_d.value - qn.value) / (qn.value or 1.0)
        rows.append(row)
    inner = "kernel_half_integral_inner_minus_1"
    growth = {f"kernel_growth_{a['i']}_to_{b['i']}": b[inner] / a[inner]
              for a, b in zip(rows, rows[1:])}
    min_value = min(float(r["quasi_norm"]) for r in rows)
    return VerificationReport(
        claim="t2-half-norm-divergence",
        parameters={"i_list": list(i_list), "levels": L, "depth": M},
        passed=min_value > 0,
        witness={"min_quasi_norm": min_value, **growth},
        mode="float",
        rows=rows, runtime_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# rate and convergence tables

def _rate_threshold(p: Fraction | float, n: int) -> Optional[float]:
    """The paper's rate: 2^{-n(1/p-2)} for p < 1/2, 1/n^2 for p = 1/2 and n >= 1, else None."""
    if p == Fraction(1, 2):
        return 1.0 / (n * n) if n > 0 else None
    if p < Fraction(1, 2):
        return 2.0 ** (-n * (1.0 / float(p) - 2.0))
    return None


def _radial_modulus(blocks: Sequence[tuple[int, int]], depth: int, n: int, p: PLike) -> float:
    """omega_{H_p}(1/2^n) of the depth-M family with Paley blocks (m, c), m ascending.

    Block m is constant on each shell I_j \\ I_{j+1} (mass 2^{-j-1}) and on I_M (mass 2^{-M})
    (`_on_shell`), so there every level of f - S_{2^n} f is a prefix sum over the blocks
    n <= m <= j, and f* is the running max of |prefix|: a shell form of I_0, whose L_p norm
    is `lp_quasinorm`'s of f* on the 2^M cells, bit for bit.
    """
    if not 0 <= n <= depth:
        raise ValueError(f"modulus level {n} outside 0..{depth}")
    sups = []
    for j in range(depth + 1):
        prefix = best = 0
        for m, c in blocks:
            if n <= m <= j:
                prefix += _on_shell(m, c, j)
                best = max(best, abs(prefix))
        sups.append(best)
    return _Shells(depth, SampledFunction.constant(0, 0), sups).lp(p).value


def rate_table_t1(p: PLike = Fraction(1, 4), n_values: Sequence[int] = range(3, 9),
                  L: int = 12, M: int = 13) -> list[dict]:
    """(n, omega_{H_p}(1/2^n), 2^{-n(1/p-2)}, ratio) rows for the t1 family, folded on shells."""
    fam = build_t1(p, L, M)
    rows = []
    for n in n_values:
        omega = _radial_modulus(fam.blocks, M, n, fam.p)
        threshold = _rate_threshold(fam.p, n)
        rows.append({"n": n, "modulus": omega, "threshold": threshold,
                     "ratio": omega / threshold})
    return rows


def t2_radial_modulus(n: int, blocks: int, depth: int) -> float:
    """omega_{H_{1/2}}(1/2^n) of `build_t2(blocks, depth)`, bitwise `modulus_hp`'s, any depth."""
    return _radial_modulus(build_t2(blocks, depth).blocks, depth, n, Fraction(1, 2))


def rate_table_t2(n_values: Sequence[int] = range(4, 10), blocks: int = 5) -> list[dict]:
    """(n, omega_{H_{1/2}}(1/2^n), 1/n^2, omega * n^2) rows for the t2 family."""
    rows = []
    for n in n_values:
        omega = t2_radial_modulus(n, blocks, (1 << blocks) + 1)  # the least depth it allows
        rows.append({"n": n, "modulus": omega, "threshold": _rate_threshold(Fraction(1, 2), n),
                     "scaled": omega * n * n})
    return rows


def convergence_table(f: DyadicMartingale, p: PLike, n_values: Iterable[int]) -> list[dict]:
    """Rows (n, omega_{H_p}(1/2^k), rate threshold, ||sigma^kappa_n f - f^(M)||_{H_p}).

    k = floor(log2 n).  The threshold column is 2^{-k(1/p-2)} for
    p < 1/2 and 1/k^2 for p = 1/2; for p > 1/2 no rate is claimed and
    the column is None.
    """
    p = normalize_p(p)
    n_values = list(n_values)
    if not n_values:
        raise ValueError("convergence table needs at least one order n")
    term = f.terminal_function()
    moduli: dict[int, float] = {}
    rows = []
    for n in n_values:
        if not 1 <= n <= (1 << f.depth):
            raise ValueError(f"order {n} outside 1..2^{f.depth}")
        k = n.bit_length() - 1
        if k not in moduli:
            moduli[k] = float(modulus_hp(f, k, p))
        err = hardy_quasinorm(
            DyadicMartingale.from_function(fejer_mean(f, System.KACZMARZ, n) - term), p)
        rows.append({"n": n, "log2_floor": k, "modulus": moduli[k],
                     "threshold": _rate_threshold(p, k), "error_norm": float(err)})
    return rows


# ---------------------------------------------------------------------------
# cross-checked identities

def verify_closed_form(N: int) -> VerificationReport:
    """D_{2^m} = 2^m on I_m and 0 elsewhere for m <= N, both orderings, exact."""
    start = time.perf_counter()
    if N < 0:
        raise ValueError(f"resolution must be >= 0, got {N}")
    failures = [{"system": system.value, "m": m}
                for system in (System.PALEY, System.KACZMARZ) for m in range(N + 1)
                if dirichlet(system, 1 << m, N)
                != SampledFunction.indicator(DyadicInterval.at_zero(m, N), N, scale=1 << m)]
    return VerificationReport(
        claim="block-dirichlet-closed-form",
        parameters={"resolution": N, "m_max": N},
        passed=not failures,
        witness={"failures": failures, "checked": 2 * (N + 1)},
        mode="exact", runtime_s=time.perf_counter() - start)


def _first_failure(blocks: Iterable[tuple[Callable, Sequence[bool]]]) -> tuple[int, object]:
    """(cases run, key of the first case that fails or None), from blocks (key of case k, held
    per case) in order; stops at the first failing block, whose key runs before the next."""
    checked = 0
    for key, held in blocks:
        if not np.all(held):
            return checked + int(np.argmin(held)) + 1, key(int(np.argmin(held)))
        checked += len(held)
    return checked, None


def verify_permutation_equivalence(N: int) -> VerificationReport:
    """kappa_n (definitional product) equals w_{sigma(n)} for all n < 2^N, as two matrices."""
    start = time.perf_counter()
    if 2 * N > _MAX_DEPTH:  # each matrix holds 2^N rows of 2^N cells
        raise ValueError(f"resolution {N} compares 2^{2 * N} cells; the limit is 2^{_MAX_DEPTH}")
    held = np.all(kaczmarz_rows(np.arange(1 << N), N) == walsh_paley_rows(sigma_permutation(N), N),
                  axis=1)
    _, mismatch = _first_failure([(lambda n: {"n": n, "sigma_n": kaczmarz_paley_index(n)}, held)])
    return VerificationReport(
        claim="kaczmarz-bit-reversal-equivalence",
        parameters={"resolution": N, "count": 1 << N},
        passed=mismatch is None,
        witness={"first_mismatch": mismatch},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_fejer_partial_identity(depth: int, count: int, seed: int,
                                  m_max: Optional[int] = None) -> VerificationReport:
    """sigma_n^k S_{2^m} f - S_{2^m} f = (2^m/n) S_{2^m}(sigma_{2^m}^k f - f).

    Exact, for seeded integer-coefficient martingales, every m <= m_max and 2^m < n <= 2^{m+1}:
    per m one array of n sigma_n (`_fejer_rows`) against n S f + 2^m inner in one comparison
    (`_equal_rows`).  The last array, 2^(m_max+depth) cells, is under the 2^24-cell limit.
    """
    start = time.perf_counter()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    m_max = depth - 1 if m_max is None else m_max
    if not 0 <= m_max < depth:
        raise ValueError(f"m_max must be in 0..{depth - 1} at depth {depth}, got {m_max}")
    if depth + m_max > _MAX_DEPTH:  # the last stack: 2^m_max orders of 2^depth cells
        raise ValueError(f"m_max {m_max} stacks 2^{depth + m_max} cells; "
                         f"the limit is 2^{_MAX_DEPTH}")
    rng = random.Random(seed)

    def cases():
        for trial in range(count):
            f = random_exact_martingale(rng, depth)
            term = f.terminal_function()
            for m in range(m_max + 1):
                smf = s2n(f, m)
                inner = s2n(fejer_mean(f, System.KACZMARZ, 1 << m) - term, m)
                n, spec = np.arange((1 << m) + 1, (2 << m) + 1)[:, None], fwht(smf)
                rows = _fejer_rows(spec, System.KACZMARZ, n)
                held = _equal_rows(rows, spec, n, smf, inner, 1 << m)
                yield (lambda k: {"trial": trial, "m": m, "n": n.item(k)}), held

    checked, failure = _first_failure(cases())
    return VerificationReport(
        claim="fejer-partial-sum-identity",
        parameters={"depth": depth, "martingales": count, "m_max": m_max, "seed": seed},
        passed=failure is None,
        witness={"checked": checked, "first_failure": failure},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_kernel_decomposition(N: int) -> VerificationReport:
    """D^k_{s+2^A} = D_{2^A} + r_{2^i} (D_s^w o tau_{2^i}) with A = 2^i, s < 2^A, i = 1, 2."""
    start = time.perf_counter()
    i_values = (1, 2)
    if N < 5:
        raise ValueError(f"i = 2 needs resolution >= 5, got {N}")

    def cases():
        for i in i_values:
            A = 1 << i
            base = dirichlet(System.KACZMARZ, 1 << A, N)
            r_row = SampledFunction(N, walsh_paley_samples(1 << A, N))
            for s in range(1 << A):
                lhs = dirichlet(System.KACZMARZ, s + (1 << A), N)
                rhs = base + r_row * compose_with_tau(dirichlet(System.PALEY, s, N), A)
                yield (lambda k: {"i": i, "s": s}), [lhs == rhs]

    checked, failure = _first_failure(cases())
    return VerificationReport(
        claim="kaczmarz-block-kernel-decomposition",
        parameters={"resolution": N, "i_values": list(i_values)},
        passed=failure is None,
        witness={"checked": checked, "first_failure": failure},
        mode="exact", runtime_s=time.perf_counter() - start)


_STACK_CELLS = 1 << 18  # the conjugate sweep signs its points in row chunks of this many cells
_CHECKS = ("no-shift", "lacunary-multiset", "square-function")  # per sign point, in order


def verify_conjugate_translation(depth: int, count: int, seed: int) -> VerificationReport:
    """Conjugation by every sign point: translation match and norm equality.

    For block-lacunary martingales the conjugate terminal must equal the
    translate by the solved shift (see `conjugate_shift`); no solution or
    a mismatch fails as `no-shift`.  Translations commute with the partial
    sums, so the conjugate's maximal function must be f* translated by the
    same shift, cell for cell; this implies equal value multisets, hence
    every H_p quasi-norm, with zero tolerance.  For dense martingales the
    exactly preserved pointwise quantity is the squared square function;
    their maximal-function quasi-norm ratios are reported, not asserted.
    Each chunk of sign points is one solve and one array step per check.
    """
    start = time.perf_counter()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if 2 * depth + 1 > _MAX_DEPTH:  # 2^(depth+1) sign points of 2^depth cells each
        raise ValueError(f"depth {depth} signs 2^{2 * depth + 1} cells; "
                         f"the limit is 2^{_MAX_DEPTH}")
    rng = random.Random(seed)

    def cases():
        points, chunk = 1 << (depth + 1), max(1, _STACK_CELLS >> depth)
        for trial in range(count):
            lac = random_lacunary_martingale(rng, depth)
            dense = random_exact_martingale(rng, depth)
            lac_term, lac_max = lac.terminal_function(), maximal(lac)
            dense_square, solve = square_function_squared(dense), _shift_solver(lac)
            for first in range(0, points, chunk):
                signs = _signs(lac, np.arange(first, min(first + chunk, points)))
                shifts = solve(signs)  # -1 for no shift: that row fails whatever it reads
                terminals, peaks = _signed_sup_abs(lac.terminal, signs)
                squares = _signed_square_sum(dense.terminal, signs)
                held = np.stack((lac_term._matches(terminals, shifts) & (shifts >= 0),
                                 lac_max._matches(peaks, shifts), dense_square._matches(squares)))
                yield (lambda k: {"trial": trial, "t": first + k,
                                  "kind": _CHECKS[np.argmin(held[:, k])]}), held.all(axis=0)

    checked, failure = _first_failure(cases())
    shifts_found = checked - (failure is not None and failure["kind"] == "no-shift")
    ratio_spread = 0.0
    norm_rows = []
    if failure is None:
        f = random_exact_martingale(random.Random(seed + 1), depth)
        t = GroupPoint(depth + 1, (1 << (depth + 1)) - 1)
        g = conjugate(f, t)
        for p in (Fraction(1, 4), Fraction(1, 2), 1):
            a = float(hardy_quasinorm(f, p))
            b = float(hardy_quasinorm(g, p))
            ratio = b / a if a else 1.0
            ratio_spread = max(ratio_spread, abs(ratio - 1.0))
            norm_rows.append({"p": normalize_p(p), "original": a,
                              "conjugated": b, "ratio": ratio})
    return VerificationReport(
        claim="conjugate-translation-and-isometry",
        parameters={"depth": depth, "martingales": count, "seed": seed,
                    "sign_points": 1 << (depth + 1)},
        passed=failure is None,
        witness={"checked": checked, "shifts_found": shifts_found,
                 "first_failure": failure,
                 "dense_maximal_ratio_spread": ratio_spread},
        mode="exact", rows=norm_rows or None,
        runtime_s=time.perf_counter() - start)


def verify_identities(resolution: int = 8, depth: int = 5, seed: int = 0,
                      count: int = 5) -> list[VerificationReport]:
    """The bundled exact cross-checks exposed by the command line."""
    if resolution < 0:
        raise ValueError(f"resolution must be >= 0, got {resolution}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return [
        verify_closed_form(resolution),
        verify_permutation_equivalence(min(resolution, 10)),
        verify_fejer_partial_identity(min(depth + 2, 7), count, seed, m_max=min(depth, 5)),
        verify_kernel_decomposition(max(resolution, 5)),
        verify_conjugate_translation(depth, count, seed),
    ]


# ---------------------------------------------------------------------------
# seeded generators for property sweeps

def random_exact_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    """Integer Paley coefficients uniform in [-9, 9]."""
    coeffs = [rng.randint(-9, 9) for _ in range(1 << depth)]
    return DyadicMartingale.from_paley_coeffs(depth, coeffs)


def random_decaying_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    """Float coefficients damped by 8^{-bit_length(i)} per spectral block.

    The block decay keeps the finite-depth Fejer approximation error
    visible: a flat random spectrum at desk depths is dominated by its
    top block, which no Fejer order below 2^M can average away.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _check_depth(depth)
    coeffs = np.empty(1 << depth)
    coeffs[0] = rng.uniform(-1.0, 1.0)
    for i in range(1, 1 << depth):
        coeffs[i] = rng.uniform(-1.0, 1.0) * 8.0 ** (-i.bit_length())
    return DyadicMartingale.from_paley_coeffs(depth, coeffs)


def random_lacunary_martingale(rng: random.Random, depth: int) -> DyadicMartingale:
    """One nonzero integer coefficient in -3..3 per block [2^b, 2^{b+1}), none at 0.

    With at most one occupied index per martingale difference (and a
    vanishing constant term) the conjugate transform always matches a
    group translation; see `conjugate_shift`.
    """
    coeffs = [0] * (1 << depth)
    for b in range(depth):
        j = rng.randrange(1 << b, 1 << (b + 1))
        coeffs[j] = rng.choice((-3, -2, -1, 1, 2, 3))
    return DyadicMartingale.from_paley_coeffs(depth, coeffs)


def random_sampled_function(rng: random.Random, resolution: int) -> SampledFunction:
    """Float-mode cell values uniform in [-1, 1]."""
    return SampledFunction(
        resolution, np.array([rng.uniform(-1.0, 1.0) for _ in range(1 << resolution)]))
