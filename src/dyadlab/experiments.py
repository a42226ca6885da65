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

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .group import DyadicInterval, GroupPoint, tau_permutation
from .hardy import (DyadicMartingale, conjugate, conjugate_shift, hardy_quasinorm,
                    is_p_atom, maximal, modulus_hp, s2n, square_function_squared)
from .norms import PLike, lp_quasinorm, normalize_p, weak_lp
from .operators import _fejer_sums, fejer_mean
from .walsh import (SampledFunction, System, _kernel_l1_fits_int64, character_samples,
                    compose_with_tau, dirichlet, fejer_numerators, kaczmarz_paley_index,
                    kaczmarz_samples, walsh_paley_samples)


# ---------------------------------------------------------------------------
# reports

def jsonable(obj):
    """Recursively convert report payloads to JSON-safe values (lossless rationals)."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, GroupPoint):
        return {"resolution": obj.resolution, "index": obj.index}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


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

@dataclass
class CounterexampleFamily:
    """A built family: martingale plus its atomic decomposition bookkeeping."""

    kind: str
    p: Optional[Fraction | float]
    levels: int
    depth: int
    martingale: DyadicMartingale
    atoms: list[tuple[SampledFunction, DyadicInterval]] = field(default_factory=list)
    weights: list = field(default_factory=list)

    def terminal(self) -> SampledFunction:
        return self.martingale.terminal_function()


def _block_kernel(m: int, M: int) -> SampledFunction:
    """D_{2^{m+1}} - D_{2^m} at depth M, since D_{2^k} is 2^k on I_k and 0 elsewhere."""
    return (SampledFunction.indicator(DyadicInterval.at_zero(m + 1, M), M, 2 << m)
            - SampledFunction.indicator(DyadicInterval.at_zero(m, M), M, 1 << m))


def build_t1(p: PLike, L: int, M: int) -> CounterexampleFamily:
    """Family with spectrum 2^i on block [2^i, 2^{i+1}), i <= L, at depth M.

    The atom scale 2^{i(1/p-1)} is an integer exactly when 1/p is; other
    p get float-mode atoms while the martingale itself stays exact (its
    coefficients do not depend on p).
    """
    p = normalize_p(p)
    if not 0 < p < Fraction(1, 2):
        raise ValueError(f"family t1 needs 0 < p < 1/2, got {p}")
    if not 0 <= L < M:
        raise ValueError(f"need 0 <= L < M, got L={L}, M={M}")
    if M > 24:
        raise ValueError(f"depth {M} would materialize 2^{M} cells; use the radial path")
    size = 1 << M
    coeffs = [0] * size
    for i in range(L + 1):
        for j in range(1 << i, 1 << (i + 1)):
            coeffs[j] = 1 << i
    mart = DyadicMartingale.from_paley_coeffs(M, coeffs)

    exact_scale = isinstance(p, Fraction) and p.numerator == 1
    inv_p = p.denominator if exact_scale else 1.0 / float(p)
    atoms = []
    weights = []
    for i in range(L + 1):
        block = _block_kernel(i, M)
        if exact_scale:
            atom = block.scale(1 << (i * (inv_p - 1)))
            weights.append(Fraction(1, 1 << ((inv_p - 2) * i)))
        else:
            atom = block.to_float().scale(2.0 ** (i * (inv_p - 1.0)))
            weights.append(2.0 ** (-(inv_p - 2.0) * i))
        atoms.append((atom, DyadicInterval.at_zero(i, M)))
    return CounterexampleFamily("t1", p, L, M, mart, atoms, weights)


def build_t2(L: int, M: int) -> CounterexampleFamily:
    """Family with spectrum 2^{2^i}/4^i on block [2^{2^i}, 2^{2^i+1}), 1 <= i <= L."""
    if L < 1:
        raise ValueError(f"family t2 needs at least one block, got L={L}")
    if (1 << L) + 1 > M:
        raise ValueError(f"block {L} needs depth >= {(1 << L) + 1}, got {M}")
    if M > 24:
        raise ValueError(f"depth {M} would materialize 2^{M} cells; use the radial path")
    size = 1 << M
    coeffs = [0] * size
    for i in range(1, L + 1):
        c = 1 << ((1 << i) - 2 * i)  # 2^{2^i} / 2^{2i}, an integer for i >= 1
        for j in range(1 << (1 << i), 1 << ((1 << i) + 1)):
            coeffs[j] = c
    mart = DyadicMartingale.from_paley_coeffs(M, coeffs)

    atoms = []
    weights = []
    for i in range(1, L + 1):
        m = 1 << i
        atoms.append((_block_kernel(m, M).scale(1 << m), DyadicInterval.at_zero(m, M)))
        weights.append(Fraction(1, 1 << (2 * i)))
    return CounterexampleFamily("t2", Fraction(1, 2), L, M, mart, atoms, weights)


def _reconstructs_terminal(family: CounterexampleFamily) -> bool:
    """Whether sum_k mu_k a_k over the atoms equals the terminal level f^(M)."""
    weights = family.weights
    target = family.terminal()
    exact = family.atoms[0][0].is_exact
    if exact:  # clear the weights' denominators so the sum runs in integers
        d = math.lcm(*(Fraction(w).denominator for w in weights))
        weights = [int(Fraction(w) * d) for w in weights]
        target = target.scale(d)
    terms = [atom.scale(w) for (atom, _), w in zip(family.atoms, weights)]
    total = sum(terms[1:], terms[0])
    if exact:
        return total == target
    # Float atoms (1/p not an integer) carry 2^{i(1/p-1)} and weights
    # 2^{-i(1/p-2)}, each rounded once from an exponent below 1024, so each
    # term is off by at most a few 1e-13 relative, and no cell's terms add
    # up to more than about 2 max|f^(M)| in absolute value.
    target = target.to_float().values
    return bool(np.max(np.abs(total.values - target)) <= 1e-12 * np.max(np.abs(target)))


def audit_family(family: CounterexampleFamily) -> VerificationReport:
    """Re-verify the family: each atom is a p-atom and the atoms rebuild f^(M)."""
    start = time.perf_counter()
    coeff_ok = _reconstructs_terminal(family)

    atom_results = []
    p_atom = family.p if family.p is not None else Fraction(1, 2)
    for k, (atom, interval) in enumerate(family.atoms):
        cert = is_p_atom(atom, interval, p_atom)
        atom_results.append({"atom": k, "rank": interval.rank, "passed": cert.passed,
                             "violated": cert.violated})
    atoms_ok = all(r["passed"] for r in atom_results)

    weight_power = sum(abs(float(w)) ** float(p_atom) for w in family.weights)
    passed = coeff_ok and atoms_ok
    witness = {
        "coefficients_match": coeff_ok,  # the weighted atoms sum to f^(M)
        "atoms_pass": atoms_ok,
        "weight_power_sum": weight_power,
    }
    return VerificationReport(
        claim=f"family-{family.kind}-audit",
        parameters={"p": family.p, "levels": family.levels, "depth": family.depth},
        passed=passed, witness=witness, mode=family.martingale.terminal.mode,
        rows=atom_results, runtime_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# kernel bound verifications

def verify_yano(n_max: int, N: int, include_rows: bool = False) -> VerificationReport:
    """Exact sweep of ||K_n^w||_1 for 1 <= n <= n_max; passes iff max <= 2."""
    start = time.perf_counter()
    size = 1 << N
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > size:
        raise ValueError(f"n_max {n_max} overflows spectrum at resolution {N}")
    if not _kernel_l1_fits_int64(n_max, N):
        raise ValueError("kernel sums would not fit int64; reduce n_max or resolution")
    best = Fraction(0)
    best_n = 0
    rows = [] if include_rows else None
    # the Paley spectrum of 2^N 1_{I_N} is all ones, so n sigma_n of it is n K_n
    for n, T in _fejer_sums(np.ones(size, dtype=np.int64), System.PALEY, n_max):
        norm = Fraction(int(np.sum(np.abs(T))), n << N)
        if norm > best:
            best, best_n = norm, n
        if rows is not None:
            rows.append({"n": n, "l1_norm": norm})
    return VerificationReport(
        claim="fejer-kernel-l1-bound",
        parameters={"n_max": n_max, "resolution": N, "bound": 2},
        passed=best <= 2,
        witness={"max_l1_norm": best, "argmax_n": best_n,
                 "max_l1_norm_float": float(best)},
        mode="exact", rows=rows, runtime_s=time.perf_counter() - start)


def _lemma2_cell(T: np.ndarray, A: int, m: int, s: int) -> dict:
    """Exhaustively check one (m, s) cell of the kernel lower bound."""
    bound = 1 << (2 * m + 2 * s - 3)
    anchor = (1 << (2 * m)) | (1 << (2 * s))
    free_bits = 2 * (A - s) - 1
    x = anchor | (np.arange(1 << free_bits, dtype=np.int64) << (2 * s + 1))
    slack = np.abs(T[x]) - bound
    k = int(np.argmin(slack))  # first minimum, as a strict < scan finds it
    return {"m": m, "s": s, "bound": bound, "points": 1 << free_bits,
            "min_slack": int(slack[k]), "argmin_index": int(x[k])}


def verify_lemma2(A: int) -> VerificationReport:
    """Check q_{A-1}|K_{q_{A-1}}(x)| >= 2^{2m+2s-3} on every admissible point.

    The point set at resolution N = 2A fixes x_{2m} = x_{2s} = 1, zeros
    elsewhere below 2s, and enumerates all trailing bits 2s+1..2A-1, for
    m = 0..A-3 and s = m+2..A-1.  Exact integer arithmetic throughout.
    """
    start = time.perf_counter()
    if A < 3:
        raise ValueError(f"the lower bound needs A >= 3, got {A}")
    N = 2 * A
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

def divergence_t1(fam: CounterexampleFamily, n_list: Sequence[int]) -> VerificationReport:
    """weak-L_p distance ||sigma_{2^n+1} f - f^(M)|| for a built t1 family.

    Also tabulates the decomposition pieces: the unimodular character
    norm (always 1), the Fejer error at 2^n, the partial-sum error, and
    the weight 2^n/(2^n+1).  Values are recomputed one level deeper as a
    truncation-stability check.
    """
    start = time.perf_counter()
    p, L, M = fam.p, fam.levels, fam.depth
    for n in n_list:
        if not 0 <= n < M:
            raise ValueError(f"n_list value {n} outside 0..{M - 1} at depth {M}")
    fam_deep = build_t1(p, L + 1, M + 1)
    term, term_deep = fam.terminal(), fam_deep.terminal()
    tail_norm = weak_lp(fam_deep.martingale.tail(M).terminal_function(), p).value

    def table_value(family: CounterexampleFamily, terminal: SampledFunction, n: int):
        sigma = fejer_mean(family.martingale, System.KACZMARZ, (1 << n) + 1)
        return weak_lp(sigma - terminal, p).value

    rows = []
    for n in n_list:
        order = (1 << n) + 1
        kappa_row = SampledFunction(M, character_samples(System.KACZMARZ, 1 << n, M))
        sigma_err = weak_lp(fejer_mean(fam.martingale, System.KACZMARZ, 1 << n) - term, p)
        partial_err = weak_lp(s2n(fam.martingale, n) - term, p)
        rows.append({
            "n": n, "order": order,
            "weak_norm": table_value(fam, term, n),
            "kappa_weak_norm": weak_lp(kappa_row, p).value,
            "fejer_error_2n": sigma_err.value,
            "partial_error_2n": partial_err.value,
            "weight": Fraction(1 << n, order),
            "weak_norm_depth_plus_1": table_value(fam_deep, term_deep, n),
            "truncation_tail_norm": tail_norm,
        })
    min_value = min(float(r["weak_norm"]) for r in rows)
    return VerificationReport(
        claim="t1-weak-divergence",
        parameters={"p": p, "n_list": list(n_list), "levels": L, "depth": M},
        passed=min_value > 0,
        witness={"min_weak_norm": min_value,
                 "argmin_n": min(rows, key=lambda r: float(r["weak_norm"]))["n"]},
        mode="exact" if fam.martingale.is_exact and isinstance(p, Fraction)
             and p.numerator == 1 else "float",
        rows=rows, runtime_s=time.perf_counter() - start)


def kernel_half_integral(order: int, tau_width: int, N: int) -> float:
    """integral |order * K_order(tau_width-reversed x)|^{1/2} dmu, float of exact values."""
    if tau_width > N:
        raise ValueError(f"coordinate reversal width {tau_width} exceeds resolution {N}")
    T = dirichlet_prefix(order, N)
    total = 0.0
    for v in np.abs(T[tau_permutation(tau_width, N)]).tolist():
        total += sqrt(v)  # sequential sum keeps the reported floats stable
    return total / (1 << N)


def divergence_t2(fam: CounterexampleFamily, i_list: Sequence[int]) -> VerificationReport:
    """L_{1/2} distance ||sigma_{q_{2^{i-1}}} f - f^(M)|| for a built t2 family.

    Reports the half-power integral of the lacunary kernel through the
    coordinate reversal, under both readings of the kernel order
    (q_{2^{i-1}-1} and q_{2^{i-1}} - 1), with their growth ratios.
    """
    start = time.perf_counter()
    half = Fraction(1, 2)
    L, M = fam.levels, fam.depth
    for i in i_list:  # i <= M keeps q_seq small
        if not 1 <= i <= M or q_seq(1 << (i - 1)) > 1 << M:
            raise ValueError(f"i_list value {i} needs i >= 1 and q_(2^(i-1)) <= 2^{M}")
    fam_deep = build_t2(L, M + 1)
    term, term_deep = fam.terminal(), fam_deep.terminal()
    rows = []
    for i in i_list:
        A = 1 << (i - 1)
        order = q_seq(A)
        sigma = fejer_mean(fam.martingale, System.KACZMARZ, order)
        qn = lp_quasinorm(sigma - term, half)
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
        sigma_d = fejer_mean(fam_deep.martingale, System.KACZMARZ, order)
        qn_d = lp_quasinorm(sigma_d - term_deep, half)
        row["quasi_norm_depth_plus_1"] = qn_d.value
        base = qn.value if qn.value else 1.0
        row["depth_drift"] = abs(qn_d.value - qn.value) / base
        rows.append(row)
    growth = {}
    for a, b in zip(rows, rows[1:]):
        key = f"kernel_growth_{a['i']}_to_{b['i']}"
        growth[key] = (b["kernel_half_integral_inner_minus_1"]
                       / a["kernel_half_integral_inner_minus_1"])
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

def rate_table_t1(p: PLike = Fraction(1, 4), n_values: Sequence[int] = range(3, 9),
                  L: int = 12, M: int = 13) -> list[dict]:
    """(n, omega_{H_p}(1/2^n), 2^{-n(1/p-2)}, ratio) rows for the t1 family."""
    p = normalize_p(p)
    fam = build_t1(p, L, M)
    rows = []
    for n in n_values:
        omega = float(modulus_hp(fam.martingale, n, p))
        threshold = 2.0 ** (-n * (1.0 / float(p) - 2.0))
        rows.append({"n": n, "modulus": omega, "threshold": threshold,
                     "ratio": omega / threshold})
    return rows


def t2_radial_modulus(n: int, blocks: int, depth: int) -> float:
    """omega_{H_{1/2}}(1/2^n) of the t2 family via its radial shell profile.

    Every level of the family is constant on the shells I_j \\ I_{j+1},
    so the maximal function reduces to prefix sums of the per-shell block
    values c_i = 2^{2^{i+1} - 2i} (negative on the entry shell j = 2^i,
    positive deeper).  This evaluates depths far beyond what sampled
    arrays allow, exactly.
    """
    if (1 << blocks) + 1 > depth:
        raise ValueError(f"block {blocks} needs depth >= {(1 << blocks) + 1}")
    included = [i for i in range(1, blocks + 1) if (1 << i) >= n]
    power_sum = 0.0
    # shells j = 0..depth-1 with mu = 2^{-j-1}, then the point cell I_depth
    for j in range(depth + 1):
        mu = 2.0 ** (-j - 1) if j < depth else 2.0 ** (-depth)
        prefix = 0
        best = 0
        for i in included:
            entry = 1 << i
            if j < entry:
                continue
            c = 1 << ((1 << (i + 1)) - 2 * i)
            prefix += -c if j == entry else c
            best = max(best, abs(prefix))
        power_sum += mu * sqrt(best)
    return power_sum * power_sum


def rate_table_t2(n_values: Sequence[int] = range(4, 10), blocks: int = 5) -> list[dict]:
    """(n, omega_{H_{1/2}}(1/2^n), 1/n^2, omega * n^2) rows for the t2 family."""
    rows = []
    for n in n_values:
        omega = t2_radial_modulus(n, blocks, (1 << blocks) + 1)  # the least depth it allows
        rows.append({"n": n, "modulus": omega, "threshold": 1.0 / (n * n),
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
        if p == Fraction(1, 2):
            threshold = (1.0 / (k * k)) if k > 0 else None
        elif p < Fraction(1, 2):
            threshold = 2.0 ** (-k * (1.0 / float(p) - 2.0))
        else:
            threshold = None
        err = hardy_quasinorm(
            DyadicMartingale.from_function(fejer_mean(f, System.KACZMARZ, n) - term), p)
        rows.append({"n": n, "log2_floor": k, "modulus": moduli[k],
                     "threshold": threshold, "error_norm": float(err)})
    return rows


# ---------------------------------------------------------------------------
# cross-checked identities

def verify_closed_form(N: int) -> VerificationReport:
    """D_{2^m} = 2^m on I_m and 0 elsewhere for m <= N, both orderings, exact."""
    start = time.perf_counter()
    failures = []
    for system in (System.PALEY, System.KACZMARZ):
        for m in range(N + 1):
            expected = SampledFunction.indicator(
                DyadicInterval.at_zero(m, N), N, scale=1 << m)
            got = dirichlet(system, 1 << m, N)
            if got != expected:
                failures.append({"system": system.value, "m": m})
    return VerificationReport(
        claim="block-dirichlet-closed-form",
        parameters={"resolution": N, "m_max": N},
        passed=not failures,
        witness={"failures": failures, "checked": 2 * (N + 1)},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_permutation_equivalence(N: int) -> VerificationReport:
    """kappa_n (definitional product) equals w_{sigma(n)} for all n < 2^N."""
    start = time.perf_counter()
    mismatch = None
    for n in range(1 << N):
        lhs = kaczmarz_samples(n, N)
        rhs = walsh_paley_samples(kaczmarz_paley_index(n), N)
        if lhs != rhs:
            mismatch = {"n": n, "sigma_n": kaczmarz_paley_index(n)}
            break
    return VerificationReport(
        claim="kaczmarz-bit-reversal-equivalence",
        parameters={"resolution": N, "count": 1 << N},
        passed=mismatch is None,
        witness={"first_mismatch": mismatch},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_fejer_partial_identity(depth: int, count: int, seed: int,
                                  m_max: Optional[int] = None) -> VerificationReport:
    """sigma_n^k S_{2^m} f - S_{2^m} f = (2^m/n) S_{2^m}(sigma_{2^m}^k f - f).

    Exact, for seeded integer-coefficient martingales, every m below the
    depth and every 2^m < n <= 2^{m+1}.
    """
    start = time.perf_counter()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if m_max is None:
        m_max = depth - 1
    if m_max >= depth:
        raise ValueError(f"m_max {m_max} needs depth > m_max, got {depth}")
    rng = random.Random(seed)
    checked = 0
    failure = None
    for trial in range(count):
        f = random_exact_martingale(rng, depth)
        term = f.terminal_function()
        for m in range(m_max + 1):
            smf = s2n(f, m)
            smf_spectrum = DyadicMartingale.from_function(smf)  # one transform for every n
            inner = s2n(fejer_mean(f, System.KACZMARZ, 1 << m) - term, m)
            for n in range((1 << m) + 1, (1 << (m + 1)) + 1):
                lhs = fejer_mean(smf_spectrum, System.KACZMARZ, n) - smf
                rhs = inner.scale(Fraction(1 << m, n))
                checked += 1
                if lhs != rhs:
                    failure = {"trial": trial, "m": m, "n": n}
                    break
            if failure:
                break
        if failure:
            break
    return VerificationReport(
        claim="fejer-partial-sum-identity",
        parameters={"depth": depth, "martingales": count, "m_max": m_max, "seed": seed},
        passed=failure is None,
        witness={"checked": checked, "first_failure": failure},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_kernel_decomposition(N: int, i_values: Sequence[int] = (1, 2)) -> VerificationReport:
    """D^k_{s+2^A} = D_{2^A} + r_{2^i} (D_s^w o tau_{2^i}) with A = 2^i, s < 2^A."""
    start = time.perf_counter()
    failure = None
    checked = 0
    for i in i_values:
        A = 1 << i
        if (A + 1) > N or (1 << (A + 1)) > (1 << N):
            raise ValueError(f"i = {i} needs resolution >= {A + 1}, got {N}")
        base = dirichlet(System.KACZMARZ, 1 << A, N)
        r_row = SampledFunction(N, walsh_paley_samples(1 << A, N))
        for s in range(1 << A):
            lhs = dirichlet(System.KACZMARZ, s + (1 << A), N)
            rhs = base + r_row * compose_with_tau(dirichlet(System.PALEY, s, N), A)
            checked += 1
            if lhs != rhs:
                failure = {"i": i, "s": s}
                break
        if failure:
            break
    return VerificationReport(
        claim="kaczmarz-block-kernel-decomposition",
        parameters={"resolution": N, "i_values": list(i_values)},
        passed=failure is None,
        witness={"checked": checked, "first_failure": failure},
        mode="exact", runtime_s=time.perf_counter() - start)


def verify_conjugate_translation(depth: int, count: int, seed: int) -> VerificationReport:
    """Conjugation by every sign point: translation match and norm equality.

    For block-lacunary martingales the conjugate terminal must equal the
    translate by the solved shift, exactly; `conjugate_shift` returns a
    shift only once they match, so a mismatch fails as `no-shift`.
    Translations commute with the partial sums, so the whole maximal
    function transports and every H_p quasi-norm is preserved with zero
    tolerance (checked as value multisets).  For dense martingales the exactly preserved pointwise
    quantity is the squared square function; their maximal-function
    quasi-norm ratios are reported, not asserted.
    """
    start = time.perf_counter()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    failure = None
    shifts_found = 0
    checked = 0
    ratio_spread = 0.0
    for trial in range(count):
        lac = random_lacunary_martingale(rng, depth)
        dense = random_exact_martingale(rng, depth)
        lac_max = sorted(maximal(lac).values)
        dense_square = square_function_squared(dense)
        for t_index in range(1 << (depth + 1)):
            t = GroupPoint(depth + 1, t_index)
            checked += 1
            shift = conjugate_shift(lac, t)
            if shift is None:
                failure = {"trial": trial, "t": t_index, "kind": "no-shift"}
                break
            shifts_found += 1
            conj = conjugate(lac, t)
            if sorted(maximal(conj).values) != lac_max:
                failure = {"trial": trial, "t": t_index, "kind": "lacunary-multiset"}
                break
            dense_conj = conjugate(dense, t)
            if square_function_squared(dense_conj) != dense_square:
                failure = {"trial": trial, "t": t_index, "kind": "square-function"}
                break
        if failure:
            break
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
    return [
        verify_closed_form(resolution),
        verify_permutation_equivalence(min(resolution, 10)),
        verify_fejer_partial_identity(min(depth + 2, 7), count, seed,
                                      m_max=min(depth, 5)),
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
