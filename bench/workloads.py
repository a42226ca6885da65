"""The benchmark's workloads: operations, seeded inputs and correctness gate.

An operation is a README-style command run in-process through
`dyadlab.cli.main(argv)` with `--out` in the run's work directory, or a
call to an exported library function where no command exists.  Every
call looks its function up on the package at call time, so the tracer's
wrappers are seen.

The gate checks a result after the timed phase.  Deterministic operations
are compared with `reference.json`, recorded from the library by
`make_reference.py`: strings (exact rationals), integers and booleans
must be equal, floats equal within FLOAT_RTOL.  Seeded operations are
checked against the package's own oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import dyadlab as dl
import dyadlab.cli  # noqa: F401  (binds dl.cli)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A reordered float reduction moves a result by a few ulps (~1e-15
# relative); a wrong answer moves it by far more than 1e-9.
FLOAT_RTOL = 1e-9
# The Watari bracket slack used by the acceptance suite.
BRACKET_EPS = 1e-9

FLOAT_FUNCTIONS = 16      # seeded N=10 functions per float_moduli pass
FLOAT_RESOLUTION = 10
FRONTIER_RESOLUTION = 13
WEIGHTED_DEPTH = 12
WEIGHTED_N_MAX = 4096
SAMPLES = 3


def _identity(result):
    return result


@dataclass
class Op:
    """One timed operation and the gate for its result.

    `check(view(result))` is None for a correct result, else the reason it
    is wrong; `view` turns a raw result into the form the reference holds.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    view: Callable[[object], object] = _identity

    def gate(self, result) -> Optional[str]:
        return self.check(self.view(result))


# ---------------------------------------------------------------------------
# comparisons

def compare(expected, got, path: str = "$") -> Optional[str]:
    """First difference between two JSON-like values, or None.

    Every value in `expected` must be in `got`; keys only `got` has pass.
    """
    if isinstance(expected, float) or isinstance(got, float):
        if not isinstance(expected, (int, float)) or not isinstance(got, (int, float)) \
                or isinstance(expected, bool) or isinstance(got, bool):
            return f"{path}: {got!r} != {expected!r}"
        if math.isclose(expected, got, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return None
        return f"{path}: {got!r} differs from {expected!r} by more than {FLOAT_RTOL:g}"
    if isinstance(expected, dict) and isinstance(got, dict):
        # fields a report gains later are not answers the reference holds
        missing = expected.keys() - got.keys()
        if missing:
            return f"{path}: missing {sorted(missing)}"
        for key in expected:
            diff = compare(expected[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return f"{path}: length {len(got)} != {len(expected)}"
        for i, (a, b) in enumerate(zip(expected, got)):
            diff = compare(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(expected) is not type(got) or expected != got:
        return f"{path}: {got!r} != {expected!r}"
    return None


def same(a, b) -> bool:
    """Bitwise equality of two results (arrays compared elementwise)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, dl.SampledFunction):
        return a == b
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# command operations

def cli_op(name: str, argv: list[str], workdir: Path,
           check: Callable[[dict], Optional[str]]) -> Op:
    """`dyadlab <argv> --out <workdir>/<name>.json`; result is (status, report text)."""
    out = workdir / f"{name}.json"

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            status = dl.cli.main([*argv, "--out", str(out)])
        return {"status": status, "report": out.read_text()}

    return Op(name, run, check, report_view)


def report_view(result: dict) -> dict:
    """Exit status and the parsed reports; the echoed config is not an answer."""
    return {"status": result["status"], "reports": json.loads(result["report"])["reports"]}


def reference_check(name: str, reference: dict) -> Callable[[object], Optional[str]]:
    def check(got):
        return compare(reference[name], got, name)
    return check


def identities_check(result: dict) -> Optional[str]:
    reports = result["reports"]
    if result["status"] != 0:
        return f"identities: exit status {result['status']}"
    if len(reports) != 5:
        return f"identities: {len(reports)} reports, expected 5"
    for r in reports:
        if r["verdict"] != "pass":
            return f"identities: {r['claim']} failed"
        if r["witness"].get("checked", 1) <= 0:
            return f"identities: {r['claim']} checked nothing"
    return None


# ---------------------------------------------------------------------------
# float moduli

def shift_masks(N: int) -> list[np.ndarray]:
    """masks[n] selects the shifts h in I_n (low n bits zero)."""
    idx = np.arange(1 << N)
    return [(idx & ((1 << n) - 1)) == 0 for n in range(N + 1)]


def watari_profiles(f, masks) -> dict:
    """test_c14 shape: translation profiles at p in {1,2,4} and Paley-tail norms."""
    N = f.resolution
    coeffs = np.asarray(dl.fwht(f).coeffs)
    tails = []
    for n in range(N + 1):
        kept = coeffs.copy()
        kept[1 << n:] = 0.0
        tails.append(f - dl.inverse_fwht(dl.CoefficientSequence(N, "paley", kept)))
    out = {}
    for p in (1, 2, 4):
        profile = dl.translate_norm_profile(f, p)
        out[p] = {"profile": profile,
                  "omega": [float(np.max(profile[m])) ** (1.0 / p) for m in masks],
                  "tail": [float(dl.lp_quasinorm(t, p)) for t in tails]}
    return out


def profile_shift_check(f, profile: np.ndarray, p: int, rng: random.Random) -> Optional[str]:
    """profile[h] against lp_quasinorm(translate(f, h) - f) at sampled shifts."""
    N = f.resolution
    if profile[0] != 0.0:
        return f"profile at h=0 is {profile[0]!r}"
    for h in rng.sample(range(1, 1 << N), SAMPLES):
        want = dl.lp_quasinorm(dl.translate(f, dl.GroupPoint(N, h)) - f, p).power_sum
        if not _close(float(profile[h]), want):
            return f"profile p={p} h={h}: {profile[h]!r} != {want!r}"
    return None


def watari_check(f, result: dict, rng: random.Random) -> Optional[str]:
    for p, row in result.items():
        for n, (omega, t) in enumerate(zip(row["omega"], row["tail"])):
            if not (omega / 2 <= t + BRACKET_EPS and t <= omega + BRACKET_EPS):
                return f"Watari bracket p={p} n={n}: omega={omega!r} tail={t!r}"
        diff = profile_shift_check(f, row["profile"], p, rng)
        if diff:
            return diff
    return None


def converge_check(seed: int, depth: int, n_max: int, rng: random.Random):
    """Rows of `converge --family random` against fejer_mean_by_average at sampled n."""
    def check(result):
        rows = result["reports"][0]["rows"]
        if [r["n"] for r in rows] != list(range(1, n_max + 1)):
            return "converge: unexpected orders"
        mart = dl.random_decaying_martingale(random.Random(seed), depth)
        term = mart.terminal_function()
        for n in rng.sample(range(1, n_max + 1), SAMPLES):
            sigma = dl.fejer_mean_by_average(mart, "kaczmarz", n)
            want = float(dl.hardy_quasinorm(
                dl.DyadicMartingale.from_function(sigma - term), Fraction(1, 2)))
            if not _close(rows[n - 1]["error_norm"], want):
                return f"converge n={n}: {rows[n - 1]['error_norm']!r} != {want!r}"
        return None
    return check


def weighted_check(mart, p: Fraction, n_max: int, rng: random.Random):
    """weighted_maximal against max_n |fejer_mean| / weight, oracle-checked at sampled n."""
    def check(result):
        best = np.asarray(result.values)
        ref = np.zeros_like(best)
        for n in range(1, n_max + 1):
            sigma = np.abs(np.asarray(dl.fejer_mean(mart, "kaczmarz", n).values))
            np.maximum(ref, sigma / dl.fejer_weight(p, n), out=ref)
        if not np.allclose(best, ref, rtol=FLOAT_RTOL, atol=1e-12 * float(np.max(ref))):
            return f"weighted_maximal: max deviation {float(np.max(np.abs(best - ref)))!r}"
        for n in rng.sample(range(1, 129), 2):
            fast = np.asarray(dl.fejer_mean(mart, "kaczmarz", n).values)
            slow = np.asarray(dl.fejer_mean_by_average(mart, "kaczmarz", n).values)
            if not np.allclose(fast, slow, rtol=FLOAT_RTOL, atol=1e-12):
                return f"fejer_mean n={n} disagrees with fejer_mean_by_average"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

def float_inputs(seed: int) -> dict:
    """The seeded inputs of float_moduli."""
    rng = random.Random(seed)
    return {
        "functions": [dl.random_sampled_function(rng, FLOAT_RESOLUTION)
                      for _ in range(FLOAT_FUNCTIONS)],
        "frontier": dl.random_sampled_function(rng, FRONTIER_RESOLUTION),
        "martingale": dl.random_decaying_martingale(rng, WEIGHTED_DEPTH),
    }


def inputs(workload: str, seed: int) -> dict:
    """Generate the workload's seeded inputs (the part of set-up that depends on seed)."""
    if workload == "float_moduli":
        return float_inputs(seed)
    if workload in ("kernel_scan", "exact_family"):
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def kernel_scan(seed: int, data: dict, workdir: Path, reference: dict) -> list[Op]:
    ops = [cli_op(f"lemma2_A{A}", ["verify", "lemma2", "--A", str(A)], workdir,
                  reference_check(f"lemma2_A{A}", reference)) for A in (6, 7, 8)]
    ops.append(cli_op("yano_n4096_r14",
                      ["verify", "yano", "--n-max", "4096", "--resolution", "14"], workdir,
                      reference_check("yano_n4096_r14", reference)))
    ops.append(cli_op("t2_d12", ["counterexample", "t2", "--depth", "12", "--i-list", "2,3"],
                      workdir, reference_check("t2_d12", reference)))
    return ops


def exact_family(seed: int, data: dict, workdir: Path, reference: dict) -> list[Op]:
    return [
        cli_op("t1_d14", ["counterexample", "t1", "--p", "1/4", "--depth", "14",
                          "--n-list", "4,5,6,7,8"], workdir, reference_check("t1_d14", reference)),
        cli_op("identities", ["verify", "identities", "--resolution", "8", "--depth", "5",
                              "--seed", str(seed)], workdir, identities_check),
        Op("rate_table_t1", lambda: dl.rate_table_t1(),
           reference_check("rate_table_t1", reference)),
    ]


def float_moduli(seed: int, data: dict, workdir: Path, reference: dict) -> list[Op]:
    rng = random.Random(seed + 1)     # gate sampling only
    masks = shift_masks(FLOAT_RESOLUTION)
    ops = []
    for k, f in enumerate(data["functions"]):
        ops.append(Op(f"profiles_N10_{k}",
                      lambda f=f: watari_profiles(f, masks),
                      lambda result, f=f: watari_check(f, result, rng)))
    g = data["frontier"]
    ops.append(Op("profile_N13_p4", lambda: dl.translate_norm_profile(g, 4),
                  lambda result: profile_shift_check(g, result, 4, rng)))
    ops.append(cli_op("converge_random_d12",
                      ["converge", "--family", "random", "--p", "1/2", "--depth", "12",
                       "--n-max", "64", "--seed", str(seed)],
                      workdir, converge_check(seed, 12, 64, rng)))
    mart = data["martingale"]
    half = Fraction(1, 2)
    ops.append(Op("weighted_maximal_d12",
                  lambda: dl.weighted_maximal(mart, half, WEIGHTED_N_MAX),
                  weighted_check(mart, half, WEIGHTED_N_MAX, rng)))
    return ops


WORKLOADS = {
    "kernel_scan": (kernel_scan, "lemma2_A8"),
    "exact_family": (exact_family, "t1_d14"),
    "float_moduli": (float_moduli, "profile_N13_p4"),
}

# Operations whose results do not depend on the seed; make_reference.py
# records them.
DETERMINISTIC = ("lemma2_A6", "lemma2_A7", "lemma2_A8", "yano_n4096_r14", "t2_d12",
                 "t1_d14", "rate_table_t1")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["results"]


def build(workload: str, seed: int, data: dict, workdir: Path,
          reference: dict) -> tuple[list[Op], str]:
    """The workload's operation list and the name of its frontier operation."""
    factory, frontier = WORKLOADS[workload]
    return factory(seed, data, workdir, reference), frontier
