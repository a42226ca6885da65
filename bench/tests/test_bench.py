"""Tests of the benchmark itself: gate, tracer and refusal without sources.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import dyadlab as dl  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def _op(ops, name):
    return next(op for op in ops if op.name == name)


# ---------------------------------------------------------------------------
# correctness gate

def test_reference_gate_catches_perturbed_result(tmp_path, reference):
    op = _op(wl.build("kernel_scan", 0, {}, tmp_path, reference)[0], "lemma2_A6")
    result = op.run()
    assert op.gate(result) is None
    report = json.loads(result["report"])
    report["reports"][0]["witness"]["min_slack"] += 1
    bad = dict(result, report=json.dumps(report))
    assert "min_slack" in op.gate(bad)
    assert op.gate(dict(result, status=1)) is not None


def test_reference_gate_float_tolerance(tmp_path, reference):
    op = _op(wl.build("kernel_scan", 0, {}, tmp_path, reference)[0], "t2_d12")
    got = op.view(op.run())
    assert wl.compare(reference["t2_d12"], got) is None

    def nudged(rel):
        ref = copy.deepcopy(reference["t2_d12"])
        ref["reports"][1]["rows"][0]["quasi_norm"] *= 1 + rel
        return ref

    # a reordered reduction (a few ulps) passes, a wrong answer does not
    assert wl.compare(nudged(1e-13), got) is None
    assert "quasi_norm" in wl.compare(nudged(1e-6), got)


def test_reference_gate_ignores_added_fields_not_missing_ones(reference):
    ref = reference["lemma2_A6"]
    grown = copy.deepcopy(ref)
    grown["reports"][0]["witness"]["cells_checked"] = 10
    assert wl.compare(ref, grown) is None
    shrunk = copy.deepcopy(ref)
    del shrunk["reports"][0]["witness"]["min_slack"]
    assert "missing" in wl.compare(ref, shrunk)


def test_oracle_gate_catches_perturbed_profile():
    f = dl.random_sampled_function(random.Random(5), 6)
    result = wl.watari_profiles(f, wl.shift_masks(6))
    assert wl.watari_check(f, result, random.Random(0)) is None

    shifted = copy.deepcopy(result)
    shifted[2]["profile"] = shifted[2]["profile"] * (1 + 1e-6)
    assert "profile p=2" in wl.watari_check(f, shifted, random.Random(0))

    broken = copy.deepcopy(result)
    broken[4]["tail"][3] = 3 * broken[4]["omega"][3] + 1
    assert "Watari" in wl.watari_check(f, broken, random.Random(0))


def test_runner_counts_failures(tmp_path, reference):
    ops = [wl.Op("ok", lambda: 1, lambda r: None),
           wl.Op("wrong", lambda: 2, lambda r: "wrong answer"),
           wl.Op("raises", lambda: 1 / 0, lambda r: None)]
    runner = run.Runner(ops, "ok", wl.same)
    runner.gate(runner.timed_pass()[1])
    assert (runner.attempted, runner.failed) == (3, 2)


# ---------------------------------------------------------------------------
# tracer

def _small_ops(tmp_path):
    f = dl.random_sampled_function(random.Random(1), 6)
    return [
        wl.cli_op("lemma2_A5", ["verify", "lemma2", "--A", "5"], tmp_path, lambda r: None),
        wl.cli_op("t1_d6", ["counterexample", "t1", "--depth", "6", "--n-list", "2,3"],
                  tmp_path, lambda r: None),
        wl.cli_op("t2_d6", ["counterexample", "t2", "--depth", "6", "--levels", "2",
                            "--i-list", "2"], tmp_path, lambda r: None),
        wl.Op("profiles", lambda: wl.watari_profiles(f, wl.shift_masks(6)), lambda r: None),
        wl.cli_op("converge", ["converge", "--depth", "6", "--n-max", "8", "--seed", "3"],
                  tmp_path, lambda r: None),
    ]


def _traced_pass(runner):
    t = tr.Tracer()
    undo = tr.install(t, dl)
    try:
        times, results = runner.timed_pass()
    finally:
        tr.uninstall(undo)
    return t, times, results


def test_traced_counts_repeat_exactly_and_answers_match(tmp_path):
    runner = run.Runner(_small_ops(tmp_path), "t1_d6", wl.same)
    _, plain = runner.timed_pass()
    first, _, traced_a = _traced_pass(runner)
    second, _, traced_b = _traced_pass(runner)
    counts = tr.exact_counts(tr.layer_metrics(first))
    assert counts == tr.exact_counts(tr.layer_metrics(second))
    for name in ("experiments.dirichlet_prefix.cells", "experiments.verify_lemma2.points",
                 "walsh.fwht.calls", "walsh.inverse_fwht.cells",
                 "norms.translate_norm_profile.cells", "norms.weak_lp.calls",
                 "group.calls", "cli.report_bytes"):
        assert counts[name] > 0, name
    # lemma2 at A=5 enumerates 2^(2A-2s-1) points in each cell (m, s)
    A = 5
    assert counts["experiments.verify_lemma2.points"] == sum(
        1 << (2 * A - 2 * s - 1) for m in range(A - 2) for s in range(m + 2, A))
    assert counts["norms.translate_norm_profile.cells"] == 3 * 4 ** 6
    assert 0 < counts["norms.weak_lp.distinct_ratio"] <= 1
    for name, result in plain.items():
        assert wl.same(result, traced_a[name]) and wl.same(result, traced_b[name]), name


def test_self_times_cover_traced_wall(tmp_path):
    runner = run.Runner(_small_ops(tmp_path), "t1_d6", wl.same)
    runner.timed_pass()
    t, times, _ = _traced_pass(runner)
    layers = tr.layer_metrics(t)
    covered = sum(layers[f"{m}.self_s"] for m in tr.MODULES)
    assert covered <= times["wall_s"]
    assert covered + t.count_s >= 0.8 * times["wall_s"]


def test_uninstall_restores_every_binding():
    before = {(id(ns), k): v for ns in [dl] + [getattr(dl, m) for m in tr.MODULES]
              for k, v in vars(ns).items()}
    methods = dict(vars(dl.SampledFunction))
    undo = tr.install(tr.Tracer(), dl)
    assert dl.fwht is not before[id(dl), "fwht"]
    assert dl.norms.fwht is dl.walsh.fwht is dl.fwht
    tr.uninstall(undo)
    after = {(id(ns), k): v for ns in [dl] + [getattr(dl, m) for m in tr.MODULES]
             for k, v in vars(ns).items()}
    assert after == before
    assert dict(vars(dl.SampledFunction)) == methods


# ---------------------------------------------------------------------------
# command line

def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not np.any([line.startswith("{") for line in proc.stdout.splitlines()])
