"""Report bytes of small CLI runs against files recorded before a refactor.

Each case runs one command in-process with `--out <name>` relative to a
temporary working directory, so the echoed `out` field is the same on
every machine, and compares the file byte for byte with
tests/data/golden/<name>.  A difference means a refactor changed a
report: a value, a Python type (`8` vs `"8/1"`), a float digit or the
layout.
"""

import contextlib
import io
from pathlib import Path

import pytest

from dyadlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "kernel_fejer_kaczmarz.json": [
        "kernel", "--kind", "fejer", "--system", "kaczmarz", "--n", "12",
        "--resolution", "5"],
    "kernel_fejer_kaczmarz.csv": [
        "kernel", "--kind", "fejer", "--system", "kaczmarz", "--n", "12",
        "--resolution", "5", "--format", "csv"],
    "kernel_dirichlet.csv": [
        "kernel", "--kind", "dirichlet", "--n", "8", "--resolution", "4",
        "--format", "csv"],
    "kernel_dirichlet_float.csv": [
        "kernel", "--kind", "dirichlet", "--n", "8", "--resolution", "4",
        "--format", "csv", "--float"],
    "counterexample_t1.json": [
        "counterexample", "t1", "--p", "1/4", "--depth", "8", "--n-list", "4,5,6"],
    "counterexample_t1_float_p.json": [
        "counterexample", "t1", "--p", "2/5", "--depth", "8", "--n-list", "4,5,6"],
    "counterexample_t2.json": [
        "counterexample", "t2", "--depth", "9", "--i-list", "2,3"],
    "verify_yano.json": [
        "verify", "yano", "--n-max", "512", "--resolution", "12"],
    "verify_identities.json": [
        "verify", "identities", "--resolution", "6", "--depth", "4", "--count", "2",
        "--seed", "1"],
    "verify_identities_readme.json": [
        "verify", "identities", "--resolution", "8", "--depth", "5", "--seed", "7"],
    "converge_random.json": [
        "converge", "--family", "random", "--p", "1/2", "--depth", "6",
        "--n-max", "16", "--seed", "3"],
    "converge_t1.json": [
        "converge", "--family", "t1", "--p", "1/4", "--depth", "7", "--n-list",
        "4,8,16"],
    "converge_t2.json": [
        "converge", "--family", "t2", "--p", "1/2", "--depth", "9", "--n-list",
        "2,4,8,16"],
}


def render(name: str) -> bytes:
    """Run CASES[name] in the current directory and return its report bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        main([*CASES[name], "--out", name])
    return Path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(name) == (GOLDEN / name).read_bytes()
