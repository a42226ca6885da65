"""Command-line interface: schemas, exit codes, determinism."""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import dyadlab
from dyadlab import experiments
from dyadlab.cli import build_parser, config_from_args, main

# the package under test, for subprocesses that start with a bare environment
SRC = os.path.dirname(os.path.dirname(dyadlab.__file__))


def run_cli(argv, tmp_path=None):
    return main(list(argv))


class TestKernelCommand:
    def test_dirichlet_dump_json(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        code = run_cli(["kernel", "--kind", "dirichlet", "--system", "paley",
                        "--n", "8", "--resolution", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "kernel"
        rows = payload["reports"][0]["rows"]
        assert len(rows) == 16
        values = {row["index"]: row["value_numerator"] for row in rows}
        assert values[0] == 8 and values[8] == 8
        assert all(v == 0 for j, v in values.items() if j not in (0, 8))
        assert all(row["value_denominator"] == 1 for row in rows)

    def test_fejer_csv_exact_schema(self, tmp_path):
        out = tmp_path / "kernel.csv"
        code = run_cli(["kernel", "--kind", "fejer", "--system", "kaczmarz",
                        "--n", "5", "--resolution", "3", "--format", "csv",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "index,value_numerator,value_denominator"
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 8

    def test_float_dump_schema(self, tmp_path):
        out = tmp_path / "kernel.csv"
        run_cli(["kernel", "--kind", "fejer", "--n", "3", "--resolution", "3",
                 "--float", "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "index,value"

    @pytest.mark.parametrize("flags", [["--kind", "dirichlet"], ["--kind", "fejer"],
                                       ["--kind", "fejer", "--float"]], ids=" ".join)
    def test_resolution_past_the_cell_limit(self, flags, capsys):
        # refused by `dirichlet` or `fejer` before any of the 2^25 cells is allocated
        tracemalloc.start()
        try:
            code = run_cli(["kernel", *flags, "--n", "3", "--resolution", "25"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert capsys.readouterr().err == (
            "error: depth 25 would materialize 2^25 cells; the limit is 24\n")

    def test_capacity_error(self, capsys):
        code = run_cli(["kernel", "--kind", "dirichlet", "--n", "100",
                        "--resolution", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_yano_pass(self, tmp_path):
        out = tmp_path / "yano.json"
        code = run_cli(["verify", "yano", "--n-max", "64", "--resolution", "8",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        report = payload["reports"][0]
        assert report["verdict"] == "pass"
        assert report["mode"] == "exact"
        assert set(report) >= {"claim", "parameters", "verdict", "witness", "mode"}
        assert "runtime_s" not in report  # timings stay off the byte-stable file

    def test_lemma2_pass(self, tmp_path):
        out = tmp_path / "lemma2.json"
        code = run_cli(["verify", "lemma2", "--A", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][0]["witness"]["min_slack"] > 0

    def test_identities_pass(self):
        code = run_cli(["verify", "identities", "--resolution", "6",
                        "--depth", "4", "--count", "2", "--seed", "1"])
        assert code == 0

    def test_identities_header_echoes_resolution_that_ran(self, tmp_path):
        out = tmp_path / "identities.json"
        code = run_cli(["verify", "identities", "--depth", "2", "--count", "1",
                        "--out", str(out)])  # --resolution defaults to 8, the most that runs
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["resolution"] == 8
        assert payload["reports"][0]["parameters"]["resolution"] == 8

    def test_invalid_parameters(self, capsys):
        code = run_cli(["verify", "lemma2", "--A", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing/lemma2.json", ""])  # "" names tmp_path itself
    def test_unwritable_report_is_an_error(self, name, tmp_path, capsys):
        # every check ran and passed; exit 1 would say one failed
        assert run_cli(["verify", "lemma2", "--A", "3", "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_identities_depth_past_the_cell_limit(self, capsys):
        # the conjugate sweep would sign 2^25 cells; refused before any martingale is drawn
        assert run_cli(["verify", "identities", "--resolution", "4", "--depth", "12"]) == 2
        assert capsys.readouterr().err == (
            "error: depth 12 signs 2^25 cells; the limit is 2^24\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "yano", "--n-max", "0", "--resolution", "4"],
        ["verify", "identities", "--count", "0", "--resolution", "4", "--depth", "3"],
        ["converge", "--n-max", "0", "--depth", "3"]])
    def test_nothing_to_check_is_an_error(self, argv, capsys):
        # a verdict over no cases would be vacuous
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["verify", "yano", "--n-max", "4", "--resolution", "-1"],
         "resolution must be >= 0, got -1"),
        (["verify", "identities", "--resolution", "-2", "--depth", "3"],
         "resolution must be >= 0, got -2"),
        (["verify", "identities", "--resolution", "4", "--depth", "-1"],
         "depth must be >= 0, got -1"),
        (["converge", "--depth", "-1"], "depth must be >= 0, got -1"),
        (["kernel", "--kind", "fejer", "--n", "1", "--resolution", "-1"],
         "resolution must be >= 0, got -1"),
        (["kernel", "--kind", "dirichlet", "--n", "1", "--resolution", "-1"],
         "resolution must be >= 0, got -1"),
        (["kernel", "--kind", "fejer", "--n", "1", "--resolution", "-1", "--float"],
         "resolution must be >= 0, got -1")])
    def test_negative_size_names_the_flag(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_yano_resolution_beyond_memory(self, tmp_path):
        # K_1..K_4 live on 2^2 cells, so resolution 40 sums no more than resolution 2
        witnesses = []
        for resolution in ("40", "2"):
            out = tmp_path / f"yano_{resolution}.json"
            assert run_cli(["verify", "yano", "--n-max", "4", "--resolution", resolution,
                            "--out", str(out)]) == 0
            witnesses.append(json.loads(out.read_text())["reports"][0]["witness"])
        assert witnesses[0] == witnesses[1]


class TestCounterexampleCommand:
    def test_t1(self, tmp_path):
        out = tmp_path / "t1.json"
        code = run_cli(["counterexample", "t1", "--p", "1/4", "--depth", "8",
                        "--n-list", "4,5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        claims = [r["claim"] for r in payload["reports"]]
        assert claims == ["family-t1-audit", "t1-weak-divergence"]

    def test_t2(self, tmp_path):
        out = tmp_path / "t2.json"
        code = run_cli(["counterexample", "t2", "--levels", "2", "--depth", "6",
                        "--i-list", "2", "--out", str(out)])
        assert code == 0

    def test_bad_p(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["counterexample", "t1", "--p", "abc"])

    @pytest.mark.parametrize("argv, message", [
        (["counterexample", "t1", "--depth", "6", "--n-list", "-1"],
         "n_list value -1 outside 0..5 at depth 6"),
        (["counterexample", "t2", "--depth", "6", "--levels", "2", "--i-list", "0"],
         "i_list value 0 needs i >= 1 and q_(2^(i-1)) <= 2^6")], ids=["t1", "t2"])
    def test_out_of_range_order_exits_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["t1", "--depth", "64", "--n-list", "4,24"],
         "depth 25 would materialize 2^25 cells; the limit is 24"),
        (["t2", "--depth", "25"], "depth 25 would materialize 2^25 cells; the limit is 24"),
        (["t1", "--depth", "10", "--n-list", "30"], "n_list value 30 outside 0..9 at depth 10")],
        ids=["t1-row-past-cell-limit", "t2-depth-25", "t1-bad-order"])
    def test_table_checks_run_before_any_array(self, argv, message, monkeypatch, capsys):
        audits = []
        monkeypatch.setattr(experiments, "audit_family", audits.append)
        tracemalloc.start()
        try:
            code = run_cli(["counterexample", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, audits) == (2, [])
        assert peak < 20 << 20
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_t1_past_the_array_limit(self, tmp_path):
        # the table and the audit read shells, so depths 40 and 64 run in little memory,
        # and rows n = 4..8 keep the depth-14 values exactly
        def report(depth):
            out = tmp_path / f"t1-{depth}.json"
            tracemalloc.start()
            try:
                code = run_cli(["counterexample", "t1", "--p", "1/4", "--depth", str(depth),
                                "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 20 << 20
            return json.loads(out.read_text())["reports"]

        _, near = report(14)
        for depth in (40, 64):
            audit, table = report(depth)
            assert audit["verdict"] == table["verdict"] == "pass"
            assert [row["rank"] for row in audit["rows"]] == list(range(depth))
            assert [row["n"] for row in table["rows"]] == [4, 5, 6, 7, 8]
            for row, other in zip(table["rows"], near["rows"]):
                for key in ("weak_norm", "fejer_error_2n", "partial_error_2n"):
                    assert Fraction(row[key]) == Fraction(other[key]), (depth, row["n"], key)

    @pytest.mark.parametrize("argv, message", [
        (["counterexample", "t1", "--p", "3e-400", "--depth", "8"],
         "exponent p is nonzero but its float is 0"),
        (["converge", "--family", "t1", "--p", "1e-400"],
         "exponent p is nonzero but its float is 0"),
        (["counterexample", "t1", "--p", "1e-300", "--depth", "8"],
         f"p = 1/{10 ** 300} at depth 8 forms integers of up to {8 * (10 ** 300 + 3)} bits, "
         "past the 4300-digit limit on printing an int"),
        (["counterexample", "t1", "--p", "1/2000", "--depth", "64"],
         "p = 1/2000 at depth 64 forms integers of up to 128192 bits, "
         "past the 4300-digit limit on printing an int"),
        # the table's depth + 1 family is the first whose integers could not print
        (["counterexample", "t1", "--p", "1/217", "--depth", "64"],
         "p = 1/217 at depth 65 forms integers of up to 14300 bits, "
         "past the 4300-digit limit on printing an int")],
        ids=["float-zero", "converge-float-zero", "1e-300", "1/2000", "past-the-edge"])
    def test_p_refused_before_any_work(self, argv, message, int_digits, monkeypatch, capsys):
        work = []
        for name in ("_gap", "audit_family", "convergence_table"):
            monkeypatch.setattr(experiments, name, lambda *args, name=name: work.append(name))
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, work) == (2, [])
        assert peak < 1 << 20
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_p_at_the_print_edge_runs(self, int_digits, tmp_path):
        # 65 (k + 3) bits fit in 4300 digits for k = 216, not for 217
        out = tmp_path / "edge.json"
        assert run_cli(["counterexample", "t1", "--p", "1/216", "--depth", "64",
                        "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["verdict"] for r in reports] == ["pass", "pass"]

    @pytest.mark.parametrize("depth, t1_orders, t2_levels, t2_orders", [
        (2, [1], None, None), (3, [2], 1, [1]), (4, [3], 1, [1]), (5, [4], 2, [2]),
        (6, [4, 5], 2, [2]), (7, [4, 5, 6], 2, [2]), (8, [4, 5, 6, 7], 2, [2]),
        (9, [4, 5, 6, 7, 8], 3, [2, 3]), (10, [4, 5, 6, 7, 8], 3, [2, 3])])
    def test_defaults_follow_the_depth(self, depth, t1_orders, t2_levels, t2_orders, tmp_path,
                                       capsys):
        # t1: levels depth - 1 and the orders 4..8 below the depth, else depth - 1 alone;
        # t2: the largest L <= 3 with 2^L + 1 <= depth, and the i of 2, 3 whose order
        # q_(2^(i-1)) is at most 2^depth, else 1.  The header echoes none of them.
        out = tmp_path / "r.json"
        assert run_cli(["counterexample", "t1", "--depth", str(depth), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][1]["parameters"]["n_list"] == t1_orders
        assert payload["reports"][1]["parameters"]["levels"] == depth - 1
        assert "n_list" not in payload["config"] and "levels" not in payload["config"]
        code = run_cli(["counterexample", "t2", "--depth", str(depth), "--out", str(out)])
        if t2_levels is None:  # no block fits, so the family itself is refused
            assert code == 2
            assert capsys.readouterr().err == "error: block 1 needs depth >= 3, got 2\n"
            return
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][1]["parameters"]["i_list"] == t2_orders
        assert payload["reports"][1]["parameters"]["levels"] == t2_levels
        assert "i_list" not in payload["config"] and "levels" not in payload["config"]

    @pytest.mark.parametrize("family, argv", [
        ("t1", ["--p", "1/4", "--depth", "7", "--n-list", "4,5,6"]),
        ("t2", ["--levels", "2", "--depth", "6", "--i-list", "2"])])
    def test_builds_each_depth_once(self, family, argv, tmp_path, monkeypatch):
        # one family at the requested depth for the audit and the table,
        # one a level deeper for the truncation check
        builder = getattr(experiments, f"build_{family}")
        depths = []

        def counting(*args):
            depths.append(args[-1])
            return builder(*args)

        monkeypatch.setattr(experiments, f"build_{family}", counting)
        out = tmp_path / "r.json"
        assert run_cli(["counterexample", family, *argv, "--out", str(out)]) == 0
        depth = int(argv[argv.index("--depth") + 1])
        assert depths == [depth, depth + 1]
        rows = json.loads(out.read_text())["reports"][1]["rows"]
        if family == "t1":
            assert len({row["truncation_tail_norm"] for row in rows}) == 1


class TestConvergeCommand:
    def test_random_family_csv_schema(self, tmp_path):
        out = tmp_path / "converge.csv"
        code = run_cli(["converge", "--family", "random", "--p", "1/2",
                        "--depth", "6", "--n-max", "16", "--seed", "5",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "n,modulus,threshold,error_norm"

    def test_random_depth_limit_is_one_error_line(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the depth check")

        monkeypatch.setattr(experiments.np, "empty", refuse)
        assert run_cli(["converge", "--family", "random", "--depth", "25"]) == 2
        assert capsys.readouterr().err == (
            "error: depth 25 would materialize 2^25 cells; the limit is 24\n")

    def test_t2_family(self, tmp_path):
        out = tmp_path / "t2c.json"
        code = run_cli(["converge", "--family", "t2", "--p", "1/2",
                        "--depth", "10", "--n-list", "4,16,32",
                        "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("family, p, depth", [
        ("t1", "1/4", 8), ("t2", "1/2", 10), ("random", "1/2", 8)])
    def test_family_defaults_run_and_echo(self, tmp_path, family, p, depth):
        # t1 needs p < 1/2 and t2's three blocks need depth >= 9, so p and
        # depth default per family; the header echoes the values that ran
        out = tmp_path / "defaults.json"
        assert run_cli(["converge", "--family", family, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["config"]["p"], payload["config"]["depth"]) == (p, depth)
        assert payload["reports"][0]["parameters"] == {
            "family": family, "p": p, "depth": depth, **({"seed": 0} if family == "random" else {})}

    def test_explicit_p_and_depth_win(self, tmp_path):
        out = tmp_path / "explicit.json"
        assert run_cli(["converge", "--family", "t1", "--p", "1/3", "--depth", "6",
                        "--n-list", "2", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["p"], config["depth"]) == ("1/3", 6)


class TestDeterminism:
    # identical config means identical bytes, so re-run against the SAME
    # output path and compare snapshots

    def _run_twice(self, args, path):
        assert run_cli(args + ["--out", str(path)]) == 0
        first = path.read_bytes()
        assert run_cli(args + ["--out", str(path)]) == 0
        return first, path.read_bytes()

    def test_identical_bytes_same_seed(self, tmp_path):
        args = ["converge", "--family", "random", "--p", "1/2", "--depth", "6",
                "--n-max", "8", "--seed", "9"]
        first, second = self._run_twice(args, tmp_path / "r.json")
        assert first == second

    def test_identical_bytes_lemma2_rerun(self, tmp_path):
        args = ["verify", "lemma2", "--A", "4"]
        first, second = self._run_twice(args, tmp_path / "r.json")
        assert first == second

    def test_identical_bytes_across_processes(self, tmp_path):
        # fresh interpreters (different hash seeds) must not change output
        path = tmp_path / "r.json"
        snapshots = []
        for hashseed in ("1", "7"):
            proc = subprocess.run(
                [sys.executable, "-m", "dyadlab.cli", "verify", "lemma2",
                 "--A", "3", "--out", str(path)],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
            )
            assert proc.returncode == 0, proc.stderr
            snapshots.append(path.read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_csv_determinism(self, tmp_path):
        args = ["counterexample", "t2", "--levels", "2", "--depth", "6",
                "--i-list", "2", "--format", "csv"]
        first, second = self._run_twice(args, tmp_path / "r.csv")
        assert first == second


class TestConfigEcho:
    def test_config_in_header(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["verify", "yano", "--n-max", "32", "--resolution", "6",
                 "--out", str(out)])
        config = json.loads(out.read_text())["config"]
        assert config["n_max"] == 32
        assert config["resolution"] == 6
        run_cli(["verify", "identities", "--depth", "2", "--count", "1",
                 "--seed", "3", "--out", str(out)])
        config = json.loads(out.read_text())["config"]
        assert config["seed"] == 3

    @pytest.mark.parametrize("flag", ["--float", "--exact"])
    def test_mode_flags_only_on_kernel(self, flag, capsys):
        # no other runner reads the mode, so it must not be accepted and echoed
        with pytest.raises(SystemExit) as exc:
            main(["verify", "yano", "--n-max", "8", "--resolution", "4", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["counterexample", "t1", "--depth", "9", "--n-list", ""],
        ["converge", "--depth", "4", "--n-list", ","]], ids=" ".join)
    def test_empty_order_list_exits_2(self, argv, capsys):
        assert exit_status(argv) == 2
        assert "expected comma-separated integers" in capsys.readouterr().err

    def test_converge_echoes_n_max_that_ran(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["converge", "--depth", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n_max"] == 16
        assert [row["n"] for row in payload["reports"][0]["rows"]] == list(range(1, 17))

    def test_converge_long_sweep_takes_powers_of_two_and_midpoints(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["converge", "--depth", "8", "--n-max", "200", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n_max"] == 200
        assert [row["n"] for row in payload["reports"][0]["rows"]] == [
            1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 200]

    def test_csv_header_comments(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["verify", "yano", "--n-max", "32", "--resolution", "6",
                 "--format", "csv", "--out", str(out)])
        text = out.read_text()
        assert "# n_max=32" in text
        assert "# claim=fejer-kernel-l1-bound verdict=pass mode=exact" in text


def exit_status(argv) -> int:
    """main's return value, or the status of the SystemExit a parse error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a minimal valid argv for every leaf parser; converge once for random, once for t1
LEAVES = [
    ["kernel", "--kind", "dirichlet", "--n", "2", "--resolution", "2"],
    ["verify", "yano", "--n-max", "4", "--resolution", "3"],
    ["verify", "lemma2", "--A", "3"],
    ["verify", "identities", "--depth", "2", "--count", "1"],
    ["counterexample", "t1", "--depth", "5", "--n-list", "2"],
    ["counterexample", "t2", "--levels", "2", "--depth", "6", "--i-list", "2"],
    ["converge", "--depth", "4", "--n-max", "4"],
    ["converge", "--family", "t1", "--p", "1/4", "--depth", "5", "--n-list", "2,4"],
]


def leaf_parser(argv):
    """The parser that reads the options of `argv`, and the dests of the names before them."""
    parser, names = build_parser(), set()
    for name in argv:
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers or name.startswith("--"):
            break
        names.add(subparsers[0].dest)
        parser = subparsers[0].choices[name]
    return parser, names


class TestFlagsPerLeaf:
    @pytest.mark.parametrize("argv", [
        ["kernel", "--kind", "fejer", "--n", "3", "--resolution", "3", "--seed", "1"],
        ["verify", "yano", "--n-max", "8", "--resolution", "4", "--seed", "3"],
        ["verify", "lemma2", "--A", "3", "--resolution", "20"],
        ["verify", "identities", "--n-max", "5"],
        ["counterexample", "t1", "--depth", "6", "--n-list", "2", "--i-list", "2"],
        ["counterexample", "t2", "--depth", "6", "--i-list", "2", "--p", "1/3"],
        ["converge", "--family", "t1", "--p", "1/4", "--depth", "5", "--seed", "2"],
        ["converge", "--family", "random", "--depth", "5", "--levels", "3"],
        ["converge", "--depth", "5", "--n-max", "8", "--n-list", "4"]], ids=" ".join)
    def test_unread_flag_exits_2(self, argv, capsys):
        assert exit_status(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and argv[-2] in err  # names the flag it refuses
        if argv[0] == "converge" and "--n-list" not in argv:  # the runner rejects it
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", LEAVES, ids=lambda argv: " ".join(argv[:3]))
    def test_header_names_only_registered_flags(self, argv, tmp_path):
        # every echoed key is the command, the leaf's name or a flag the leaf
        # registers, so no default of another leaf can leak into a header
        parser, allowed = leaf_parser(argv)
        allowed |= {a.dest for a in parser._actions if a.option_strings}
        config = config_from_args(build_parser().parse_args(argv))
        assert set(config.to_dict()) <= allowed
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["config"]) <= allowed

    def test_lemma2_header_has_no_resolution(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "lemma2", "--A", "3", "--out", str(out)]) == 0
        assert "resolution" not in json.loads(out.read_text())["config"]

    def test_t2_header_has_no_p(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["counterexample", "t2", "--levels", "2", "--depth", "6",
                     "--i-list", "2", "--out", str(out)]) == 0
        assert "p" not in json.loads(out.read_text())["config"]

    def test_converge_echoes_n_max_and_seed_only_when_read(self, tmp_path):
        out = tmp_path / "r.json"
        assert main([*LEAVES[-1], "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert not {"n_max", "seed"} & set(payload["config"])
        assert "seed" not in payload["reports"][0]["parameters"]
        assert main(["converge", "--depth", "6", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n_max"] == 64 and payload["config"]["seed"] == 0
        assert payload["reports"][0]["parameters"]["seed"] == 0


README = Path(SRC).parent / "README.md"


def readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("dyadlab ")]


BENCHMARK_ARGVS = [
    ["verify", "lemma2", "--A", "8"],
    ["verify", "yano", "--n-max", "4096", "--resolution", "14"],
    ["counterexample", "t2", "--depth", "12", "--i-list", "2,3"],
    ["counterexample", "t1", "--p", "1/4", "--depth", "14", "--n-list", "4,5,6,7,8"],
    ["verify", "identities", "--resolution", "8", "--depth", "5", "--seed", "1"],
    ["converge", "--family", "random", "--p", "1/2", "--depth", "12", "--n-max", "64",
     "--seed", "1"],
    ["converge", "--depth", "6", "--n-max", "8", "--seed", "3"],
]


def test_documented_and_benchmark_argvs_parse():
    readme = readme_commands()
    assert len(readme) == 7
    for argv in readme + BENCHMARK_ARGVS:
        assert callable(build_parser().parse_args(argv).run), argv


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands' relative --out files land here
    for argv in readme_commands():
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
