"""Command-line interface: schemas, exit codes, determinism."""

import argparse
import json
import os
import shlex
import subprocess
import sys
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
                        "--out", str(out)])  # --resolution defaults to 12
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["resolution"] == 8
        assert payload["reports"][0]["parameters"]["resolution"] == 8

    def test_invalid_parameters(self, capsys):
        code = run_cli(["verify", "lemma2", "--A", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "yano", "--n-max", "0", "--resolution", "4"],
        ["verify", "identities", "--count", "0", "--resolution", "4", "--depth", "3"],
        ["converge", "--n-max", "0", "--depth", "3"]])
    def test_nothing_to_check_is_an_error(self, argv, capsys):
        # a verdict over no cases would be vacuous
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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

    def test_t2_family(self, tmp_path):
        out = tmp_path / "t2c.json"
        code = run_cli(["converge", "--family", "t2", "--p", "1/2",
                        "--depth", "10", "--n-list", "4,16,32",
                        "--out", str(out)])
        assert code == 0


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
