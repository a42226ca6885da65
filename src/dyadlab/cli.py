"""Command-line front end: kernels, verifications, counterexamples, tables.

Subcommands
-----------
kernel          dump Dirichlet/Fejer kernel samples (exact rationals or floats)
verify          yano | lemma2 | identities
counterexample  t1 | t2  (build + audit + divergence table)
converge        rate/convergence tables for a chosen martingale family

Each target and family has its own parser holding only the flags its
runner reads.  Reports are written as JSON or CSV.  Reports echo the
flags the run read in their header, and identical configurations (same
seed) produce byte-identical files; wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import experiments
from .experiments import VerificationReport, jsonable
from .norms import lp_quasinorm
from .walsh import System, dirichlet, fejer


@dataclasses.dataclass
class RunConfig:
    """Echo of the flags the run read; field order is the header's key order."""

    command: str
    target: Optional[str] = None
    resolution: Optional[int] = None
    depth: Optional[int] = None
    p: Optional[str] = None
    system: Optional[str] = None
    kind: Optional[str] = None
    n: Optional[int] = None
    n_max: Optional[int] = None
    A: Optional[int] = None
    i_list: Optional[list[int]] = None
    n_list: Optional[list[int]] = None
    levels: Optional[int] = None
    count: Optional[int] = None
    family: Optional[str] = None
    exact: Optional[bool] = None
    format: str = "json"
    out: Optional[str] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:  # an empty list would run the default orders under an echo of []
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _parse_p(text: str) -> str:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/4, got {text!r}")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Dyadic-group harmonic analysis laboratory: kernels, "
                    "Hardy-space tables, and exhaustive verifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name: str, runner, help: str) -> argparse.ArgumentParser:
        """A parser that runs `runner`; it takes the report flags plus those added."""
        p = parent.add_parser(name, help=help)
        p.set_defaults(run=runner)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path")
        return p

    k = leaf(sub, "kernel", run_kernel, "dump kernel samples")
    k.add_argument("--kind", choices=("dirichlet", "fejer"), required=True)
    k.add_argument("--system", choices=("paley", "kaczmarz"), default="paley")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--resolution", type=int, required=True)
    mode = k.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="exact", action="store_true", default=True)
    mode.add_argument("--float", dest="exact", action="store_false")

    targets = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="target", required=True)
    y = leaf(targets, "yano", run_yano, "exact sweep of max_n ||K_n||_1 <= 2")
    y.add_argument("--n-max", type=int, default=512)
    y.add_argument("--resolution", type=int, default=12)
    leaf(targets, "lemma2", run_lemma2, "lacunary kernel lower bound").add_argument(
        "--A", type=int, default=3)
    i = leaf(targets, "identities", run_identities, "bundled exact cross-checks")
    i.add_argument("--resolution", type=int, default=8)
    i.add_argument("--depth", type=int, default=5)
    i.add_argument("--count", type=int, default=5)
    i.add_argument("--seed", type=int, default=0)

    families = sub.add_parser(
        "counterexample", help="build a family, audit it, tabulate divergence"
    ).add_subparsers(dest="family", required=True)
    t1 = leaf(families, "t1", run_t1, "the p < 1/2 family")
    t1.add_argument("--p", type=_parse_p, default="1/4")
    t1.add_argument("--n-list", type=_parse_int_list, default=None,
                    help="exponents n for orders 2^n+1 (default 4..8 below depth, else depth-1)")
    t2 = leaf(families, "t2", run_t2, "the p = 1/2 family")
    t2.add_argument("--i-list", type=_parse_int_list, default=None,
                    help="indices i for orders q_{2^{i-1}} (default 2, 3 if <= 2^depth, else 1)")
    for c, levels in ((t1, "depth-1"), (t2, "the largest L <= 3 with 2^L+1 <= depth")):
        c.add_argument("--levels", type=int, default=None, help=f"default {levels}")
        c.add_argument("--depth", type=int, default=10)

    g = leaf(sub, "converge", run_converge, "modulus/threshold/error tables")
    g.add_argument("--family", choices=("random", "t1", "t2"), default="random")
    g.add_argument("--p", type=_parse_p, default=None, help="default 1/4 for t1, else 1/2")
    g.add_argument("--depth", type=int, default=None, help="default 10 for t2, else 8")
    orders = g.add_mutually_exclusive_group()
    orders.add_argument("--n-max", type=int, default=None, help="sweep 1..n-max (default 64)")
    orders.add_argument("--n-list", type=_parse_int_list, default=None)
    g.add_argument("--levels", type=int, default=None, help="t1 and t2 only")
    g.add_argument("--seed", type=int, default=None, help="random only (default 0)")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {k: v for k, v in vars(args).items() if k in fields}
    return RunConfig(**data)


# ---------------------------------------------------------------------------
# output

def _csv_cell(value) -> str:
    return "" if value is None else str(jsonable(value))


def render_csv(config: RunConfig, reports: Sequence[VerificationReport],
               table_columns: Optional[list[str]] = None) -> str:
    lines = [f"# {key}={val}" for key, val in sorted(config.to_dict().items())]
    lines += [f"# claim={r.claim} verdict={'pass' if r.passed else 'fail'} mode={r.mode}"
              for r in reports]
    rows = [row for report in reports for row in report.rows or []]
    if rows:
        if table_columns is None:
            table_columns = list(dict.fromkeys(key for row in rows for key in row))
        lines.append(",".join(table_columns))
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(col)) for col in table_columns))
    else:
        lines.append("claim,verdict")
        for report in reports:
            lines.append(f"{report.claim},{'pass' if report.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def render_json(config: RunConfig, reports: Sequence[VerificationReport]) -> str:
    payload = {
        "config": jsonable(config.to_dict()),
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit(config: RunConfig, reports: Sequence[VerificationReport],
         table_columns: Optional[list[str]] = None) -> None:
    text = (render_csv(config, reports, table_columns)
            if config.format == "csv" else render_json(config, reports))
    if config.out:
        Path(config.out).write_text(text)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        runtime = f" ({report.runtime_s:.2f}s)" if report.runtime_s is not None else ""
        print(f"[{status}] {report.claim}{runtime}")
        for key, val in jsonable(report.witness).items():
            print(f"    {key}: {val}")
    if config.out:
        print(f"report written to {config.out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand runners

def run_kernel(config: RunConfig) -> list[VerificationReport]:
    build = dirichlet if config.kind == "dirichlet" else fejer
    kernel = build(System.coerce(config.system), config.n, config.resolution)
    if not config.exact:
        kernel = kernel.to_float()
    if kernel.is_exact:
        rows = [{"index": j, "value_numerator": v.numerator, "value_denominator": v.denominator}
                for j, v in enumerate(kernel.values)]
    else:
        rows = [{"index": j, "value": float(v)} for j, v in enumerate(kernel.values)]
    report = VerificationReport(
        claim=f"{config.kind}-kernel-dump",
        parameters={"system": config.system, "n": config.n,
                    "resolution": config.resolution},
        passed=True,
        witness={"l1_norm": lp_quasinorm(kernel, 1).value,
                 "value_at_zero": kernel[0]},
        mode=kernel.mode, rows=rows)
    return [report]


def run_yano(config: RunConfig) -> list[VerificationReport]:
    return [experiments.verify_yano(config.n_max, config.resolution)]


def run_lemma2(config: RunConfig) -> list[VerificationReport]:
    return [experiments.verify_lemma2(config.A)]


def run_identities(config: RunConfig) -> list[VerificationReport]:
    config.resolution = min(config.resolution, 8)  # echo the resolution that runs
    return experiments.verify_identities(
        resolution=config.resolution, depth=config.depth,
        seed=config.seed, count=config.count)


def _family(config: RunConfig) -> experiments.CounterexampleFamily:
    """The t1 or t2 family the flags name, at the default --levels that `--help` states."""
    if config.family == "t1":
        levels = config.depth - 1 if config.levels is None else config.levels
        return experiments.build_t1(Fraction(config.p), levels, config.depth)
    top = max(1, min(3, (config.depth - 1).bit_length() - 1))
    return experiments.build_t2(top if config.levels is None else config.levels, config.depth)


def run_t1(config: RunConfig) -> list[VerificationReport]:
    fam = _family(config)
    # the table runs first, so a bad order list exits before the audit; both run on shells
    orders = range(min(4, fam.depth - 1), min(9, fam.depth))  # 4..8 below the depth, or depth-1
    table = experiments.divergence_t1(fam, config.n_list or list(orders))
    return [experiments.audit_family(fam), table]


def run_t2(config: RunConfig) -> list[VerificationReport]:
    fam = _family(config)
    # the table runs first, so its checks come before the audit builds any 2^M array
    orders = [i for i in (2, 3) if experiments.q_seq(1 << (i - 1)) <= 1 << fam.depth] or [1]
    table = experiments.divergence_t2(fam, config.i_list or orders)
    return [experiments.audit_family(fam), table]


def run_converge(config: RunConfig) -> list[VerificationReport]:
    import random as _random
    config.p = config.p or ("1/4" if config.family == "t1" else "1/2")
    config.depth = (10 if config.family == "t2" else 8) if config.depth is None else config.depth
    p, depth = Fraction(config.p), config.depth
    parameters = {"family": config.family, "p": config.p, "depth": depth}
    if config.family == "random":
        if config.levels is not None:
            raise ValueError("--levels is read by --family t1 and t2 only")
        config.seed = config.seed or 0
        parameters["seed"] = config.seed
        mart = experiments.random_decaying_martingale(_random.Random(config.seed), depth)
    elif config.seed is not None:
        raise ValueError("--seed is read by --family random only")
    else:
        mart = _family(config).martingale
    if config.n_list:
        n_values = config.n_list
    else:
        n_max = 64 if config.n_max is None else config.n_max
        config.n_max = n_max = min(n_max, 1 << depth)  # echo the n_max that runs
        if n_max <= 64:
            n_values = list(range(1, n_max + 1))
        else:  # powers of two and midpoints keep long sweeps readable
            n_values = sorted({1, n_max}
                              | {1 << k for k in range(1, n_max.bit_length())}
                              | {3 << (k - 1) for k in range(1, n_max.bit_length())})
            n_values = [n for n in n_values if n <= n_max]
    rows = experiments.convergence_table(mart, p, n_values)
    final = rows[-1]
    report = VerificationReport(
        claim="fejer-convergence-table", parameters=parameters,
        passed=all(r["error_norm"] >= 0 for r in rows),
        witness={"final_n": final["n"], "final_error": final["error_norm"]},
        mode="float", rows=rows)
    return [report]


def run(config: RunConfig, runner: Callable[[RunConfig], list[VerificationReport]]) -> int:
    """Execute one configured command: 0 iff everything in scope passed, 2 on an error."""
    columns = ["n", "modulus", "threshold", "error_norm"] if config.command == "converge" else None
    try:
        reports = runner(config)
        emit(config, reports, columns)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args), args.run)


if __name__ == "__main__":
    sys.exit(main())
