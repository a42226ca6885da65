"""Command-line front end: kernels, verifications, counterexamples, tables.

Subcommands
-----------
kernel          dump Dirichlet/Fejer kernel samples (exact rationals or floats)
verify          yano | lemma2 | identities
counterexample  t1 | t2  (build + audit + divergence table)
converge        rate/convergence tables for a chosen martingale family

Reports are written as JSON or CSV.  The parsed configuration is echoed
into every report header and identical configurations (same seed)
produce byte-identical files; wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import experiments
from .experiments import VerificationReport, jsonable
from .norms import lp_quasinorm
from .walsh import System, dirichlet, fejer


@dataclasses.dataclass
class RunConfig:
    """Echo of the parsed command line; part of every report header."""

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
    seed: int = 0

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_p(text: str) -> str:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/4, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Dyadic-group harmonic analysis laboratory: kernels, "
                    "Hardy-space tables, and exhaustive verifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--seed", type=int, default=0)

    k = sub.add_parser("kernel", help="dump kernel samples")
    k.add_argument("--kind", choices=("dirichlet", "fejer"), required=True)
    k.add_argument("--system", choices=("paley", "kaczmarz"), default="paley")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--resolution", type=int, required=True)
    add_io_flags(k)
    mode = k.add_mutually_exclusive_group()  # only run_kernel reads config.exact
    mode.add_argument("--exact", dest="exact", action="store_true", default=True)
    mode.add_argument("--float", dest="exact", action="store_false")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("target", choices=("yano", "lemma2", "identities"))
    v.add_argument("--n-max", type=int, default=512)
    v.add_argument("--resolution", type=int, default=12)
    v.add_argument("--A", type=int, default=3)
    v.add_argument("--depth", type=int, default=5)
    v.add_argument("--count", type=int, default=5)
    add_io_flags(v)

    c = sub.add_parser("counterexample", help="build a family, audit it, tabulate divergence")
    c.add_argument("family", choices=("t1", "t2"))
    c.add_argument("--p", type=_parse_p, default="1/4")
    c.add_argument("--levels", type=int, default=None)
    c.add_argument("--depth", type=int, default=10)
    c.add_argument("--n-list", type=_parse_int_list, default=None,
                   help="t1: exponents n for orders 2^n+1")
    c.add_argument("--i-list", type=_parse_int_list, default=None,
                   help="t2: indices i for orders q_{2^{i-1}}")
    add_io_flags(c)

    g = sub.add_parser("converge", help="modulus/threshold/error tables")
    g.add_argument("--family", choices=("random", "t1", "t2"), default="random")
    g.add_argument("--p", type=_parse_p, default="1/2")
    g.add_argument("--depth", type=int, default=8)
    g.add_argument("--n-max", type=int, default=64)
    g.add_argument("--n-list", type=_parse_int_list, default=None)
    g.add_argument("--levels", type=int, default=None)
    add_io_flags(g)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {k: v for k, v in vars(args).items() if k in fields}
    return RunConfig(**data)


# ---------------------------------------------------------------------------
# output

def _csv_cell(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def render_csv(config: RunConfig, reports: Sequence[VerificationReport],
               table_columns: Optional[list[str]] = None) -> str:
    lines = []
    for key, val in sorted(config.to_dict().items()):
        lines.append(f"# {key}={val}")
    for report in reports:
        lines.append(f"# claim={report.claim} verdict="
                     f"{'pass' if report.passed else 'fail'} mode={report.mode}")
    rows: list[dict] = []
    for report in reports:
        if report.rows:
            rows.extend(report.rows)
    if rows:
        if table_columns is None:
            table_columns = []
            for row in rows:
                for key in row:
                    if key not in table_columns:
                        table_columns.append(key)
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
        rows = []
        for j, v in enumerate(kernel.values):
            frac = v if isinstance(v, Fraction) else Fraction(v)
            rows.append({"index": j, "value_numerator": frac.numerator,
                         "value_denominator": frac.denominator})
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


def run_verify(config: RunConfig) -> list[VerificationReport]:
    if config.target == "yano":
        return [experiments.verify_yano(config.n_max, config.resolution)]
    if config.target == "lemma2":
        return [experiments.verify_lemma2(config.A)]
    config.resolution = min(config.resolution, 8)  # echo the resolution that runs
    return experiments.verify_identities(
        resolution=config.resolution, depth=config.depth,
        seed=config.seed, count=config.count)


def run_counterexample(config: RunConfig) -> list[VerificationReport]:
    if config.family == "t1":
        depth = config.depth
        levels = config.levels if config.levels is not None else depth - 1
        n_list = config.n_list or [4, 5, 6, 7, 8]
        fam = experiments.build_t1(Fraction(config.p), levels, depth)
        return [experiments.audit_family(fam), experiments.divergence_t1(fam, n_list)]
    depth = config.depth
    levels = config.levels if config.levels is not None else 3
    i_list = config.i_list or [2, 3]
    fam = experiments.build_t2(levels, depth)
    return [experiments.audit_family(fam), experiments.divergence_t2(fam, i_list)]


def run_converge(config: RunConfig) -> list[VerificationReport]:
    import random as _random
    p = Fraction(config.p)
    depth = config.depth
    if config.family == "t1":
        levels = config.levels if config.levels is not None else depth - 1
        mart = experiments.build_t1(p, levels, depth).martingale
    elif config.family == "t2":
        levels = config.levels if config.levels is not None else 3
        mart = experiments.build_t2(levels, depth).martingale
    else:
        mart = experiments.random_decaying_martingale(_random.Random(config.seed), depth)
    if config.n_list:
        n_values = config.n_list
    else:
        n_max = min(config.n_max, 1 << depth)
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
        claim="fejer-convergence-table",
        parameters={"family": config.family, "p": config.p, "depth": depth,
                    "seed": config.seed},
        passed=all(r["error_norm"] >= 0 for r in rows),
        witness={"final_n": final["n"], "final_error": final["error_norm"]},
        mode="float", rows=rows)
    return [report]


def run(config: RunConfig) -> int:
    """Execute one configured command; 0 iff everything in scope passed."""
    try:
        if config.command == "kernel":
            reports = run_kernel(config)
        elif config.command == "verify":
            reports = run_verify(config)
        elif config.command == "counterexample":
            reports = run_counterexample(config)
        elif config.command == "converge":
            reports = run_converge(config)
        else:
            print(f"error: unknown command {config.command}", file=sys.stderr)
            return 2
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    columns = None
    if config.command == "converge":
        columns = ["n", "modulus", "threshold", "error_norm"]
    emit(config, reports, columns)
    return 0 if all(r.passed for r in reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
