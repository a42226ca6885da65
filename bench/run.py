"""dyadlab benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ./src; no
build step is needed.  One process runs the workload's operation list
(a "pass") again and again until --seconds have been spent, single
threaded and with nothing else running in it.  Inputs are generated
from --seed before timing starts.  After each timed pass the
correctness gate checks every result, untimed: the first pass against
the references and oracles in workloads.py, every later pass for
bitwise equality with the first.

--trace 0 prints the end-to-end metrics, each a median over passes:
wall_s, largest_op_s, cpu_s, peak_rss_mb and setup_s (median of
several fresh interpreters that import dyadlab and build the inputs).
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of tracer.py, with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A line before it, starting
with "detail ", holds the environment, failed_ratio and per-operation
times.
"""

from __future__ import annotations

import os

# Single-threaded numerics: set before numpy is imported here or in a probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

END_TO_END_UNITS = {"wall_s": "s", "largest_op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files (no search above ROOT)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu() -> dict:
    info: dict = {"model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and info["model"] is None:
                info["model"] = value.strip()
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return info


def environment() -> dict:
    import numpy as np
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# set-up time

def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing dyadlab and building inputs."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    samples = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        if k:   # the first probe may still be writing bytecode caches
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# passes

class Runner:
    """Runs the operation list, keeps the first verified result of each op."""

    def __init__(self, ops, frontier: str, same):
        self.ops = ops
        self.same = same
        self.frontier = frontier
        self.verified: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {op.name: [] for op in ops}

    def timed_pass(self) -> tuple[dict, dict]:
        """One pass of every op; returns (wall/cpu/frontier times, results)."""
        results = {}
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        frontier_s = None
        for op in self.ops:
            start = time.perf_counter()
            try:
                results[op.name] = op.run()
            except Exception:  # a failing op is counted, the pass goes on
                results[op.name] = _Raised(traceback.format_exc())
            elapsed = time.perf_counter() - start
            self.op_times[op.name].append(elapsed)
            if op.name == self.frontier:
                frontier_s = elapsed
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        return {"wall_s": wall, "cpu_s": cpu, "largest_op_s": frontier_s}, results

    def gate(self, results: dict) -> None:
        """Untimed correctness gate over one pass's results."""
        for op in self.ops:
            self.attempted += 1
            result = results[op.name]
            problem = None
            if isinstance(result, _Raised):
                problem = "raised:\n" + result.text
            elif op.name in self.verified:
                if not self.same(self.verified[op.name], result):
                    problem = "result differs from the verified first pass"
            else:
                try:
                    problem = op.gate(result)
                except Exception:
                    problem = "gate raised:\n" + traceback.format_exc()
                if problem is None:
                    self.verified[op.name] = result
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{op.name}: {problem}")
                print(f"FAILED {op.name}: {problem}", file=sys.stderr)


class _Raised:
    def __init__(self, text: str):
        self.text = text


def run_untraced(runner: Runner, seconds: float) -> dict:
    passes = []
    walls = []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        times, results = runner.timed_pass()
        runner.gate(results)
        passes.append(times)
        walls.append(times["wall_s"])
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in ("wall_s", "largest_op_s", "cpu_s")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["passes"] = len(passes)
    return metrics


def run_traced(runner: Runner, seconds: float, package) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes.

    The per-layer metrics are those of the traced pass with the median
    wall time, so its module self times and `trace.unattributed_s` add up
    to its `trace.wall_s`; `trace.overhead_s` is the median over pairs.
    """
    import tracer as tr
    passes = []
    overheads = []
    pair_s = []
    problems = []
    while not passes or sum(pair_s) + statistics.median(pair_s) <= seconds:
        plain, results = runner.timed_pass()
        runner.gate(results)
        t = tr.Tracer()
        undo = tr.install(t, package)
        try:
            traced, results = runner.timed_pass()
        finally:
            tr.uninstall(undo)
        runner.gate(results)        # traced answers must equal the untraced ones
        layers = tr.layer_metrics(t)
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.count_s"] = t.count_s
        layers["trace.unattributed_s"] = traced["wall_s"] - sum(
            layers[f"{m}.self_s"] for m in tr.MODULES)
        if passes and tr.exact_counts(layers) != tr.exact_counts(passes[0]):
            problems.append("work counts differ between traced passes")
        passes.append(layers)
        overheads.append(traced["wall_s"] - plain["wall_s"])
        pair_s.append(plain["wall_s"] + traced["wall_s"])
    metrics = dict(sorted(passes, key=lambda p: p["trace.wall_s"])[(len(passes) - 1) // 2])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["passes"] = len(passes)
    return metrics, problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyadlab" / "__init__.py").is_file():
        print(f"error: no dyadlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dyadlab
    if Path(dyadlab.__file__).resolve().parent != SRC / "dyadlab":
        print(f"error: imported dyadlab from {dyadlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        data = workloads.inputs(args.workload, args.seed)
        ops, frontier = workloads.build(args.workload, args.seed, data, workdir,
                                        workloads.load_reference())
        runner = Runner(ops, frontier, workloads.same)
        problems: list[str] = []
        if args.trace:
            measured, problems = run_traced(runner, args.seconds, dyadlab)
        else:
            measured = run_untraced(runner, args.seconds)
            measured["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    env["loadavg_1m_end"] = os.getloadavg()[0]

    failed_ratio = runner.failed / runner.attempted
    if args.trace:
        measured["failed_ratio"] = failed_ratio
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in measured.items()
                   if k != "passes"}
    else:
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    shown = dict(metrics, failed_ratio={"value": failed_ratio, "unit": "ratio"})
    for name, m in shown.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": measured["passes"], "setup_s": setup_s,
        "failed_ratio": failed_ratio, "failures": runner.failures + problems,
        "op_median_s": {k: statistics.median(v) for k, v in runner.op_times.items()},
        "env": env,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": runner.failed == 0 and not problems,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("headroom_bits"):
        return "bits"
    if name.endswith("report_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
