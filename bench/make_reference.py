"""Record the results of the benchmark's deterministic operations.

Run from the repository root, at a commit whose answers are trusted:

    python3 bench/make_reference.py

It writes bench/reference.json, which the benchmark's correctness gate
compares against.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    results = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name in ("kernel_scan", "exact_family"):
            ops, _ = workloads.build(name, 0, {}, Path(tmp), {})
            for op in ops:
                if op.name in workloads.DETERMINISTIC:
                    results[op.name] = op.view(op.run())
    missing = set(workloads.DETERMINISTIC) - results.keys()
    if missing:
        raise SystemExit(f"no operation produced {sorted(missing)}")
    payload = {"recorded_at_commit": run.git_commit(), "float_rtol": workloads.FLOAT_RTOL,
               "results": results}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE} ({len(results)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
