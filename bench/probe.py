"""Set-up probe: import dyadlab from ./src and build a workload's seeded inputs.

    python3 bench/probe.py <workload> <seed>

run.py times whole runs of this script in fresh interpreters.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports dyadlab)

workloads.inputs(sys.argv[1], int(sys.argv[2]))
