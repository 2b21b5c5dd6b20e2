"""Set-up cost of one workload in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD SEED SIZE

Imports the library, builds the workload's models and inputs, and prints one
JSON object: the clock reading of the first statement (comparable with the
parent's clock, both being the system's monotonic clock), the import time
and the whole set-up time.
"""

import time

FIRST_STATEMENT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    t0 = time.perf_counter()
    if workload == "cli-runs":
        import dilatation_lab.cli  # noqa: F401
    else:
        import dilatation_lab.affine  # noqa: F401
        import dilatation_lab.core.harness  # noqa: F401
        import dilatation_lab.emergent  # noqa: F401
    t1 = time.perf_counter()
    if workload == "cli-runs":
        import cli_ops
        cli_ops.plan(here.parent, seed)
    else:
        import workloads
        workloads.IN_PROCESS[workload](seed, size)
    t2 = time.perf_counter()
    print(json.dumps({"first_statement": FIRST_STATEMENT, "import_s": t1 - t0,
                      "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
