"""Set-up probe: time `import anum` (with anum.cli) plus building the
workload's TowerParams, in a fresh interpreter.

Reads "p d r" triples from stdin and prints the set-up time and then the
calibration kernel's time, in nanoseconds.  It imports nothing that anum
imports before the clock starts, so the import is measured cold apart
from the interpreter itself; the kernel runs after it.
"""

import os
import sys
import time

if __name__ == "__main__":
    values = [int(tok) for tok in sys.stdin.read().split()]
    triples = list(zip(values[0::3], values[1::3], values[2::3]))
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    start = time.perf_counter_ns()
    import anum
    import anum.cli  # noqa: F401  (the CLI workloads import it too)
    for p, d, r in triples:
        anum.TowerParams(p, d, r)
    setup_ns = time.perf_counter_ns() - start
    from calibrate import kernel_ns
    sys.stdout.write(f"{setup_ns} {kernel_ns()}\n")
