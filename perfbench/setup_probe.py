"""Time one set-up in a fresh interpreter and print the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is everything before the first op: importing numpy and curved_rs,
building specs and parsed documents, and generating the first inputs.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - T0)
