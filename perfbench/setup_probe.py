"""Prints the seconds a fresh interpreter takes to import floqsens.cli and
load the given configs, the set-up every CLI invocation pays.

    python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import floqsens.cli  # noqa: E402,F401
from floqsens.config import load_config  # noqa: E402

for path in sys.argv[1:]:
    load_config(path)
print(time.perf_counter() - T0)
