"""Machine-speed calibration for the benchmark's wall times.

The CPU speed a sandbox process gets drifts with the load on its host, by up
to 1.8x within minutes on the 2-vCPU x86-64 VM (2.0 GHz, OpenBLAS 0.3.31)
this benchmark was tuned on.  A fixed kernel made of the same kind of work
as floqsens (small dense LAPACK calls, numpy overhead, float formatting) is
timed right before and right after every command, and the command's wall
time is reported scaled to the kernel's nominal time:
``seconds * NOMINAL_S / mean kernel time``.  Over five to seven seeds per
workload this cut the run-to-run spread (IQR / median) of the median
command time and of the throughput from 15-40% to 2-6%.

A fresh interpreter's import time does not follow that kernel, so set-up
time gets its own reference: a fresh interpreter running IMPORT_PROBE
right after each set-up probe, with the probe reported as
``seconds * IMPORT_NOMINAL_S / reference seconds``; in ten blocks of five
pairs this cut the spread of the block medians from 18% to 7%.  Neither
reference touches floqsens, so a change to floqsens cannot change them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the VM above; a scaled time equals the wall time
# whenever the kernel runs at this speed.
NOMINAL_S = 0.0025
REPEATS = 3
# Imports numpy, scipy.linalg and some pure-Python standard library and
# prints the seconds taken; about IMPORT_NOMINAL_S on the VM above.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, scipy.linalg, decimal, difflib, email.mime.multipart, "
                "http.client, xml.dom.minidom; print(time.perf_counter() - t)")
IMPORT_NOMINAL_S = 0.4

_IDX = np.arange(8)
_H = np.cos(np.add.outer(_IDX, 2 * _IDX)) + 1j * np.sin(np.add.outer(3 * _IDX, _IDX))
_H = _H + _H.conj().T


def _kernel() -> None:
    for k in range(12):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-1j * w * (k + 1) * 1e-2)) @ v.conj().T
        scipy.linalg.schur(u, output="complex")
        np.abs(u @ u.conj().T - np.eye(8)).max()
    ",".join("%.17g" % x for x in w.tolist() * 40)


def kernel_seconds() -> float:
    """Median wall time of the kernel over a few back-to-back repeats."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` as it would read with the kernel at its nominal speed."""
    return seconds * NOMINAL_S / kernel_s
