"""Microbenchmark behind linalg.SMALL_PRODUCT_DIM: complex stacked products
of d x d cells, NumPy's ``a @ b`` against the one real product that
``linalg.matmul`` takes for 2 <= d <= SMALL_PRODUCT_DIM.

    OPENBLAS_NUM_THREADS=1 python scripts/product_crossover.py [rounds]

For each d the stack holds as many cells as fit ``linalg.BLOCK_BYTES``, as in
the engine's kernels.  Two forms are timed: a @ b of two stacks, and the
gram U U^dagger of ``unitarity_defect``, whose right operand is a
conjugate-transposed view.  Each time is the minimum over ``rounds`` rounds
(default 2000) of the two methods taken in turn; the last line is a JSON
object with the times in microseconds per stacked product.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import floqsens.linalg as linalg  # noqa: E402

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 20)


def minimum_times(fns, rounds: int) -> list[float]:
    best = [np.inf] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return [1e6 * t for t in best]


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    rng = np.random.default_rng(0)
    rows = []
    print(f"{'d':>3} {'cells':>6} {'a @ b':>8} {'real':>8} {'ratio':>6} "
          f"{'gram':>8} {'real':>8} {'ratio':>6}  (us per stacked product)")
    for d in SIZES:
        n = linalg.BLOCK_BYTES // (16 * d * d)
        a, b = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
                for _ in range(2))
        real = linalg._realified_matmul
        times = minimum_times([lambda: a @ b, lambda: real(a, b),
                               lambda: a @ a.conj().swapaxes(-1, -2),
                               lambda: real(a, a.conj().swapaxes(-1, -2))], rounds)
        rows.append({"d": d, "cells": n, "complex_us": times[0], "real_us": times[1],
                     "gram_complex_us": times[2], "gram_real_us": times[3]})
        print(f"{d:3d} {n:6d} {times[0]:8.1f} {times[1]:8.1f} {times[1] / times[0]:6.2f} "
              f"{times[2]:8.1f} {times[3]:8.1f} {times[3] / times[2]:6.2f}")
    print(json.dumps({"rounds": rounds, "sizes": rows}))


if __name__ == "__main__":
    main()
