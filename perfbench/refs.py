"""Speed-of-light references, measured in their own process.

Two modes, both on the workload's seeded inputs:

``--serve``
    Started by ``worker.py`` next to the workload.  Saves the LAPACK R
    (``scipy.linalg.qr(mode="r")``) of every input matrix, which the
    workload's ops are checked against, prints a ready line, then answers
    each ``geqrf`` line on stdin with one timed ``geqrf`` on the
    workload's QR shape.  The worker asks between ops, never during one,
    so the samples interleave with the timed loop and host-speed drift
    cancels in ``vs_lapack``.
``--extras``
    Started by ``run.py`` after the workload with ``--trace 1``: the Gram
    ``A^T A`` rate on the QR shape, a 2000^3 dgemm, and a memcpy between
    two buffers of 4x the last-level cache each.

Usage: python3 perfbench/refs.py --serve --workload W --seed N [--r-out FILE.npz]
       python3 perfbench/refs.py --extras --workload W --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from blas import check_pin  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

GRAM_SAMPLES = 5
DGEMM_N = 2000
DGEMM_SAMPLES = 3
# lscpu's last-level cache on the 2-core reference host (300 MiB).
LLC_BYTES = 300 * 2**20
MEMCPY_BYTES = 4 * LLC_BYTES  # each of the source and destination buffers
MEMCPY_SAMPLES = 3


def _reply(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _median_time(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def serve(args, blas: dict) -> None:
    import numpy as np
    import scipy.linalg

    pool = make_inputs(args.workload, args.seed).qr
    if args.r_out:
        np.savez(args.r_out, *[scipy.linalg.qr(A, mode="r")[0] for A in pool])
    _reply({"ready": True, "blas": blas})
    k = 0
    for line in sys.stdin:
        if line.strip() != "geqrf":
            break
        A = pool[k % len(pool)]
        k += 1
        t0 = time.perf_counter()
        scipy.linalg.qr(A, mode="r")
        _reply({"geqrf_s": time.perf_counter() - t0})


def extras(args, blas: dict) -> None:
    import numpy as np

    inputs = make_inputs(args.workload, args.seed)
    m, n = inputs.qr_shape
    A = inputs.qr[0]
    out = {"blas": blas, "gram_s": _median_time(lambda: A.T @ A, GRAM_SAMPLES)}
    out["gram_gflops"] = 2.0 * m * n * n / out["gram_s"] / 1e9
    del inputs, A
    rng = np.random.default_rng(args.seed)
    X = rng.standard_normal((DGEMM_N, DGEMM_N))
    Y = rng.standard_normal((DGEMM_N, DGEMM_N))
    out["dgemm_gflops"] = 2.0 * DGEMM_N ** 3 / _median_time(lambda: X @ Y, DGEMM_SAMPLES) / 1e9
    del X, Y
    src = np.ones(MEMCPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the destination pages in before timing
    t = _median_time(lambda: np.copyto(dst, src), MEMCPY_SAMPLES)
    # Bytes moved: each copy reads the source and writes the destination.
    out["memcpy_gbs"] = 2.0 * src.nbytes / t / 1e9
    out["memcpy_buffer_mib"] = MEMCPY_BYTES / 2**20
    out["llc_mib"] = LLC_BYTES / 2**20
    _reply(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve", action="store_true")
    mode.add_argument("--extras", action="store_true")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--r-out", help="where --serve saves the LAPACK R matrices")
    args = p.parse_args(argv)
    blas = check_pin()
    (serve if args.serve else extras)(args, blas)
    return 0


if __name__ == "__main__":
    sys.exit(main())
