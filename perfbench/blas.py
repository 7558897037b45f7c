"""BLAS thread pinning and the environment record printed with every result.

``run.py`` exports :data:`PIN_VARS` into every child's environment; each
child calls :func:`check_pin` after importing NumPy and SciPy and stops
with an error if any loaded OpenBLAS runs more than :data:`THREADS`
threads.  NumPy and SciPy ship separate OpenBLAS builds, and the library
runs on NumPy's while ``scipy.linalg.qr`` runs on SciPy's, so both are
checked and both are recorded.
"""

from __future__ import annotations

import ctypes
import glob
import os

THREADS = 1
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BlasPinError(RuntimeError):
    """The BLAS thread pin did not take."""


def pinned_env(base: dict) -> dict:
    env = dict(base)
    env.update({var: str(THREADS) for var in PIN_VARS})
    return env


def _live_threads(pkg) -> list[int]:
    counts = []
    for lib in glob.glob(os.path.join(os.path.dirname(pkg.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts.append(int(fn()))
                break
    return counts


def check_pin() -> dict:
    """Verify the pin on every loaded OpenBLAS and return the record.

    Raises :class:`BlasPinError` when an environment variable is unset or
    wrong, when no thread count can be read, or when a library runs more
    than :data:`THREADS` threads.
    """
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads SciPy's BLAS)

    bad = {v: os.environ.get(v) for v in PIN_VARS if os.environ.get(v) != str(THREADS)}
    if bad:
        raise BlasPinError(f"BLAS pin variables not set to {THREADS}: {bad}")
    record = {"nproc": os.cpu_count()}
    for label, pkg in (("numpy", np), ("scipy", scipy)):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        counts = _live_threads(pkg)
        if not counts:
            raise BlasPinError(f"cannot read the live thread count of {label}'s BLAS")
        if max(counts) != THREADS:
            raise BlasPinError(f"{label}'s BLAS runs {max(counts)} threads, pinned to {THREADS}")
        record[label] = {"name": blas["name"], "version": blas["version"], "threads": max(counts)}
    return record


def describe(record: dict) -> str:
    parts = [
        f"{label} {record[label]['name']} {record[label]['version']} "
        f"x{record[label]['threads']}"
        for label in ("numpy", "scipy")
    ]
    return f"BLAS: {'; '.join(parts)}; nproc {record['nproc']}"
