"""Linear least squares via QR — the intro's ubiquitous application.

"Least squares matrices may have thousands of rows representing
observations, and only a few tens or hundreds of columns representing the
number of parameters" (Section I) — i.e. exactly the tall-skinny case
TSQR/CAQR accelerate.  ``min ||A x - b||`` is solved as
``R x = (Q^T b)[:n]`` using the implicit Q, so the explicit Q is never
formed.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.policy import ExecutionPolicy

from .caqr import caqr
from .triangular import solve_upper
from .tsqr import tsqr

__all__ = ["lstsq_tsqr", "lstsq_caqr", "residual_norm"]


def _solve_from_factors(factors, b: np.ndarray) -> np.ndarray:
    m, n = factors.m, factors.n
    if m < n:
        raise ValueError("least squares solver requires m >= n")
    b = np.asarray(b, dtype=float)
    squeeze = b.ndim == 1
    B = b.reshape(m, -1).astype(float, copy=True)
    factors.apply_qt(B)
    X = solve_upper(factors.R[:n, :n], B[:n])
    return X.ravel() if squeeze else X


def lstsq_tsqr(A: np.ndarray, b: np.ndarray, block_rows: int = 64, tree_shape: str = "quad") -> np.ndarray:
    """Solve ``min ||A x - b||_2`` using a TSQR factorization of A."""
    policy = ExecutionPolicy(block_rows=block_rows, tree_shape=tree_shape)
    return _solve_from_factors(tsqr(A, policy=policy), b)


def lstsq_caqr(
    A: np.ndarray,
    b: np.ndarray,
    panel_width: int = 16,
    block_rows: int = 64,
    tree_shape: str = "quad",
) -> np.ndarray:
    """Solve ``min ||A x - b||_2`` using a CAQR factorization of A."""
    policy = ExecutionPolicy(
        panel_width=panel_width, block_rows=block_rows, tree_shape=tree_shape
    )
    return _solve_from_factors(caqr(A, policy=policy), b)


def residual_norm(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b||_2`` (column-wise Frobenius for multiple right-hand sides)."""
    return float(np.linalg.norm(np.asarray(A) @ x - np.asarray(b)))
