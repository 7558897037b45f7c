"""Scalar shrinkage (soft thresholding) — the sparsity operator of Robust PCA.

"A shrinkage operation (pushing the values of the matrix towards zero) is
done on S0 to enforce sparsity" (Section VI-C).  This is the proximal
operator of the l1 norm.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shrink"]


def shrink(X: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise soft threshold: ``sign(x) * max(|x| - tau, 0)``.

    Computed as ``copysign(max(|x| - tau, 0), x)``: the same values, and a
    ``-0.0`` input keeps its sign.  ``out`` receives the result and may be
    ``X`` itself.
    """
    if tau < 0:
        raise ValueError("shrinkage threshold must be non-negative")
    X = np.asarray(X, dtype=float)
    aliased = out is not None and np.shares_memory(X, out)
    mag = np.abs(X, out=None if aliased else out)
    mag -= tau
    np.maximum(mag, 0.0, out=mag)
    return np.copysign(mag, X, out=mag if out is None else out)
