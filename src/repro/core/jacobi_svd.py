"""One-sided Jacobi SVD for small matrices, built from scratch.

The paper computes the SVD of the small ``n x n`` R factor on the CPU
(Section VI-B: "we find the SVD of R, which is cheap because R is an
n x n matrix").  This module provides that substrate: a one-sided Jacobi
SVD, chosen because it is simple, accurate to high relative precision,
and needs no bidiagonalization machinery.

``A V = U diag(s)``: sweeps of plane rotations orthogonalize the columns
of a working copy of A; the column norms converge to the singular values.

Each sweep uses the round-robin (Brent-Luk tournament) ordering instead
of the cyclic ``p < q`` order: ``n - 1`` rounds of ``n / 2`` disjoint
column pairs (odd ``n`` is padded with one zero column, which the
``alpha == 0`` rule skips), so every pair is still visited exactly once
per sweep.  Because the pairs of a round share no column, one round is
one batched reduction for every pair's Gram entries plus one
gather/scatter that applies all of its rotations to a row-major
``[A^T | I]`` working array, rotating U and V together.  A sweep costs
``n - 1`` vectorized rounds instead of ``n (n - 1) / 2`` scalar
rotations.
"""

from __future__ import annotations

import numpy as np

from .dtypes import as_float_array, working_dtype

__all__ = ["jacobi_svd", "round_robin_schedule", "svd_via_jacobi"]


def round_robin_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin (Brent-Luk tournament) pair schedule for ``n >= 1`` columns.

    Returns ``(P, Q)`` of shape ``(rounds, n_pad // 2)``, where ``n_pad``
    is ``n`` rounded up to even and ``rounds = n_pad - 1``: round ``r``
    pairs column ``P[r, i]`` with ``Q[r, i]`` (``P < Q``), the pairs of a
    round are disjoint, and one sweep visits every pair of the ``n_pad``
    columns exactly once.  For odd ``n`` the index ``n`` is the zero
    padding column.

    Circle method: column 0 stays put while the other ``n_pad - 1`` rotate
    one seat per round; seat ``k`` plays seat ``n_pad - 1 - k``.
    """
    n_pad = n + n % 2
    half = n_pad // 2
    r = np.arange(n_pad - 1)[:, None]
    seats = np.zeros((n_pad - 1, n_pad), dtype=np.intp)
    seats[:, 1:] = 1 + (np.arange(n_pad - 1)[None, :] - r) % (n_pad - 1)
    a = seats[:, :half]
    b = seats[:, ::-1][:, :half]
    return np.minimum(a, b), np.maximum(a, b)


def jacobi_svd(
    A: np.ndarray,
    tol: float = 1e-14,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of an ``m x n`` matrix with ``m >= n``.

    Returns ``(U, s, Vt)`` with ``U`` of shape ``m x n`` (thin), singular
    values sorted descending, and the sign convention that each singular
    value is non-negative.

    Args:
        A: input matrix, ``m >= n``.
        tol: convergence threshold on the normalized off-diagonal inner
            products ``|a_i . a_j| / (||a_i|| ||a_j||)``, maxed over one
            sweep (each pair measured when its round visits it).
        max_sweeps: hard cap on the number of full column-pair sweeps.

    Raises:
        RuntimeError: if the sweep limit is reached without converging.
    """
    A = as_float_array(A)
    m, n = A.shape
    if m < n:
        raise ValueError("jacobi_svd requires m >= n (pass A.T and swap U/V)")
    if A.size and not np.isfinite(A).all():
        raise ValueError("jacobi_svd requires finite input (NaN/Inf found)")
    dt = working_dtype(A)
    if n == 0:
        return np.zeros((m, 0), dtype=dt), np.zeros(0, dtype=dt), np.zeros((0, 0), dtype=dt)
    P, Q = round_robin_schedule(n)
    half = P.shape[1]
    # Row j of W is column j of U followed by column j of V (a zero row
    # pads odd n), so one row gather/scatter rotates both factors at once.
    W = np.zeros((2 * half, m + n), dtype=dt)
    W[:n, :m] = A.T
    W[:n, m:] = np.eye(n, dtype=dt)
    # A round gathers its rows as [all p; all q] and scatters the rotated
    # rows back pair by pair: (p0, q0, p1, q1, ...).
    gather = np.concatenate([P, Q], axis=1)
    scatter = np.stack([P, Q], axis=2).reshape(len(P), -1)
    for _ in range(max_sweeps):
        off = 0.0
        for rows, pairs in zip(gather, scatter):
            Z = W[rows].reshape(2, half, m + n)
            # One reduction for the 2x2 Gram of every pair:
            # G[0, 0] = alpha, G[1, 1] = beta, G[0, 1] = gamma.
            S = Z[:, :, :m]
            G = np.einsum("aim,bim->abi", S, S).astype(np.float64, copy=False)
            alpha, beta, gamma = G[0, 0], G[1, 1], G[0, 1]
            # sqrt separately: alpha * beta can underflow to zero for
            # denormal-scale columns even when both are nonzero.  A zero
            # denom also covers alpha == 0 or beta == 0 (zero columns and
            # the odd-n padding row); such pairs are skipped.
            denom = np.sqrt(alpha) * np.sqrt(beta)
            live = denom != 0.0
            if not live.any():
                continue
            agamma = np.abs(gamma)
            off = max(off, float((agamma[live] / denom[live]).max()))
            rot = live & (agamma > tol * denom)
            if not rot.any():
                continue
            # Classic two-sided-symmetric rotation on the Gram 2x2.  Lanes
            # that do not rotate may divide by zero here; they are reset
            # to the exact identity (t = 0) below.
            with np.errstate(all="ignore"):
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                # zeta^2 overflows past 1e150; use the asymptotic tangent
                # (otherwise the rotation degenerates to a no-op and
                # extreme-scale columns never orthogonalize).
                t = np.where(np.abs(zeta) > 1e150, 0.5 / zeta, t)
            t[zeta == 0.0] = 1.0
            t[~rot] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            J = np.stack([c, -s, s, c], axis=1).reshape(half, 2, 2)
            W[pairs] = (J @ Z.transpose(1, 0, 2)).reshape(2 * half, m + n)
        if off <= tol:
            break
    else:
        raise RuntimeError(f"Jacobi SVD did not converge in {max_sweeps} sweeps")
    U = W[:n, :m].T
    V = W[:n, m:].T
    sing = np.linalg.norm(U, axis=0)
    order = np.argsort(sing)[::-1]
    sing = sing[order]
    U = U[:, order]
    V = V[:, order]
    nonzero = sing > 0
    U[:, nonzero] /= sing[nonzero]
    # Columns with zero singular value: leave as zeros (rank-deficient input).
    U[:, ~nonzero] = 0.0
    return U, sing, V.T


def svd_via_jacobi(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of any small matrix, transposing internally when ``m < n``."""
    A = as_float_array(A)
    m, n = A.shape
    if m >= n:
        return jacobi_svd(A)
    U, s, Vt = jacobi_svd(A.T)
    return Vt.T, s, U.T
