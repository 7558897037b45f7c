"""Robust PCA by inexact augmented Lagrangian alternating directions.

The Section VI-C algorithm (Candès et al. / Yuan-Yang): decompose
``M = L0 + S0`` by minimizing ``||L||_* + lam ||S||_1`` subject to
``M = L + S``, alternating a singular-value threshold on L (Figure 11)
with an l1 shrinkage on S and a dual update.  "The vast majority of the
runtime is spent in the singular value threshold, specifically the SVD of
the L0 matrix" — which is why swapping the QR engine under the SVD is
worth 30x end to end (Table II).

An iteration is two stages: the threshold ``L = svt(X, 1/mu)``, then
:func:`ialm_update`, one cache-blocked pass that shrinks ``S``, updates
the dual ``Y``, writes the next threshold input ``X = M - S + Y/mu`` and
sums the residual norm.  It reads M, L, Y and writes S, Y, X: seven
array passes per iteration instead of the unfused formulas' forty, with
no matrix-sized temporaries (sequential TSQR's rule of moving few words
between slow and fast memory, applied to the loop body).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.verify.guards import validate_matrix

from .shrinkage import shrink
from .svt import SVDFunc, singular_value_threshold

SVTFunc = Callable[[np.ndarray, float], tuple[np.ndarray, int]]

__all__ = ["RPCAResult", "ialm_update", "rpca_ialm"]

#: Bytes of one operand's row block in :func:`ialm_update`: seven operands
#: (M, L, S, Y, X, two scratch blocks) of 256 KiB fit a 2 MiB L2.
_BLOCK_BYTES = 256 * 1024


@dataclass
class RPCAResult:
    """Converged (or iteration-capped) Robust PCA decomposition."""

    L: np.ndarray
    S: np.ndarray
    n_iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)

    @property
    def final_rank(self) -> int:
        return self.ranks[-1] if self.ranks else 0


def ialm_update(M, L, S, Y, X, mu: float, mu_next: float, lam: float) -> float:
    """The IALM update after the singular-value threshold, fused.

    One pass over row blocks of ``_BLOCK_BYTES`` per operand computes,
    with the same per-element operations as the textbook formulas::

        S = shrink(M - L + Y/mu, lam/mu)
        R = M - L - S
        Y = Y + mu*R
        X = M - S + Y/mu_next

    ``S``, ``Y``, ``X`` are written in place, ``M`` and ``L`` (which must
    not share memory with ``X``) only read.  Returns ``||R||_F``.
    """
    m, n = M.shape
    rows = min(m, max(1, _BLOCK_BYTES // (Y.itemsize * n)))
    t1 = np.empty((rows, n), dtype=Y.dtype)
    t2 = np.empty_like(t1)
    tau = lam / mu
    sq = 0.0
    for i in range(0, m, rows):
        b = slice(i, i + rows)
        Mb, Sb, Yb, Xb = M[b], S[b], Y[b], X[b]
        r1, r2 = t1[: len(Mb)], t2[: len(Mb)]
        np.subtract(Mb, L[b], out=r1)  # M - L, reused by the residual
        np.divide(Yb, mu, out=r2)
        r2 += r1  # addition commutes bit for bit: (M - L) + Y/mu
        shrink(r2, tau, out=Sb)
        r1 -= Sb  # R = (M - L) - S
        sq += float(np.vdot(r1, r1))
        r1 *= mu
        Yb += r1
        np.subtract(Mb, Sb, out=Xb)
        np.divide(Yb, mu_next, out=r2)
        Xb += r2
    return math.sqrt(sq)


def _spectral_norm(M: np.ndarray) -> float:
    """``||M||_2`` from the largest eigenvalue of the smaller Gram matrix.

    Falls back to LAPACK's SVD when the Gram over- or underflows.
    """
    G = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    if np.isfinite(G).all():
        top = float(np.linalg.eigvalsh(G)[-1])
        if top > np.finfo(G.dtype).tiny / np.finfo(G.dtype).eps:
            return math.sqrt(top)
    return float(np.linalg.norm(M, 2))


def rpca_ialm(
    M: np.ndarray,
    lam: float | None = None,
    mu: float | None = None,
    rho: float = 1.5,
    tol: float = 1e-7,
    max_iter: int = 500,
    svd: SVDFunc | None = None,
    svt: SVTFunc | None = None,
    callback: Callable[[int, float], None] | None = None,
    engine: str = "direct",
) -> RPCAResult:
    """Decompose ``M`` into low-rank ``L`` plus sparse ``S``.

    Args:
        M: observed matrix (for video: pixels x frames, tall-skinny).
        lam: sparsity weight; default ``1/sqrt(max(m, n))`` (the standard
            Robust PCA choice from Candès et al.).
        mu: initial augmented-Lagrangian penalty; default
            ``1.25 / ||M||_2``.
        rho: penalty growth factor per iteration.
        tol: convergence threshold on ``||M - L - S||_F / ||M||_F``.
        max_iter: iteration cap (the paper's problem "technically takes
            over 500 iterations to converge, however the solution begins
            to look good earlier").
        svd: SVD engine used inside the singular-value threshold
            (defaults to the QR-based tall-skinny SVD).
        svt: full SVT operator override ``(X, tau) -> (L, rank)`` — e.g.
            :class:`repro.rpca.adaptive.AdaptiveSVT` for rank-adaptive
            partial SVDs.  Takes precedence over ``svd``.  ``X`` is a
            buffer the loop overwrites after the call; an ``L`` that
            shares memory with it is copied first.
        callback: optional per-iteration hook ``(iteration, residual)``.
        engine: ``"direct"`` runs the loop inline; ``"graph"`` compiles
            each iteration to a :class:`~repro.graph.highlevel.TaskGraph`
            (:mod:`repro.rpca.graphs`) run on the shared executor —
            bit-identical, with per-stage obs spans.  The graph engine
            fixes the default QR→SVT pipeline, so it rejects ``svd`` /
            ``svt`` overrides.

    Raises:
        TypeError: complex input.
        ValueError: non-2-D or empty input, or NaN/Inf entries.
    """
    M = validate_matrix(M, where="rpca_ialm", dtype=np.float64)
    if M.size == 0:
        raise ValueError("M must be a non-empty 2-D matrix")
    m, n = M.shape
    norm_M = np.linalg.norm(M)
    if norm_M == 0.0:
        return RPCAResult(L=np.zeros_like(M), S=np.zeros_like(M), n_iterations=0, converged=True)
    if lam is None:
        lam = 1.0 / np.sqrt(max(m, n))
    spectral = _spectral_norm(M)
    if mu is None:
        mu = 1.25 / spectral
    mu_max = mu * 1e7
    # Dual initialization of Lin et al.: Y = M / max(||M||_2, ||M||_inf/lam).
    Y = M / max(spectral, max(M.max(), -M.min()) / lam)
    S = np.zeros_like(M)
    # The first threshold's input M - S + Y/mu; ialm_update refreshes it.
    X = M - S
    X += Y / mu
    if engine not in ("direct", "graph"):
        raise ValueError(f"unknown engine {engine!r}; expected 'direct' or 'graph'")
    if engine == "graph":
        if svd is not None or svt is not None:
            raise ValueError(
                "engine='graph' compiles the default QR->SVT pipeline; "
                "svd/svt overrides need engine='direct'"
            )
        from .graphs import ialm_graph_step

        step = ialm_graph_step(M, S, Y, X, lam)
    else:
        svt_fn: SVTFunc = svt if svt is not None else (
            lambda X, t: singular_value_threshold(X, t, svd=svd)
        )

        def step(mu: float, mu_next: float):
            L, rank = svt_fn(X, 1.0 / mu)
            if np.shares_memory(L, X):
                L = L.copy()
            return L, rank, ialm_update(M, L, S, Y, X, mu, mu_next, lam)

    residuals: list[float] = []
    ranks: list[int] = []
    converged = False
    it = 0
    L = np.zeros_like(M)
    for it in range(1, max_iter + 1):
        del L  # free the previous iterate before the threshold builds the next
        mu_next = min(mu * rho, mu_max)
        L, rank, res_norm = step(mu, mu_next)
        mu = mu_next
        res = float(res_norm / norm_M)
        residuals.append(res)
        ranks.append(rank)
        if callback is not None:
            callback(it, res)
        if res < tol:
            converged = True
            break
    return RPCAResult(L=L, S=S, n_iterations=it, converged=converged, residuals=residuals, ranks=ranks)
