"""Robust PCA by inexact augmented Lagrangian alternating directions.

The Section VI-C algorithm (Candès et al. / Yuan-Yang): decompose
``M = L0 + S0`` by minimizing ``||L||_* + lam ||S||_1`` subject to
``M = L + S``, alternating a singular-value threshold on L (Figure 11)
with an l1 shrinkage on S and a dual update.  "The vast majority of the
runtime is spent in the singular value threshold, specifically the SVD of
the L0 matrix" — which is why swapping the QR engine under the SVD is
worth 30x end to end (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from typing import Callable as _Callable

from repro.verify.guards import validate_matrix

from .shrinkage import shrink
from .svt import SVDFunc, singular_value_threshold

SVTFunc = _Callable[[np.ndarray, float], tuple[np.ndarray, int]]

__all__ = ["RPCAResult", "rpca_ialm"]


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
            partial SVDs.  Takes precedence over ``svd``.
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
    spectral = np.linalg.norm(M, 2)
    if mu is None:
        mu = 1.25 / spectral
    mu_max = mu * 1e7
    # Dual initialization of Lin et al.: Y = M / max(||M||_2, ||M||_inf/lam).
    Y = M / max(spectral, np.abs(M).max() / lam)
    S = np.zeros_like(M)
    L = np.zeros_like(M)
    if engine not in ("direct", "graph"):
        raise ValueError(f"unknown engine {engine!r}; expected 'direct' or 'graph'")
    if engine == "graph":
        if svd is not None or svt is not None:
            raise ValueError(
                "engine='graph' compiles the default QR->SVT pipeline; "
                "svd/svt overrides need engine='direct'"
            )
        from .graphs import run_ialm_graph

        return run_ialm_graph(
            M,
            Y=Y,
            S=S,
            L=L,
            mu=mu,
            mu_max=mu_max,
            lam=lam,
            rho=rho,
            tol=tol,
            max_iter=max_iter,
            norm_M=norm_M,
            callback=callback,
        )
    residuals: list[float] = []
    ranks: list[int] = []
    converged = False
    it = 0
    svt_fn: SVTFunc = svt if svt is not None else (
        lambda X, t: singular_value_threshold(X, t, svd=svd)
    )
    for it in range(1, max_iter + 1):
        L, rank = svt_fn(M - S + Y / mu, 1.0 / mu)
        S = shrink(M - L + Y / mu, lam / mu)
        residual_mat = M - L - S
        Y = Y + mu * residual_mat
        mu = min(mu * rho, mu_max)
        res = float(np.linalg.norm(residual_mat) / norm_M)
        residuals.append(res)
        ranks.append(rank)
        if callback is not None:
            callback(it, res)
        if res < tol:
            converged = True
            break
    return RPCAResult(L=L, S=S, n_iterations=it, converged=converged, residuals=residuals, ranks=ranks)
