"""Communication-Avoiding QR (CAQR) for general matrices — Section II-C.

The matrix is divided into a grid of small blocks.  Each column panel is
factored with TSQR, and the trailing matrix is updated by applying the
panel's implicit Q^T: the level-0 factors horizontally across whole block
rows (the ``apply_qt_h`` kernel) and the tree factors to the distributed
row pieces they touch (the ``apply_qt_tree`` kernel).  After each panel
the grid is "redrawn lower by a number of rows equal to the panel width"
(Section II-C), reflecting that the trailing matrix shrinks in both
dimensions.

This module is the numerics; :mod:`repro.caqr_gpu` drives the same
algorithm through the GPU simulator with per-kernel launch costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _obs
from repro.runtime.policy import ExecutionPolicy
from repro.verify.guards import validate_matrix

from .dtypes import as_float_array, working_dtype
from .tsqr import TSQRFactors, _tsqr_impl

__all__ = ["PanelFactor", "CAQRFactors", "caqr", "caqr_qr"]


@dataclass
class PanelFactor:
    """TSQR factors of one column panel, with its global position."""

    col_start: int
    col_stop: int
    row_start: int
    factors: TSQRFactors


@dataclass
class CAQRFactors:
    """Implicit Q and explicit R of a CAQR factorization."""

    m: int
    n: int
    panel_width: int
    block_rows: int
    tree_shape: str
    panels: list[PanelFactor]
    R: np.ndarray  # min(m, n) x n upper trapezoidal
    batched: bool = True

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        for p in self.panels:
            p.factors.apply_qt(B[p.row_start :, :])
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        for p in reversed(self.panels):
            p.factors.apply_q(B[p.row_start :, :])
        return B

    def form_q(self) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q (SORGQR)."""
        k = min(self.m, self.n)
        Q = np.zeros((self.m, k), dtype=working_dtype(self.R))
        np.fill_diagonal(Q, 1.0)
        return self.apply_q(Q)


def _caqr_serial(A: np.ndarray, policy: ExecutionPolicy) -> CAQRFactors:
    """The serial panel loop on an *already validated* matrix.

    Shared by the public :func:`caqr` shim and :class:`repro.runtime.plan.QRPlan`
    (which pre-validates), so both drive the identical arithmetic.  Each
    panel goes straight to :func:`~repro.core.tsqr._tsqr_impl`: the input
    was validated exactly once at the public entry point, so per-panel
    re-scans never happen.
    """
    m, n = A.shape
    k = min(m, n)
    with _obs.span("setup", cat="host"):
        W = A.copy()
    panels: list[PanelFactor] = []
    for col_start in range(0, k, policy.panel_width):
        pw = min(policy.panel_width, k - col_start)
        row_start = col_start  # grid redrawn lower by the panel width
        panel_view = W[row_start:, col_start : col_start + pw]
        with _obs.span("factor", cat="factor", panel=col_start // policy.panel_width, rows=m - row_start):
            f = _tsqr_impl(
                panel_view,
                block_rows=policy.block_rows,
                tree_shape=policy.tree_shape,
                structured=policy.uses_structured,
                batched=policy.uses_batched,
            )
        # The trailing matrix update: apply Q^T of the panel across the
        # remaining columns (apply_qt_h + apply_qt_tree in the GPU code).
        trailing = W[row_start:, col_start + pw :]
        if trailing.size:
            with _obs.span("update", cat="update", panel=col_start // policy.panel_width, cols=n - col_start - pw):
                f.apply_qt(trailing)
        # Record the panel's R back into the working matrix so the final
        # R can be read off the top k rows.
        rh = f.R.shape[0]
        W[row_start : row_start + rh, col_start : col_start + pw] = f.R
        W[row_start + rh :, col_start : col_start + pw] = 0.0
        panels.append(
            PanelFactor(col_start=col_start, col_stop=col_start + pw, row_start=row_start, factors=f)
        )
    with _obs.span("assemble_r", cat="host"):
        R = np.triu(W[:k, :])
    return CAQRFactors(
        m=m,
        n=n,
        panel_width=policy.panel_width,
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        panels=panels,
        R=R,
        batched=policy.uses_batched,
    )


def caqr(
    A: np.ndarray,
    *,
    policy: ExecutionPolicy | None = None,
) -> CAQRFactors:
    """Factor a matrix with CAQR (Figure 3 / the host pseudocode of Figure 4).

    Reusable shape plans come from :func:`repro.runtime.plan.plan_qr`.

    Args:
        A: ``m x n`` matrix.
        policy: the :class:`~repro.runtime.policy.ExecutionPolicy` naming
            the execution path, panel geometry (the paper's reference GPU
            configuration is 64x16 blocks on a quad-tree), worker count
            and non-finite guard behaviour; ``None`` means
            ``ExecutionPolicy()``.  ``path="lookahead"`` runs the
            dependency-task-graph executor
            (:func:`repro.graph.executor.caqr_lookahead`) and returns a
            duck-type-compatible
            :class:`~repro.graph.executor.LookaheadCAQRFactors`.

    Returns:
        :class:`CAQRFactors` with the implicit Q (per-panel TSQR factors)
        and the explicit upper-trapezoidal R.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    if policy.path == "lookahead":
        from repro.graph.executor import caqr_lookahead

        return caqr_lookahead(A, policy=policy)
    if policy.uses_cholqr:
        from repro.runtime.cholqr import run_cholqr

        with _obs.maybe_trace(policy.trace):
            A = validate_matrix(A, where="caqr", nonfinite=policy.nonfinite)
            with _obs.span(
                "caqr", cat="entry", m=A.shape[0], n=A.shape[1], path=policy.path
            ):
                return run_cholqr(A, policy)
    if policy.path == "sharded":
        from repro.distributed.sharded import run_sharded

        with _obs.maybe_trace(policy.trace):
            A = validate_matrix(A, where="caqr", nonfinite=policy.nonfinite)
            with _obs.span(
                "caqr", cat="entry", m=A.shape[0], n=A.shape[1], path=policy.path
            ):
                return run_sharded(A, policy)
    if policy.path == "streaming":
        from repro.streaming.qr import run_streaming_matrix

        with _obs.maybe_trace(policy.trace):
            A = validate_matrix(A, where="caqr", nonfinite=policy.nonfinite)
            with _obs.span(
                "caqr", cat="entry", m=A.shape[0], n=A.shape[1], path=policy.path
            ):
                return run_streaming_matrix(A, policy)
    with _obs.maybe_trace(policy.trace):
        A = validate_matrix(A, where="caqr", nonfinite=policy.nonfinite)
        with _obs.span("caqr", cat="entry", m=A.shape[0], n=A.shape[1], path=policy.path):
            return _caqr_serial(A, policy)


def caqr_qr(
    A: np.ndarray,
    *,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: explicit thin ``(Q, R)`` via CAQR."""
    f = caqr(A, policy=policy)
    return f.form_q(), f.R
