"""One Robust-PCA/IALM iteration as task-graph layers.

The Section VI-C loop body — singular-value threshold via QR (Figure
11), then the fused l1 shrinkage and dual update — compiled into the
shared :class:`~repro.graph.highlevel.TaskGraph` so the iteration runs
on the same executor (and gets the same per-task obs spans) as CAQR,
rSVD and the sharded reduction:

* ``qr`` — factor the loop-owned ``X = M - S + Y/mu`` with the
  tall-skinny QR engine (the step worth 30x end to end per Table II);
* ``svt`` — small Jacobi SVD of R, soft-threshold, reassemble ``L``;
* ``update`` — :func:`repro.rpca.ialm.ialm_update`: shrink ``S``, the
  dual update ``Y += mu·residual`` and the next ``X`` in one
  cache-blocked pass of seven array passes, then the penalty growth
  ``mu = min(mu·rho, mu_max)``.

The tasks replicate, operation for operation, what
:func:`repro.rpca.ialm.rpca_ialm` does through
:func:`~repro.rpca.svt.singular_value_threshold` /
:func:`~repro.core.ts_svd.tall_skinny_svd` with the default engines, and
both engines call the same update — ``rpca_ialm(..., engine="graph")``
is therefore bit-identical to the direct loop.  Registered as the
``rpca_ialm`` producer in :data:`repro.graph.highlevel.PRODUCERS`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.jacobi_svd import jacobi_svd
from repro.core.tsqr import tsqr_qr

from .ialm import ialm_update
from .shrinkage import shrink

__all__ = ["emit_ialm_layers", "ialm_graph_step"]


def emit_ialm_layers(m: int, n: int, bind: dict | None = None):
    """Compile one IALM iteration into qr/svt/update layers.

    The graph is a three-task chain; emitted once per decomposition and
    re-run every iteration (the closures read their operands from the
    ``bind`` state each time, so no re-emission is needed as ``mu``
    grows).  Without ``bind`` the graph is structural (``fn=None``).
    ``bind`` must hold ``M``/``S``/``Y``/``X``/``lam`` and this
    iteration's ``mu``/``mu_next``; the tasks update ``S``, ``Y``, ``X``
    and deposit ``L``, ``rank`` and ``res_norm``.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if m < n:
        raise ValueError("the IALM graph factors tall matrices (m >= n); transpose first")
    from repro.graph.highlevel import TaskGraph

    st = bind

    def payload(f: Callable[[], None]):
        return f if st is not None else None

    def do_qr() -> None:
        st["Q"], st["R"] = tsqr_qr(st["X"])

    def do_svt() -> None:
        tau = 1.0 / st["mu"]
        U_small, s, Vt = jacobi_svd(st.pop("R"))
        U = st.pop("Q") @ U_small
        s_thr = shrink(s, tau)
        rank = int(np.count_nonzero(s_thr))
        st["L"] = (U[:, :rank] * s_thr[:rank]) @ Vt[:rank]
        st["rank"] = rank

    def do_update() -> None:
        st["res_norm"] = ialm_update(
            st["M"], st["L"], st["S"], st["Y"], st["X"], st["mu"], st["mu_next"], st["lam"]
        )

    tg = TaskGraph(name=f"rpca_ialm[{m}x{n}]")
    prev = tg.add_task("qr", ("qr",), payload(do_qr))
    prev = tg.add_task("svt", ("svt",), payload(do_svt), deps=[prev])
    tg.add_task("update", ("update",), payload(do_update), deps=[prev])
    return tg


def ialm_graph_step(M: np.ndarray, S: np.ndarray, Y: np.ndarray, X: np.ndarray, lam: float):
    """One IALM iteration per call, executed as the task graph.

    Returns ``step(mu, mu_next) -> (L, rank, ||M - L - S||_F)``, the
    iteration :func:`repro.rpca.ialm.rpca_ialm` (``engine="graph"``)
    runs in its loop; bit-identical to the direct engine's iteration with
    the default SVT pipeline.
    """
    from repro.graph.executor import run_task_graph

    st: dict = {"M": M, "S": S, "Y": Y, "X": X, "lam": lam}
    tg = emit_ialm_layers(*M.shape, bind=st)

    def step(mu: float, mu_next: float):
        st.update(mu=mu, mu_next=mu_next)
        run_task_graph(tg, instrument=True)
        return st.pop("L"), st["rank"], st["res_norm"]

    return step
