"""Compact-WY (BLAS3) batched kernels — the fast path of the real-time CAQR.

:func:`block_qr` is the one Householder QR kernel of the host engines:
TSQR and the CAQR panels, ``plan_qr``, the look-ahead executor and the
serving coalescer factor every level-0 block and every tree node through
it, so their R factors are bit-identical.  It returns the ``R``, ``V``
and ``T`` of ``Q = I - V T V^T`` for a ``(batch, h, w)`` stack and picks
its implementation from the block shape alone (:func:`geqrt_side`):
LAPACK ``geqrt`` per block for tall blocks with enough work, which
builds ``T`` as it goes, or the stacked-QR gufunc plus :func:`larft` for
many tiny blocks such as the paper's 64x16, where one C loop over the
batch beats a Python-level call per block.

:func:`apply_wy` applies the factors: three batched GEMMs per tile
(``np.matmul`` dispatches each batch slice to a GEMM microkernel,
roughly an order of magnitude faster than the seed's ``np.einsum``
contractions in :mod:`repro.smallblas.batched`).  Everything here
accepts strided views (e.g. a trailing-matrix slice reshaped into
``(blocks, block_rows, width)`` without a copy) — GEMM handles the
leading-dimension strides natively, which is what lets the level-0
update of :mod:`repro.core.tsqr` run with no gather/scatter copies.

The seed einsum kernels are kept untouched as the reference
implementations; these routines are tested against them block by block.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
from scipy.linalg import lapack as _lapack

from repro.core.dtypes import working_dtype

__all__ = [
    "extract_v",
    "larft",
    "apply_wy",
    "wy_factors",
    "GEQRT_MIN_WORK",
    "geqrt_side",
    "BlockQR",
    "block_qr",
]

# One flat scratch allocation per dtype, grown to the high-water mark and
# reused by every apply_wy call.  The GEMM temporaries at paper scale are
# ~100 MB per trailing update; reusing one buffer instead of allocating
# fresh (page-faulting) memory each call is worth ~2x on a cold run.
# Thread-local so the look-ahead executor can run independent trailing
# updates concurrently without sharing (and corrupting) the buffer.
_TLS = threading.local()


def _scratch(count: int, dtype: np.dtype) -> np.ndarray:
    """Flat reusable buffer of at least ``count`` elements of ``dtype``."""
    work: dict[str, np.ndarray] | None = getattr(_TLS, "work", None)
    if work is None:
        work = _TLS.work = {}
    key = np.dtype(dtype).str
    buf = work.get(key)
    if buf is None or buf.size < count:
        buf = np.empty(max(count, 1), dtype=dtype)
        work[key] = buf
    return buf


@functools.lru_cache(maxsize=64)
def _tri_mask(m: int, k: int, upper: bool) -> np.ndarray:
    """Cached ``(m, k)`` strict-lower (or upper-with-diagonal) mask."""
    mask = np.tri(m, k, -1, dtype=bool)
    if upper:
        mask = ~mask
    mask.flags.writeable = False
    return mask


def extract_v(VR: np.ndarray, k: int | None = None) -> np.ndarray:
    """Unit-lower-trapezoidal ``V`` from a packed ``(batch, m, n)`` stack.

    Equivalent to the reference ``_extract_v_batch`` but done with one
    boolean-mask pass instead of ``np.tril`` + diagonal fill per call.
    ``V`` is C-contiguous whatever the layout of ``VR``, so the GEMMs
    that read it (and their rounding) do not depend on that layout.
    """
    b, m, n = VR.shape
    if k is None:
        k = min(m, n)
    V = np.zeros((b, m, k), dtype=VR.dtype)
    np.copyto(V, VR[:, :, :k], where=_tri_mask(m, k, False))
    idx = np.arange(min(m, k))
    V[:, idx, idx] = 1.0
    return V


def larft(V: np.ndarray, tau: np.ndarray, VtV: np.ndarray | None = None) -> np.ndarray:
    """Block-reflector ``T`` (``slarft``) for a batch, via GEMM.

    The m-length contractions are hoisted into one batched GEMM
    ``S = V^T V``; the remaining recurrence works on k-sized data only::

        T[i, i] = tau_i
        T[:i, i] = -tau_i * T[:i, :i] @ S[:i, i]

    Args:
        V: ``(batch, m, k)`` unit-lower-trapezoidal reflectors.
        tau: ``(batch, k)`` coefficients.
        VtV: optional precomputed ``V^T V`` ``(batch, k, k)``.
    """
    b, m, k = V.shape
    if VtV is None:
        VtV = np.matmul(V.transpose(0, 2, 1), V)
    T = np.zeros((b, k, k), dtype=V.dtype)
    for i in range(k):
        t_i = tau[:, i]
        T[:, i, i] = t_i
        if i > 0:
            w = np.matmul(T[:, :i, :i], VtV[:, :i, i, None])
            T[:, :i, i] = -t_i[:, None] * w[:, :, 0]
    return T


def apply_wy(
    V: np.ndarray,
    T: np.ndarray,
    C: np.ndarray,
    transpose: bool = True,
    chunk_elems: int = 131072,
) -> np.ndarray:
    """Apply ``Q`` / ``Q^T`` of ``Q = I - V T V^T`` to each tile, in place.

    ``C_b <- C_b - V_b (T_b' (V_b^T C_b))`` — three batched GEMMs and a
    subtraction.  ``C`` may be any strided ``(batch, m, w)`` view; the
    update writes through it, so callers can pass a reshaped trailing
    slice and skip gather/scatter entirely.

    The batch is processed in chunks whose temporaries hold at most
    ``chunk_elems`` elements, carved out of the shared scratch buffer.
    The default keeps a chunk cache-resident, which at paper scale
    (few huge trailing updates) halves main-memory traffic versus three
    full-batch GEMMs with materialized intermediates; the serving
    coalescer, whose updates are many and small, passes a larger bound
    to buy fewer GEMM dispatches instead.  Chunking splits the batch
    axis only — each slice's arithmetic is independent of ``chunk_elems``,
    so results are bitwise identical across settings.
    """
    Tm = T.transpose(0, 2, 1) if transpose else T
    b, m, k = V.shape
    w = C.shape[2]
    if V.dtype != C.dtype or k == 0 or w == 0:
        W = np.matmul(V.transpose(0, 2, 1), C)
        W = np.matmul(Tm, W)
        np.subtract(C, np.matmul(V, W), out=C)
        return C
    per_block = w * (2 * k + m)
    chunk = max(1, min(b, chunk_elems // max(1, per_block)))
    buf = _scratch(chunk * per_block, C.dtype)
    for s0 in range(0, b, chunk):
        s1 = min(s0 + chunk, b)
        cb = s1 - s0
        Vc = V[s0:s1]
        Cc = C[s0:s1]
        W1 = buf[: cb * k * w].reshape(cb, k, w)
        W2 = buf[cb * k * w : 2 * cb * k * w].reshape(cb, k, w)
        VW = buf[2 * cb * k * w : cb * per_block].reshape(cb, m, w)
        np.matmul(Vc.transpose(0, 2, 1), Cc, out=W1)
        np.matmul(Tm[s0:s1], W1, out=W2)
        np.matmul(Vc, W2, out=VW)
        np.subtract(Cc, VW, out=Cc)
    return C


def wy_factors(VR: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(V, T)`` of the compact-WY form for an already-packed factor."""
    V = extract_v(VR)
    return V, larft(V, tau)


# Tall blocks whose h * w^2 (about half their Householder flops) is at
# least this go through LAPACK geqrt one block at a time; smaller ones
# through the stacked-QR gufunc.  Picked from the (h, w, dtype) sweep in
# EXPERIMENTS.md ("One level-0 Householder kernel"): below it the
# per-block call overhead dominates (the paper's 64x16 blocks are 4x
# below it); above it geqrt's recursive QR, with T built in, is up to 5x
# faster (2x at the RPCA matrix's 1600x100 blocks).
GEQRT_MIN_WORK = 1 << 16


def geqrt_side(h: int, w: int) -> bool:
    """Whether :func:`block_qr` factors ``h x w`` blocks with LAPACK geqrt.

    A function of the block shape alone — never of the batch count — so
    stacking independent problems (the serving coalescer) or splitting a
    panel differently across engines cannot change which kernel, and so
    which bits, a block gets.
    """
    return h >= w and h * w * w >= GEQRT_MIN_WORK


class BlockQR:
    """Householder QR of every slice of a ``(batch, h, w)`` stack.

    Slice ``b`` factors as ``A_b = (I - V_b T_b V_b^T) [R_b; 0]`` with
    ``k = min(h, w)``: ``R`` is ``(batch, k, w)`` upper trapezoidal,
    ``V`` the ``(batch, h, k)`` unit-lower-trapezoidal reflectors, ``T``
    the ``(batch, k, k)`` block reflectors and ``tau = diag(T)``.  On the
    gufunc side ``V`` and ``T`` are assembled from the raw LAPACK output
    on first read, so a factor that is never applied never pays for
    them; :meth:`packed` gives LAPACK's ``(batch, h, w)`` packed layout
    on either side (built on first call where it is not already there).
    """

    __slots__ = ("R", "tau", "_V", "_T", "_packed")

    def __init__(self, R, tau, V=None, T=None, packed=None):
        self.R, self.tau = R, tau
        self._V, self._T, self._packed = V, T, packed

    def _wy(self) -> None:
        V = extract_v(self._packed, self.tau.shape[1])
        self._V, self._T = V, larft(V, self.tau)

    @property
    def V(self) -> np.ndarray:
        if self._V is None:
            self._wy()
        return self._V

    @property
    def T(self) -> np.ndarray:
        if self._T is None:
            self._wy()
        return self._T

    def packed(self) -> np.ndarray:
        """``(batch, h, w)``: ``R`` on and above the diagonal, ``V`` below."""
        if self._packed is None:
            VR = self._V.copy()
            k = self.R.shape[1]
            np.copyto(VR[:, :k, :], self.R, where=_tri_mask(k, VR.shape[2], True))
            self._packed = VR
        return self._packed


def block_qr(A: np.ndarray) -> BlockQR:
    """Householder QR of a ``(batch, h, w)`` stack: the one level-0 kernel.

    Every host engine (TSQR and the CAQR panels, ``plan_qr``, the
    look-ahead executor, the serving coalescer) factors its level-0
    blocks and tree nodes here, so their R factors stay bit-identical.
    The implementation is chosen by :func:`geqrt_side` from the block
    shape alone:

    * tall blocks with enough work run LAPACK ``geqrt`` (Elmroth-Gustavson
      recursive QR) per block with ``nb = w``; it returns the whole
      compact-WY ``T``, so no ``larft`` pass is needed.  Each block is
      copied once into a Fortran-ordered slice of ``V`` and factored there
      in place;
    * everything else runs the stacked-QR gufunc
      (``np.linalg.qr(mode="raw")``), one C loop over the batch, with
      ``V``/``T`` built by :func:`larft` on first use.

    Each slice is factored independently either way, so factoring a stack
    is bitwise equal to factoring each slice alone.  ``A`` may be any
    strided stack; it is never modified.
    """
    A = np.asarray(A)
    if A.ndim != 3:
        raise ValueError("A must be a (batch, m, n) stack")
    dt = working_dtype(A)
    b, h, w = A.shape
    k = min(h, w)
    if k == 0:
        return BlockQR(
            np.zeros((b, 0, w), dt),
            np.zeros((b, 0), dt),
            V=np.zeros((b, h, 0), dt),
            T=np.zeros((b, 0, 0), dt),
            packed=np.array(A, dtype=dt, copy=True),
        )
    if not geqrt_side(h, w):
        raw, tau = np.linalg.qr(np.asarray(A, dtype=dt), mode="raw")
        VR = raw.transpose(0, 2, 1)
        return BlockQR(np.triu(VR[:, :k, :]), tau, packed=VR)
    geqrt = _lapack.dgeqrt if dt == np.float64 else _lapack.sgeqrt
    V = np.empty((b, w, h), dtype=dt).transpose(0, 2, 1)
    T = np.empty((b, w, w), dtype=dt)
    for i in range(b):
        Vi = V[i]  # Fortran-ordered: geqrt overwrites it in place
        Vi[...] = A[i]
        _, T[i], _ = geqrt(w, Vi, overwrite_a=1)
    top = V[:, :w, :]
    upper = _tri_mask(w, w, True)
    R = np.zeros((b, w, w), dtype=dt)
    np.copyto(R, top, where=upper)
    np.copyto(top, np.eye(w, dtype=dt), where=upper)
    return BlockQR(R, np.diagonal(T, axis1=1, axis2=2), V=V, T=T)
