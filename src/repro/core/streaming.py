"""Streaming (single-pass / out-of-core) TSQR.

The flat-tree TSQR is sequential: blocks of rows arrive one at a time,
each merged into the running R by factoring ``[R; new block]``.  That is
exactly the out-of-core / streaming regime ("if we choose block sizes
that fit in cache, we can achieve significant bandwidth savings",
Section II-B): the tall matrix is read once, only an ``n x n`` triangle
stays resident, and the per-block factors are retained so Q can still be
applied afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.verify.guards import validate_matrix

from .dtypes import as_float_array, working_dtype
from .householder import geqr2, orm2r

__all__ = ["StreamingTSQR"]


@dataclass
class _StreamStep:
    """Factor of one merge step: QR of [R_prev; block]."""

    rows: tuple[int, int]  # global rows of the block within the stream
    r_rows: int  # rows contributed by the running R (0 for the first)
    VR: np.ndarray
    tau: np.ndarray


@dataclass
class StreamingTSQR:
    """Accumulate a tall matrix block-by-block; query R (and apply Q^T).

    Usage::

        st = StreamingTSQR(n_cols=16)
        for block in stream_of_row_blocks:
            st.push(block)
        R = st.R                    # factor of everything seen so far
        qtb = st.apply_qt(b)        # needs the concatenated rows of b
    """

    n_cols: int
    _steps: list[_StreamStep] = field(default_factory=list)
    _R: np.ndarray | None = None
    _rows_seen: int = 0
    _dtype: np.dtype | None = None  # stream working dtype, fixed per push

    @property
    def m(self) -> int:
        """Total rows consumed."""
        return self._rows_seen

    @property
    def n_blocks(self) -> int:
        return len(self._steps)

    @property
    def R(self) -> np.ndarray:
        """Upper-triangular factor of all rows pushed so far."""
        if self._R is None:
            raise ValueError("no blocks pushed yet")
        k = min(self._rows_seen, self.n_cols)
        if self._R.shape[0] < k:  # degenerate short stream
            pad = np.zeros((k - self._R.shape[0], self.n_cols), dtype=self._R.dtype)
            return np.vstack([self._R, pad])
        return self._R[:k]

    def push(self, block: np.ndarray) -> "StreamingTSQR":
        """Merge one block of rows (any height >= 1) into the stream.

        Raises:
            ValueError: a block that is not 2-D, has the wrong number of
                columns or rows, or holds NaN/Inf.
        """
        block = validate_matrix(block, where="StreamingTSQR.push")
        if block.shape[1] != self.n_cols:
            raise ValueError(f"block must have {self.n_cols} columns")
        if block.shape[0] < 1:
            raise ValueError("block must have at least one row")
        start = self._rows_seen
        stop = start + block.shape[0]
        # Normalize the stream's working dtype once per promotion instead
        # of re-casting the running R on every push: all retained step
        # factors share one dtype, so later applies never cast per step.
        dt = np.result_type(block.dtype) if self._dtype is None else np.result_type(self._dtype, block.dtype)
        if dt != self._dtype:
            self._dtype = dt
            if self._R is not None:
                self._R = self._R.astype(dt)
        block = block.astype(dt, copy=False)
        if self._R is None:
            stacked = block
            r_rows = 0
        else:
            stacked = np.vstack([self._R, block])
            r_rows = self._R.shape[0]
        VR, tau = geqr2(stacked)
        k = min(stacked.shape[0], self.n_cols)
        self._R = np.triu(VR[:k, :])
        self._steps.append(_StreamStep(rows=(start, stop), r_rows=r_rows, VR=VR, tau=tau))
        self._rows_seen = stop
        return self

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """``Q^T B`` for B with all ``m`` streamed rows (same row order).

        Walks the merge steps forward, carrying the running-R slot (up to
        ``n`` rows) through each step — the same dataflow by which R was
        accumulated.  Explicit home-position bookkeeping keeps every row
        accounted for even when early blocks are shorter than ``n``.
        """
        B = as_float_array(B)
        if B.shape[0] != self._rows_seen:
            raise ValueError(f"B must have {self._rows_seen} rows, got {B.shape[0]}")
        squeeze = B.ndim == 1
        W = B.reshape(self._rows_seen, -1).astype(working_dtype(B), copy=True)
        carry = np.zeros((0, W.shape[1]), dtype=W.dtype)
        homes = np.zeros(0, dtype=np.intp)  # global rows the carry occupies
        for step in self._steps:
            s, e = step.rows
            stacked = np.vstack([carry, W[s:e]])
            combined_homes = np.concatenate([homes, np.arange(s, e)])
            orm2r(step.VR, step.tau, stacked, transpose=True)
            k = min(stacked.shape[0], self.n_cols)
            carry = stacked[:k].copy()
            homes = combined_homes[:k]
            finalized = stacked[k:]
            W[combined_homes[k:]] = finalized
        W[homes] = carry
        return W.ravel() if squeeze else W
