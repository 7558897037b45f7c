"""Rank-adaptive singular value thresholding.

The full thin SVD of Section VI computes all ``n`` singular triplets each
iteration, but the threshold keeps only a handful (the background is
rank ~1-3).  The rank-adaptive variant predicts the surviving rank from
the previous iteration, computes a randomized partial SVD of slightly
larger rank (one TSQR of a thin sampled matrix — cheap in exactly this
library's terms), and falls back to the full SVD only when the
prediction was too small.  A standard optimization in modern RPCA codes
(e.g. the inexact-ALM reference implementation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.randomized_svd import _RSVD_DEFAULT, randomized_svd
from repro.runtime.policy import ExecutionPolicy
from repro.core.ts_svd import tall_skinny_svd
from repro.verify.guards import validate_matrix

from .shrinkage import shrink

__all__ = ["AdaptiveSVT"]


@dataclass
class AdaptiveSVT:
    """Stateful SVT operator that tracks the rank across iterations.

    Callable with the same ``(X, tau) -> (L, rank)`` contract as
    :func:`repro.rpca.svt.singular_value_threshold`, so it plugs into
    :func:`repro.rpca.ialm.rpca_ialm` via the ``svd`` hook or directly.

    Execution is configured by the keyword-only ``policy`` (an
    :class:`~repro.runtime.policy.ExecutionPolicy`); ``None`` means the
    randomized SVD's default (``block_rows=256``).
    """

    buffer: int = 5  # extra singular triplets beyond the predicted rank
    max_tries: int = 3
    seed: int = 0
    policy: ExecutionPolicy | None = field(default=None, kw_only=True)
    predicted_rank: int = 1
    full_svd_calls: int = 0
    partial_svd_calls: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.buffer < 1 or self.max_tries < 1:
            raise ValueError("buffer and max_tries must be >= 1")
        if self.policy is None:
            self.policy = _RSVD_DEFAULT
        self._rng = np.random.default_rng(self.seed)

    def __call__(self, X: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
        X = validate_matrix(
            X, where="AdaptiveSVT", nonfinite=self.policy.nonfinite, dtype=np.float64
        )
        m, n = X.shape
        k = min(self.predicted_rank + self.buffer, min(m, n))
        for _ in range(self.max_tries):
            if k >= min(m, n):
                break
            U, s, Vt = randomized_svd(
                X,
                k=k,
                rng=self._rng,
                policy=self.policy.with_nonfinite("propagate"),
            )
            if s.size and s[-1] <= tau:
                # The smallest computed value is already below the
                # threshold: nothing surviving was truncated away.
                s_thr = shrink(s, tau)
                rank = int(np.count_nonzero(s_thr))
                self.predicted_rank = max(rank, 1)
                self.partial_svd_calls += 1
                L = (U[:, :rank] * s_thr[:rank]) @ Vt[:rank]
                return L, rank
            k = min(2 * k, min(m, n))
        # Fall back to the exact thin SVD.
        U, s, Vt = tall_skinny_svd(X) if m >= n else _wide_svd(X)
        s_thr = shrink(s, tau)
        rank = int(np.count_nonzero(s_thr))
        self.predicted_rank = max(rank, 1)
        self.full_svd_calls += 1
        L = (U[:, :rank] * s_thr[:rank]) @ Vt[:rank]
        return L, rank


def _wide_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, s, Vt = tall_skinny_svd(X.T)
    return Vt.T, s, U.T
