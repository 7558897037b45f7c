"""Workload shapes and seeded input generation.

Both the reference process (``refs.py``) and the workload process
(``worker.py``) call :func:`make_inputs` with the same seed, so the LAPACK
references are taken on exactly the matrices the library factors.  Input
generation is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rpca_video", "caqr_table1", "auto_mixed_cond", "stream_soak")

# rpca_video: the paper's 288x384-pixel, 100-frame clip (110592 x 100).
VIDEO = (288, 384, 100)
# caqr_table1: the Table I width.
TABLE1_SHAPE = (65536, 192)
# auto_mixed_cond: the paper's RPCA shape; every AUTO_CYCLE-th op is ill-conditioned.
AUTO_SHAPE = (110592, 100)
AUTO_CYCLE = 8
AUTO_COND = 1e10
# stream_soak: one op is one STREAM_SHAPE stream fed in STREAM_BLOCK-row blocks.
STREAM_SHAPE = (131072, 64)
STREAM_BLOCK = 2048


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``qr`` holds the matrices whose LAPACK R the reference process
    computes (and the workload's QR ops are checked against); ``ill`` is
    the ill-conditioned ``auto_mixed_cond`` matrix.
    """

    qr_shape: tuple[int, int]
    qr: list[np.ndarray] = field(default_factory=list)
    ill: np.ndarray | None = None

    def digest(self) -> str:
        """Short fingerprint of the inputs, to show two seeds differ."""
        import hashlib

        h = hashlib.sha256()
        for a in self.qr + ([] if self.ill is None else [self.ill]):
            h.update(np.ascontiguousarray(a.ravel()[::997]).tobytes())
        return h.hexdigest()[:16]


def qr_flops(m: int, n: int) -> float:
    """Householder QR flops for one m x n factorization (2mn^2 - 2/3 n^3)."""
    return 2.0 * m * n * n - 2.0 / 3.0 * n ** 3


def _ill_conditioned(rng: np.random.Generator, m: int, n: int, cond: float) -> np.ndarray:
    # A near-orthonormal Gaussian times a graded, rotated n x n factor:
    # singular values span ``cond`` and column equilibration cannot
    # remove the grading (the rotation mixes it into every column).
    G = rng.standard_normal((m, n)) / np.sqrt(m)
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return G @ (np.logspace(0, -np.log10(cond), n)[:, None] * W.T)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate ``workload``'s inputs from ``seed`` (same seed, same inputs)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "rpca_video":
        from repro.rpca.video import generate_video

        D = generate_video(*VIDEO, seed=seed).M
        return Inputs(qr_shape=D.shape, qr=[D])
    if workload == "caqr_table1":
        return Inputs(
            qr_shape=TABLE1_SHAPE,
            qr=[rng.standard_normal(TABLE1_SHAPE) for _ in range(2)],
        )
    if workload == "auto_mixed_cond":
        m, n = AUTO_SHAPE
        gauss = [rng.standard_normal(AUTO_SHAPE) for _ in range(2)]
        return Inputs(
            qr_shape=AUTO_SHAPE,
            qr=gauss,
            ill=_ill_conditioned(rng, m, n, AUTO_COND),
        )
    if workload == "stream_soak":
        return Inputs(
            qr_shape=STREAM_SHAPE,
            qr=[rng.standard_normal(STREAM_SHAPE) for _ in range(2)],
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
