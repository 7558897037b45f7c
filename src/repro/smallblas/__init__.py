"""Batched small dense kernels (the "batched LAPACK" the paper hand-rolled).

:mod:`.batched` holds the seed einsum kernels (the reference
implementations); :mod:`.wy` holds the level-0 Householder kernel
(:func:`.wy.block_qr`) and the GEMM-based compact-WY kernels the batched
execution path runs on; :mod:`.gram` holds the BLAS3 Gram /
triangular-multiply kernels behind the CholeskyQR2 fast paths.
"""

from .gram import (
    HAVE_BLAS3,
    gram,
    tri_inv_upper,
    trmm_right_inplace,
    trsm_right_inplace,
)
from .batched import (
    batched_apply_blocked,
    batched_apply_q,
    batched_apply_qt,
    batched_form_q,
    batched_geqr2,
    batched_house,
    batched_larft,
)
from .wy import BlockQR, apply_wy, block_qr, extract_v, larft, wy_factors

__all__ = [
    "batched_apply_blocked",
    "batched_apply_q",
    "batched_apply_qt",
    "batched_form_q",
    "batched_geqr2",
    "batched_house",
    "batched_larft",
    "apply_wy",
    "BlockQR",
    "block_qr",
    "extract_v",
    "larft",
    "wy_factors",
    "HAVE_BLAS3",
    "gram",
    "tri_inv_upper",
    "trmm_right_inplace",
    "trsm_right_inplace",
]
