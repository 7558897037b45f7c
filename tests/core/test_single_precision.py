"""Single-precision tests — the paper's working precision.

"Everything here is done using single-precision, which is adequate for
our video application" (Section IV).  The core routines preserve float32
end to end; accuracy scales with float32 machine epsilon (~1.2e-7).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocked import blocked_qr
from repro.core.caqr import caqr_qr
from repro.core.dtypes import as_float_array, eps_for, working_dtype
from repro.core.householder import geqr2, house, org2r
from repro.core.jacobi_svd import jacobi_svd
from repro.core.tsqr import tsqr, tsqr_qr
from repro.core.ts_svd import tall_skinny_svd
from repro.core.validation import factorization_error, orthogonality_error
from repro.runtime import ExecutionPolicy

F32_TOL = 5e-5  # generous multiple of float32 eps * sqrt(size)


class TestDtypeHelpers:
    def test_working_dtype_rules(self):
        f32 = np.zeros(3, dtype=np.float32)
        f64 = np.zeros(3)
        assert working_dtype(f32) == np.float32
        assert working_dtype(f64) == np.float64
        assert working_dtype(f32, f64) == np.float64
        assert working_dtype(np.zeros(3, dtype=np.int32)) == np.float64

    def test_as_float_array_preserves_f32(self):
        x = np.ones(4, dtype=np.float32)
        assert as_float_array(x).dtype == np.float32
        assert as_float_array([1, 2, 3]).dtype == np.float64

    def test_as_float_array_copy_flag(self):
        x = np.ones(4)
        assert as_float_array(x) is x
        assert as_float_array(x, copy=True) is not x

    def test_eps(self):
        assert eps_for(np.zeros(2, dtype=np.float32)) == pytest.approx(1.1920929e-07)
        assert eps_for(np.zeros(2)) == pytest.approx(2.220446e-16)


class TestSinglePrecisionQR:
    def test_house_f32(self, rng):
        x = rng.standard_normal(16).astype(np.float32)
        v, tau, beta = house(x)
        assert v.dtype == np.float32
        y = x - np.float32(tau) * v * np.float32(v @ x)
        assert abs(y[0] - beta) < 1e-5
        assert np.linalg.norm(y[1:]) < 1e-5

    def test_geqr2_f32(self, rng):
        A = rng.standard_normal((40, 10)).astype(np.float32)
        VR, tau = geqr2(A)
        assert VR.dtype == np.float32 and tau.dtype == np.float32
        Q = org2r(VR, tau)
        assert Q.dtype == np.float32
        assert orthogonality_error(Q) < F32_TOL

    @pytest.mark.parametrize("qr", [tsqr_qr, caqr_qr, blocked_qr])
    def test_factorizations_stay_f32(self, rng, qr):
        A = rng.standard_normal((300, 24)).astype(np.float32)
        Q, R = qr(A)
        assert Q.dtype == np.float32
        assert R.dtype == np.float32
        assert factorization_error(A, Q, R) < F32_TOL
        assert orthogonality_error(Q) < F32_TOL

    def test_apply_qt_preserves_f32(self, rng):
        A = rng.standard_normal((128, 8)).astype(np.float32)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=32))
        B = rng.standard_normal((128, 3)).astype(np.float32)
        out = f.apply_qt(B)
        assert out.dtype == np.float32

    def test_jacobi_svd_f32(self, rng):
        A = rng.standard_normal((30, 8)).astype(np.float32)
        U, s, Vt = jacobi_svd(A, tol=1e-7)
        assert U.dtype == np.float32 and s.dtype == np.float32
        assert np.allclose((U * s) @ Vt, A, atol=1e-4)

    def test_tall_skinny_svd_f32(self, rng):
        A = rng.standard_normal((200, 10)).astype(np.float32)
        U, s, Vt = tall_skinny_svd(A, svd_small=lambda R: jacobi_svd(R, tol=1e-7))
        s64 = np.linalg.svd(A.astype(np.float64), compute_uv=False)
        assert np.allclose(s, s64, rtol=1e-3, atol=1e-4)

    def test_f32_error_worse_than_f64_but_bounded(self, rng):
        A64 = rng.standard_normal((500, 16))
        A32 = A64.astype(np.float32)
        Q32, R32 = tsqr_qr(A32)
        Q64, R64 = tsqr_qr(A64)
        e32 = orthogonality_error(Q32)
        e64 = orthogonality_error(Q64)
        assert e64 < 1e-12
        assert e64 < e32 < F32_TOL

    def test_mixed_inputs_promote_to_f64(self, rng):
        A = rng.standard_normal((64, 4)).astype(np.float32)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=16))
        B64 = rng.standard_normal((64, 2))
        out = f.apply_qt(B64)
        assert out.dtype == np.float64
