"""Tests of the batched small-kernel library against the scalar kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.householder import geqr2, house, org2r, orm2r
from repro.runtime import ExecutionPolicy
from repro.smallblas import (
    batched_apply_q,
    batched_apply_qt,
    batched_form_q,
    batched_geqr2,
    batched_house,
)


class TestBatchedHouse:
    def test_matches_scalar(self, rng):
        X = rng.standard_normal((50, 9))
        V, tau, beta = batched_house(X)
        for i in range(50):
            v_s, t_s, b_s = house(X[i])
            assert np.allclose(V[i], v_s, atol=1e-13)
            assert tau[i] == pytest.approx(t_s)
            assert beta[i] == pytest.approx(b_s)

    def test_zero_vectors_identity(self):
        X = np.zeros((4, 6))
        V, tau, beta = batched_house(X)
        assert np.allclose(tau, 0.0)
        assert np.allclose(beta, 0.0)

    def test_mixed_zero_and_nonzero(self, rng):
        X = rng.standard_normal((6, 5))
        X[2] = 0.0
        X[4, 1:] = 0.0  # already reduced
        V, tau, beta = batched_house(X)
        assert tau[2] == 0.0
        assert tau[4] == 0.0
        assert beta[4] == pytest.approx(X[4, 0])
        for i in (0, 1, 3, 5):
            _, t_s, b_s = house(X[i])
            assert tau[i] == pytest.approx(t_s)

    def test_length_one(self, rng):
        X = rng.standard_normal((3, 1))
        V, tau, beta = batched_house(X)
        assert np.allclose(V, 1.0)
        assert np.allclose(tau, 0.0)
        assert np.allclose(beta, X[:, 0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            batched_house(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            batched_house(np.zeros(5))


class TestBatchedGeqr2:
    @pytest.mark.parametrize("b,m,n", [(10, 16, 4), (5, 64, 16), (3, 8, 8), (7, 4, 9)])
    def test_matches_scalar(self, rng, b, m, n):
        A = rng.standard_normal((b, m, n))
        VRb, taub = batched_geqr2(A)
        for i in range(b):
            VR, tau = geqr2(A[i])
            assert np.allclose(VRb[i], VR, atol=1e-12)
            assert np.allclose(taub[i], tau, atol=1e-12)

    def test_input_unmodified(self, rng):
        A = rng.standard_normal((4, 10, 3))
        A0 = A.copy()
        batched_geqr2(A)
        assert np.array_equal(A, A0)

    def test_float32_preserved(self, rng):
        A = rng.standard_normal((4, 12, 4)).astype(np.float32)
        VR, tau = batched_geqr2(A)
        assert VR.dtype == np.float32 and tau.dtype == np.float32

    def test_batch_of_one(self, rng):
        A = rng.standard_normal((1, 20, 5))
        VR, tau = batched_geqr2(A)
        VR_s, tau_s = geqr2(A[0])
        assert np.allclose(VR[0], VR_s, atol=1e-13)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            batched_geqr2(rng.standard_normal((4, 4)))


class TestBatchedApply:
    def test_qt_matches_orm2r(self, rng):
        A = rng.standard_normal((8, 32, 8))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((8, 32, 5))
        out = batched_apply_qt(VR, tau, C.copy())
        for i in range(8):
            ref = orm2r(VR[i], tau[i], C[i].copy(), transpose=True)
            assert np.allclose(out[i], ref, atol=1e-12)

    def test_q_qt_roundtrip(self, rng):
        A = rng.standard_normal((6, 24, 6))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((6, 24, 3))
        out = batched_apply_q(VR, tau, batched_apply_qt(VR, tau, C.copy()))
        assert np.allclose(out, C, atol=1e-12)

    def test_applied_to_own_block_gives_r(self, rng):
        A = rng.standard_normal((5, 16, 4))
        VR, tau = batched_geqr2(A)
        out = batched_apply_qt(VR, tau, A.copy())
        for i in range(5):
            assert np.allclose(np.triu(out[i, :4]), np.triu(VR[i, :4]), atol=1e-12)
            assert np.linalg.norm(out[i, 4:]) < 1e-10

    def test_shape_mismatch_rejected(self, rng):
        A = rng.standard_normal((3, 10, 4))
        VR, tau = batched_geqr2(A)
        with pytest.raises(ValueError):
            batched_apply_qt(VR, tau, rng.standard_normal((3, 9, 2)))
        with pytest.raises(ValueError):
            batched_apply_qt(VR, tau, rng.standard_normal((2, 10, 2)))


class TestBatchedFormQ:
    def test_matches_org2r(self, rng):
        A = rng.standard_normal((6, 20, 7))
        VR, tau = batched_geqr2(A)
        Q = batched_form_q(VR, tau)
        for i in range(6):
            assert np.allclose(Q[i], org2r(VR[i], tau[i]), atol=1e-12)

    def test_orthonormal(self, rng):
        A = rng.standard_normal((4, 30, 5))
        VR, tau = batched_geqr2(A)
        Q = batched_form_q(VR, tau)
        eye = np.eye(5)
        for i in range(4):
            assert np.allclose(Q[i].T @ Q[i], eye, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(1, 12),
    m=st.integers(1, 24),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_property_batched_equals_scalar(b, m, n, seed):
    A = np.random.default_rng(seed).standard_normal((b, m, n))
    VRb, taub = batched_geqr2(A)
    for i in range(b):
        VR, tau = geqr2(A[i])
        assert np.allclose(VRb[i], VR, atol=1e-11)
        assert np.allclose(taub[i], tau, atol=1e-11)


class TestBatchedBlockedApply:
    def test_larft_matches_scalar(self, rng):
        from repro.core.blocked import larft
        from repro.core.householder import extract_v
        from repro.smallblas.batched import batched_larft

        A = rng.standard_normal((6, 20, 5))
        VR, tau = batched_geqr2(A)
        T = batched_larft(VR, tau)
        for i in range(6):
            T_ref = larft(extract_v(VR[i]), tau[i])
            assert np.allclose(T[i], T_ref, atol=1e-12)

    def test_blocked_apply_matches_reflector_loop(self, rng):
        from repro.smallblas.batched import batched_apply_blocked

        A = rng.standard_normal((8, 48, 12))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((8, 48, 7))
        a = batched_apply_qt(VR, tau, C.copy())
        b = batched_apply_blocked(VR, tau, C.copy(), transpose=True)
        assert np.allclose(a, b, atol=1e-11)
        aq = batched_apply_q(VR, tau, C.copy())
        bq = batched_apply_blocked(VR, tau, C.copy(), transpose=False)
        assert np.allclose(aq, bq, atol=1e-11)

    def test_precomputed_t_reused(self, rng):
        from repro.smallblas.batched import batched_apply_blocked, batched_larft

        A = rng.standard_normal((4, 16, 4))
        VR, tau = batched_geqr2(A)
        T = batched_larft(VR, tau)
        C = rng.standard_normal((4, 16, 3))
        a = batched_apply_blocked(VR, tau, C.copy(), T=T)
        b = batched_apply_blocked(VR, tau, C.copy())
        assert np.allclose(a, b, atol=1e-13)

    def test_tsqr_uses_blocked_path_correctly(self, rng):
        """End-to-end: TSQR level-0 applies now go through compact-WY."""
        from repro.core.tsqr import tsqr_qr
        from repro.core.validation import factorization_error, orthogonality_error

        A = rng.standard_normal((1024, 24))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=128))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12


class TestCompactWY:
    """The GEMM-based compact-WY kernels against the einsum reference."""

    def test_extract_v_matches_reference(self, rng):
        from repro.smallblas.batched import _extract_v_batch
        from repro.smallblas.wy import extract_v

        for shape in [(4, 20, 6), (3, 5, 9), (2, 1, 3), (5, 7, 7)]:
            A = rng.standard_normal(shape)
            VR, _ = batched_geqr2(A)
            assert np.array_equal(extract_v(VR), _extract_v_batch(VR))

    def test_larft_matches_reference(self, rng):
        from repro.smallblas.batched import batched_larft
        from repro.smallblas.wy import extract_v, larft

        A = rng.standard_normal((6, 20, 5))
        VR, tau = batched_geqr2(A)
        assert np.allclose(
            larft(extract_v(VR), tau), batched_larft(VR, tau), atol=1e-12
        )

    def test_apply_wy_matches_reference_and_writes_in_place(self, rng):
        from repro.smallblas.batched import batched_apply_blocked
        from repro.smallblas.wy import apply_wy, wy_factors

        A = rng.standard_normal((8, 48, 12))
        VR, tau = batched_geqr2(A)
        V, T = wy_factors(VR, tau)
        C = rng.standard_normal((8, 48, 7))
        for transpose in (True, False):
            ref = batched_apply_blocked(VR, tau, C.copy(), transpose=transpose)
            got = C.copy()
            ret = apply_wy(V, T, got, transpose=transpose)
            assert ret is got  # in-place contract
            assert np.allclose(got, ref, atol=1e-11)

    def test_apply_wy_through_strided_view(self, rng):
        """The zero-copy reshape path: apply through a view of a 2-D matrix."""
        from repro.smallblas.batched import batched_apply_blocked
        from repro.smallblas.wy import apply_wy, wy_factors

        A = rng.standard_normal((6, 16, 4))
        VR, tau = batched_geqr2(A)
        V, T = wy_factors(VR, tau)
        B = rng.standard_normal((96, 5))
        tiles = B[:96].reshape(6, 16, 5)
        assert np.shares_memory(tiles, B)
        ref = batched_apply_blocked(VR, tau, np.ascontiguousarray(tiles))
        apply_wy(V, T, tiles)
        assert np.allclose(B.reshape(6, 16, 5), ref, atol=1e-11)

    def test_block_qr_matches_reference(self, rng):
        from repro.smallblas.wy import block_qr, geqrt_side

        shapes = [(7, 20, 11), (3, 6, 10), (5, 64, 16), (1, 8, 8), (4, 1, 3), (2, 9, 1), (2, 5, 5)]
        shapes.append((3, 512, 32))  # geqrt side
        assert geqrt_side(512, 32) and not geqrt_side(64, 16)
        for shape in shapes:
            A = rng.standard_normal(shape)
            if shape[1] > 2 and shape[0] > 1:
                A[0, 1:, 0] = 0.0  # already-reduced column
                A[1, :, :] = 0.0  # fully zero block
            A0 = A.copy()
            qr = block_qr(A)
            assert np.array_equal(A, A0), "input must not be mutated"
            VR0, tau0 = batched_geqr2(A)
            assert np.allclose(qr.packed(), VR0, atol=1e-11), shape
            assert np.allclose(qr.tau, tau0, atol=1e-11), shape

    def test_block_qr_wy_reconstructs(self, rng):
        from repro.smallblas.wy import apply_wy, block_qr

        for b, m, n in [(5, 24, 9), (3, 1024, 64)]:
            A = rng.standard_normal((b, m, n))
            qr = block_qr(A)
            QR = np.concatenate([qr.R, np.zeros((b, m - n, n))], axis=1)
            apply_wy(qr.V, qr.T, QR, transpose=False)  # Q @ [R; 0] == A
            assert np.allclose(QR, A, atol=1e-11)

    def test_block_qr_float32(self, rng):
        from repro.smallblas.wy import block_qr

        for shape in [(4, 32, 8), (2, 1024, 64)]:
            A = rng.standard_normal(shape).astype(np.float32)
            qr = block_qr(A)
            assert qr.packed().dtype == qr.tau.dtype == qr.V.dtype == qr.T.dtype == np.float32
            VR0, tau0 = batched_geqr2(A)
            assert np.allclose(qr.packed(), VR0, atol=1e-4)

    def test_block_qr_rejects_bad_shape(self):
        from repro.smallblas.wy import block_qr

        with np.testing.assert_raises(ValueError):
            block_qr(np.zeros((4, 5)))
