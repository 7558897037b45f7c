"""Unit and integration tests for TSQR."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.core.tsqr import row_blocks, tsqr, tsqr_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
    triangularity_error,
)
from repro.runtime import ExecutionPolicy


class TestRowBlocks:
    def test_exact_division(self):
        assert row_blocks(128, 64) == [(0, 64), (64, 128)]

    def test_short_last_block(self):
        assert row_blocks(100, 64) == [(0, 64), (64, 100)]

    def test_single_block(self):
        assert row_blocks(30, 64) == [(0, 30)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            row_blocks(0, 64)
        with pytest.raises(ValueError):
            row_blocks(10, 0)


class TestTSQRFactorization:
    @pytest.mark.parametrize("tree_shape", ["binary", "quad", "binomial", "flat"])
    @pytest.mark.parametrize("m,n,br", [(256, 16, 64), (1000, 13, 64), (130, 16, 64), (64, 16, 64)])
    def test_qr_quality(self, rng, tree_shape, m, n, br):
        A = rng.standard_normal((m, n))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=br, tree_shape=tree_shape))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12
        assert triangularity_error(R) == 0.0

    def test_r_matches_scipy_canonical(self, rng):
        A = rng.standard_normal((512, 24))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        R_sp = scipy.linalg.qr(A, mode="r")[0][:24]
        _, R_c = sign_canonical(Q, R)
        _, R_sp_c = sign_canonical(np.zeros((24, 24)), R_sp)
        assert np.allclose(R_c, R_sp_c, atol=1e-10)

    def test_block_rows_smaller_than_width_auto_bumped(self, rng):
        # block_rows=8 < n=16 must still produce a valid factorization.
        A = rng.standard_normal((200, 16))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=8))
        assert factorization_error(A, Q, R) < 1e-13

    def test_single_block_degenerates_to_geqr2(self, rng):
        A = rng.standard_normal((40, 10))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        assert f.tree.n_levels == 0
        assert len(f.blocks) == 1
        assert factorization_error(A, f.form_q(), f.R) < 1e-13

    def test_wide_matrix(self, rng):
        A = rng.standard_normal((10, 25))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        Q = f.form_q()
        assert Q.shape == (10, 10)
        assert f.R.shape == (10, 25)
        assert factorization_error(A, Q, f.R) < 1e-13

    def test_extreme_aspect_ratio(self, rng):
        # s-step Krylov territory: thousands of rows, < 10 columns.
        A = rng.standard_normal((5000, 4))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12

    def test_m_equals_n(self, rng):
        A = rng.standard_normal((32, 32))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=16))
        assert factorization_error(A, Q, R) < 1e-13

    def test_one_column(self, rng):
        A = rng.standard_normal((300, 1))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        assert Q.shape == (300, 1)
        assert abs(abs(R[0, 0]) - np.linalg.norm(A)) < 1e-10

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            tsqr(rng.standard_normal(10))


class TestTSQRApply:
    def test_apply_qt_then_q_roundtrip(self, rng):
        A = rng.standard_normal((320, 12))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        B = rng.standard_normal((320, 7))
        out = f.apply_qt(B.copy())
        out = f.apply_q(out)
        assert np.allclose(out, B, atol=1e-12)

    def test_apply_qt_to_a_gives_r_on_top(self, rng):
        A = rng.standard_normal((256, 10))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        QtA = f.apply_qt(A.copy())
        assert np.allclose(np.triu(QtA[:10]), f.R, atol=1e-12)
        # Everything outside the distributed R rows is annihilated.
        assert np.linalg.norm(QtA[10:]) < 1e-10

    def test_apply_q_matches_explicit(self, rng):
        A = rng.standard_normal((192, 8))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        Q = f.form_q()
        B = rng.standard_normal((8, 5))
        expanded = np.vstack([B, np.zeros((192 - 8, 5))])
        got = f.apply_q(expanded.copy())
        assert np.allclose(got, Q @ B, atol=1e-12)

    def test_row_mismatch_raises(self, rng):
        f = tsqr(rng.standard_normal((128, 8)), policy=ExecutionPolicy(block_rows=64))
        with pytest.raises(ValueError):
            f.apply_qt(np.zeros((64, 2)))

    def test_apply_is_in_place_view_safe(self, rng):
        A = rng.standard_normal((128, 6))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        big = rng.standard_normal((128, 10))
        view = big[:, 2:8]
        before = big[:, :2].copy()
        f.apply_qt(view)
        assert np.array_equal(big[:, :2], before)


class TestTreeShapeEquivalence:
    def test_all_shapes_same_r_up_to_signs(self, rng):
        A = rng.standard_normal((640, 16))
        rs = []
        for shape in ["binary", "quad", "binomial", "flat"]:
            Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64, tree_shape=shape))
            _, Rc = sign_canonical(Q, R)
            rs.append(Rc)
        for R in rs[1:]:
            assert np.allclose(R, rs[0], atol=1e-10)

    def test_quad_tree_group_arity_respects_paper(self, rng):
        # 64x16 blocks: 4 Rs fit per block -> quad groups.
        policy = ExecutionPolicy(block_rows=64, tree_shape="quad")
        f = tsqr(rng.standard_normal((1024, 16)), policy=policy)
        for level in f.tree_factors:
            for tf in level:
                assert len(tf.group) <= 4
