"""The one level-0 Householder kernel, :func:`repro.smallblas.wy.block_qr`.

It factors every level-0 block and tree node of every host engine, on
LAPACK ``geqrt`` for tall blocks with enough work and on the stacked-QR
gufunc otherwise.  The tests cover both sides of the crossover, the
engines' bit-identity at a geqrt-side geometry, and ``form_q``'s
zero-skipping level-0 step.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.tsqr import tsqr
from repro.runtime import ExecutionPolicy, plan_qr
from repro.serving import ServingPlan, stacked_qr
from repro.smallblas import wy
from repro.smallblas.wy import GEQRT_MIN_WORK, block_qr, geqrt_side

# (h, w) per side: the paper's 64x16 and a 16-row fragment stay on the
# gufunc; the RPCA level-0 block, a quad-tree node of it and the
# 1024x64 host geometry go to geqrt.
GUFUNC_SHAPES = [(64, 16), (16, 16), (200, 8), (12, 20)]
GEQRT_SHAPES = [(1600, 100), (400, 100), (1024, 64), (512, 32)]


@pytest.fixture
def geqrt_calls(monkeypatch):
    """Count the blocks factored by LAPACK geqrt (either precision)."""
    calls = []
    real = wy._lapack

    class Counting:
        def __getattr__(self, name):
            fn = getattr(real, name)
            if name not in ("dgeqrt", "sgeqrt"):
                return fn

            def counted(*args, **kw):
                calls.append(name)
                return fn(*args, **kw)

            return counted

    monkeypatch.setattr(wy, "_lapack", Counting())
    return calls


def _canon(R):
    """Rows of R scaled so its diagonal is non-negative."""
    d = np.sign(np.diagonal(R)).copy()
    d[d == 0] = 1.0
    return d[:, None] * R


class TestRule:
    def test_sides(self):
        for h, w in GUFUNC_SHAPES:
            assert not geqrt_side(h, w), (h, w)
        for h, w in GEQRT_SHAPES:
            assert geqrt_side(h, w), (h, w)
        # The paper's C2050 blocks sit a factor 4 below the crossover.
        assert 4 * 64 * 16 * 16 == GEQRT_MIN_WORK

    def test_reads_only_the_block_shape(self, geqrt_calls):
        assert list(inspect.signature(geqrt_side).parameters) == ["h", "w"]
        rng = np.random.default_rng(0)
        for batch in (1, 3, 40):
            del geqrt_calls[:]
            block_qr(rng.standard_normal((batch, 64, 16)))
            assert geqrt_calls == []
            block_qr(rng.standard_normal((batch, 512, 32)).astype(np.float32))
            assert geqrt_calls == ["sgeqrt"] * batch


@pytest.mark.parametrize("h,w", GUFUNC_SHAPES + GEQRT_SHAPES)
class TestKernel:
    def test_r_matches_lapack(self, h, w):
        A = np.random.default_rng(h + w).standard_normal((3, h, w))
        qr = block_qr(A)
        for b in range(3):
            R_np = np.linalg.qr(A[b], mode="r")
            err = np.linalg.norm(_canon(qr.R[b]) - _canon(R_np))
            assert err <= 1e-13 * np.linalg.norm(R_np)
            assert np.array_equal(qr.R[b], np.triu(qr.R[b]))

    def test_t_diagonal_is_tau_and_q_orthogonal(self, h, w):
        A = np.random.default_rng(1).standard_normal((2, h, w))
        qr = block_qr(A)
        assert np.array_equal(qr.tau, np.diagonal(qr.T, axis1=1, axis2=2))
        for b in range(2):
            V, T = qr.V[b], qr.T[b]
            Q = np.eye(h) - V @ T @ V.T
            assert np.linalg.norm(Q.T @ Q - np.eye(h)) <= 1e-13 * h
            k = min(h, w)
            R0 = np.vstack([qr.R[b], np.zeros((h - k, w))])
            assert np.allclose(Q @ R0, A[b], atol=1e-13 * np.linalg.norm(A[b]))

    def test_zero_and_duplicate_columns(self, h, w):
        if w < 3:
            pytest.skip("needs three columns")
        A = np.random.default_rng(2).standard_normal((2, h, w))
        A[:, :, 1] = 0.0
        A[:, :, 2] = A[:, :, 0]
        qr = block_qr(A)
        assert np.all(qr.tau[:, 1] == 0.0)
        scale = np.linalg.norm(A[0])
        assert np.all(np.abs(qr.R[:, 1, 1]) == 0.0)
        assert np.all(np.abs(qr.R[:, 2, 2]) <= 1e-13 * scale)
        assert np.isfinite(qr.T).all()

    def test_float32_stays_float32(self, h, w):
        A = np.random.default_rng(3).standard_normal((2, h, w)).astype(np.float32)
        qr = block_qr(A)
        for a in (qr.R, qr.V, qr.T, qr.tau, qr.packed()):
            assert a.dtype == np.float32
        R_np = np.linalg.qr(A[0].astype(np.float64), mode="r")
        err = np.linalg.norm(_canon(qr.R[0].astype(np.float64)) - _canon(R_np))
        assert err <= 1e-5 * np.linalg.norm(R_np)

    def test_layouts_agree_bitwise(self, h, w):
        A = np.random.default_rng(4).standard_normal((3, h, w))
        ref = block_qr(A)
        buf = np.zeros((3, 2 * h, 2 * w))
        strided = buf[:, ::2, ::2]
        strided[...] = A
        for X in (np.asfortranarray(A), A.transpose(0, 2, 1).copy().transpose(0, 2, 1), strided):
            got = block_qr(X)
            for name in ("R", "V", "T", "tau"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(strided, A)  # input untouched

    def test_batch_invariance(self, h, w):
        A = np.random.default_rng(5).standard_normal((5, h, w))
        stacked = block_qr(A)
        for b in range(5):
            one = block_qr(A[b : b + 1])
            for name in ("R", "V", "T", "tau"):
                assert np.array_equal(getattr(stacked, name)[b], getattr(one, name)[0]), name
            assert np.array_equal(stacked.packed()[b], one.packed()[0])

    def test_packed_layout(self, h, w):
        A = np.random.default_rng(6).standard_normal((2, h, w))
        qr = block_qr(A)
        VR = qr.packed()
        k = min(h, w)
        assert np.array_equal(np.triu(VR[:, :k, :]), qr.R)
        assert np.array_equal(np.tril(VR[:, :, :k], -1), np.tril(qr.V, -1))


class TestEnginesAtGeqrtGeometry:
    """4096x192, panel_width=64, block_rows=16: 1024x64 level-0 blocks."""

    M, N = 4096, 192
    GEOM = {"panel_width": 64, "block_rows": 16}

    def test_r_bit_identical(self, geqrt_calls):
        A = np.random.default_rng(7).standard_normal((self.M, self.N))
        batched = ExecutionPolicy(path="batched", **self.GEOM)
        R = caqr(A, policy=batched).R
        assert geqrt_calls, "the geometry must reach the geqrt side"
        _, R_plan = plan_qr(self.M, self.N, policy=batched).execute(A)
        lookahead = ExecutionPolicy(path="lookahead", **self.GEOM)
        _, R_la = plan_qr(self.M, self.N, policy=lookahead).execute(A)
        _, R_srv = stacked_qr([A], ServingPlan(self.M, self.N, np.float64, batched))
        np.testing.assert_array_equal(R_plan, R)
        np.testing.assert_array_equal(R_la, R)
        np.testing.assert_array_equal(R_srv[0], R)
        R_np = np.linalg.qr(A, mode="r")
        assert np.linalg.norm(_canon(R) - _canon(R_np)) <= 1e-12 * np.linalg.norm(R_np)


def _apply_q_identity(f, dtype):
    k = min(f.m, f.n)
    Q = np.zeros((f.m, k), dtype=dtype)
    np.fill_diagonal(Q, 1.0)
    return f.apply_q(Q)


class TestFormQ:
    """``form_q`` skips the known-zero rows of ``[C_b; 0]`` at level 0.

    Mathematically it equals ``apply_q([I; 0])``; in floating point it
    is exact only where both run the same GEMMs (a single block, whose
    ``C`` is the identity, and ``h == k``).  Elsewhere the shorter GEMM
    inner dimension may round differently: OpenBLAS's dgemm sums a
    100-long product in a different order from a 1600-long one whose
    tail is zeros.  Those cases must agree to a few ulps.
    """

    @pytest.mark.parametrize(
        "m,n,dtype,block_rows,exact",
        [
            (3300, 100, np.float64, 64, False),  # 1600-row blocks + 100-row ragged tail
            (1600, 100, np.float64, 64, True),  # a single block
            (3000, 100, np.float32, 64, False),
            (4096, 64, np.float64, 1024, False),
            (512, 32, np.float64, 32, True),  # h == k: square blocks
            (4096, 16, np.float64, 64, False),  # gufunc side, paper blocks
        ],
    )
    def test_matches_apply_q(self, m, n, dtype, block_rows, exact):
        A = np.random.default_rng(m + n).standard_normal((m, n)).astype(dtype)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=block_rows))
        Q = f.form_q()
        ref = _apply_q_identity(f, dtype)
        assert Q.dtype == ref.dtype == dtype
        if exact:
            assert np.array_equal(Q, ref)
        else:
            eps = np.finfo(dtype).eps
            assert np.max(np.abs(Q - ref)) <= 8 * eps
        k = min(m, n)
        tol = 1e-12 if dtype == np.float64 else 1e-4
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) <= tol
        assert np.linalg.norm(A - Q @ f.R) <= tol * np.linalg.norm(A)

    def test_seed_path_unchanged(self):
        A = np.random.default_rng(8).standard_normal((700, 20))
        f = tsqr(A, policy=ExecutionPolicy(path="seed", block_rows=64))
        assert np.array_equal(f.form_q(), _apply_q_identity(f, np.float64))
