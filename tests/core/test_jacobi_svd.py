"""Tests for the one-sided Jacobi SVD substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.jacobi_svd import jacobi_svd, round_robin_schedule, svd_via_jacobi


class TestJacobiSVD:
    @pytest.mark.parametrize("m,n", [(10, 10), (30, 8), (100, 5), (6, 1)])
    def test_reconstruction(self, rng, m, n):
        A = rng.standard_normal((m, n))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)

    def test_singular_values_match_numpy(self, rng):
        A = rng.standard_normal((40, 12))
        _, s, _ = jacobi_svd(A)
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-10)

    def test_descending_nonnegative(self, rng):
        _, s, _ = jacobi_svd(rng.standard_normal((20, 7)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_factors_orthonormal(self, rng):
        A = rng.standard_normal((25, 9))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose(U.T @ U, np.eye(9), atol=1e-11)
        assert np.allclose(Vt @ Vt.T, np.eye(9), atol=1e-11)

    def test_on_triangular_r_factor(self, rng):
        # The library's actual use: SVD of the n x n R from QR.
        R = np.triu(rng.standard_normal((16, 16)))
        U, s, Vt = jacobi_svd(R)
        assert np.allclose((U * s) @ Vt, R, atol=1e-11)

    def test_rank_deficient(self, rng):
        B = rng.standard_normal((20, 3))
        A = B @ rng.standard_normal((3, 8))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-10)
        assert np.sum(s > 1e-10 * s[0]) == 3

    def test_zero_matrix(self):
        U, s, Vt = jacobi_svd(np.zeros((5, 3)))
        assert np.allclose(s, 0.0)
        assert np.allclose((U * s) @ Vt, 0.0)

    def test_ill_conditioned_high_relative_accuracy(self, matrix_factory):
        A = matrix_factory(50, 10, cond=1e10)
        _, s, _ = jacobi_svd(A)
        s_np = np.linalg.svd(A, compute_uv=False)
        # Jacobi attains high *relative* accuracy on the small values too.
        assert np.allclose(s, s_np, rtol=1e-6, atol=1e-15)

    def test_wide_requires_transpose(self, rng):
        with pytest.raises(ValueError):
            jacobi_svd(rng.standard_normal((3, 7)))

    def test_empty_columns(self):
        U, s, Vt = jacobi_svd(np.zeros((4, 0)))
        assert s.shape == (0,)

    def test_identity(self):
        U, s, Vt = jacobi_svd(np.eye(6))
        assert np.allclose(s, 1.0)


class TestSvdViaJacobi:
    def test_wide_matrix(self, rng):
        A = rng.standard_normal((5, 12))
        U, s, Vt = svd_via_jacobi(A)
        assert U.shape == (5, 5)
        assert Vt.shape == (5, 12)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)

    def test_tall_delegates(self, rng):
        A = rng.standard_normal((12, 5))
        U, s, Vt = svd_via_jacobi(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)


class TestUnderflowRegression:
    def test_denormal_scale_columns_converge(self, rng):
        """Regression: alpha*beta underflow used to make convergence
        detection divide by zero and spin to the sweep cap."""
        A = rng.standard_normal((12, 6))
        A[:, 3] *= 1e-160
        A[:, 4] *= 1e-165
        U, s, Vt = jacobi_svd(A)
        assert np.all(np.isfinite(s))
        assert np.allclose((U * s) @ Vt, A, atol=1e-10)

    def test_uniformly_tiny_matrix(self, rng):
        A = 1e-170 * rng.standard_normal((10, 4))
        U, s, Vt = jacobi_svd(A)
        assert np.all(np.isfinite(s))
        # Relative reconstruction still holds at denormal scale.
        assert np.linalg.norm((U * s) @ Vt - A) <= 1e-8 * np.linalg.norm(A)


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    def test_every_pair_once_per_sweep(self, n):
        P, Q = round_robin_schedule(n)
        n_pad = n + n % 2
        assert P.shape == Q.shape == (n_pad - 1, n_pad // 2)
        assert np.all(P < Q)
        for p, q in zip(P, Q):  # the pairs of one round are disjoint
            assert len(set(p) | set(q)) == n_pad
        pairs = [(int(p), int(q)) for p, q in zip(P.ravel(), Q.ravel()) if q < n]
        expected = [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert sorted(pairs) == expected


class TestRoundRobinSweeps:
    def test_paper_shape_r_factor_matches_lapack(self, rng):
        # Section VI-B: the SVD of the 100 x 100 R of a tall-skinny QR.
        R = np.triu(rng.standard_normal((100, 100)))
        U, s, Vt = jacobi_svd(R)
        s_np = np.linalg.svd(R, compute_uv=False)
        assert np.max(np.abs(s - s_np)) <= 1e-13 * s_np[0]
        assert np.linalg.norm(U.T @ U - np.eye(100)) <= 1e-12
        assert np.linalg.norm(Vt.T @ Vt - np.eye(100)) <= 1e-12
        assert np.linalg.norm((U * s) @ Vt - R) <= 1e-13 * np.linalg.norm(R)

    def test_sweep_cap_still_raises(self, rng):
        with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
            jacobi_svd(rng.standard_normal((30, 30)), max_sweeps=1)

    @pytest.mark.parametrize("m,n", [(9, 7), (5, 5), (13, 1), (1, 1)])
    def test_odd_and_single_column_shapes(self, rng, m, n):
        A = rng.standard_normal((m, n))
        U, s, Vt = jacobi_svd(A)
        assert U.shape == (m, n) and s.shape == (n,) and Vt.shape == (n, n)
        assert np.allclose((U * s) @ Vt, A, atol=1e-12)
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-12)
