"""Tests of the fused IALM update against the textbook formulas.

Every iteration after the singular-value threshold is one pass of
:func:`repro.rpca.ialm.ialm_update`.  These tests write the unfused
formulas out and require the same bits for ``S``, ``Y`` and the next
threshold input ``X``; only the residual norm's summation order differs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.rpca.graphs import emit_ialm_layers
from repro.rpca.ialm import _spectral_norm, ialm_update, rpca_ialm
from repro.rpca.shrinkage import shrink
from repro.rpca.svt import singular_value_threshold
from repro.rpca.video import generate_video


def textbook_shrink(X, tau):
    return np.sign(X) * np.maximum(np.abs(X) - tau, 0.0)


def textbook_update(M, L, Y, mu, mu_next, lam):
    """The update as the unfused formulas write it: (S, Y, X, ||R||_F)."""
    S = textbook_shrink(M - L + Y / mu, lam / mu)
    R = M - L - S
    Y = Y + mu * R
    X = M - S + Y / mu_next
    return S, Y, X, np.linalg.norm(R)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal((3000, 40)),
            lambda rng: rng.standard_normal((30, 500)),
            lambda rng: rng.standard_normal((800, 3)) @ rng.standard_normal((3, 60)),
            lambda rng: rng.standard_normal((60, 4)) @ rng.standard_normal((4, 700)),
            lambda rng: 1e150 * rng.standard_normal((2000, 30)),
            lambda rng: 1e-160 * rng.standard_normal((2000, 30)),
        ],
        ids=["tall", "wide", "rank-deficient-tall", "rank-deficient-wide", "1e150", "1e-160"],
    )
    def test_matches_lapack(self, rng, make):
        M = make(rng)
        assert rel(_spectral_norm(M), np.linalg.norm(M, 2)) <= 1e-12


class TestShrinkKernel:
    @pytest.fixture
    def data(self, rng):
        tau = 0.375
        x = rng.standard_normal(4000)
        x[:50] = 0.0
        x[50:100] = -0.0
        x[100:150] = tau
        x[150:200] = -tau
        return rng.permutation(x).reshape(80, 50), tau

    def test_equals_sign_max_formula(self, data):
        X, tau = data
        assert np.array_equal(shrink(X, tau), textbook_shrink(X, tau))

    def test_out_aliasing_input(self, data):
        X, tau = data
        want = textbook_shrink(X, tau)
        Z = X.copy()
        assert shrink(Z, tau, out=Z) is Z
        assert np.array_equal(Z, want)

    def test_out_separate(self, data):
        X, tau = data
        before = X.copy()
        out = np.empty_like(X)
        assert shrink(X, tau, out=out) is out
        assert np.array_equal(out, textbook_shrink(X, tau))
        assert np.array_equal(X, before)


# (shape, layout, dtype, svd) of the one-iteration cases: a height that
# is not a multiple of the block height, a Fortran-ordered M, float32
# input, and a wide matrix through LAPACK's SVD.
CASES = {
    "1037x37": ((1037, 37), "C", np.float64, None),
    "fortran": ((1037, 37), "F", np.float64, None),
    "float32": ((1037, 37), "C", np.float32, None),
    "wide-lapack": ((40, 300), "C", np.float64, lambda X: np.linalg.svd(X, full_matrices=False)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    shape, order, dtype, svd = CASES[request.param]
    rng = np.random.default_rng(7)
    m, n = shape
    L0 = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    S0 = np.where(rng.random(shape) < 0.05, 10.0 * rng.standard_normal(shape), 0.0)
    M = np.asarray(L0 + S0, dtype=dtype, order=order)
    return M, svd


class TestFusedUpdate:
    def test_step_matches_textbook(self, case):
        M, _ = case
        M = M.astype(np.float64, order="K")
        rng = np.random.default_rng(3)
        L = rng.standard_normal(M.shape)
        Y = 0.01 * rng.standard_normal(M.shape)
        mu, lam = 0.7, 1.0 / np.sqrt(max(M.shape))
        S_want, Y_want, X_want, r_want = textbook_update(M, L, Y, mu, 1.5 * mu, lam)
        S = np.full_like(M, np.nan)
        X = np.full_like(M, np.nan)
        r = ialm_update(M, L, S, Y, X, mu, 1.5 * mu, lam)
        assert np.array_equal(S, S_want)
        assert np.array_equal(Y, Y_want)
        assert np.array_equal(X, X_want)
        assert rel(r, r_want) <= 1e-14

    def test_one_iteration_matches_textbook(self, case):
        M, svd = case
        seen = []

        def svt(X, tau):
            seen.append(X.copy())
            return singular_value_threshold(X, tau, svd=svd)

        mu, rho = 0.02, 1.5
        first = rpca_ialm(M, mu=mu, rho=rho, tol=0.0, max_iter=1, svd=svd)
        rpca_ialm(M, mu=mu, rho=rho, tol=0.0, max_iter=2, svt=svt)

        M = M.astype(np.float64)
        lam = 1.0 / np.sqrt(max(M.shape))
        Y = M / max(_spectral_norm(M), np.abs(M).max() / lam)
        X = M - np.zeros_like(M) + Y / mu
        assert np.array_equal(seen[0], X)
        L, _ = singular_value_threshold(X, 1.0 / mu, svd=svd)
        S, Y, X, r = textbook_update(M, L, Y, mu, mu * rho, lam)
        assert np.array_equal(first.L, L)
        assert np.array_equal(first.S, S)
        assert np.array_equal(seen[1], X)
        assert rel(first.residuals[0], r / np.linalg.norm(M)) <= 1e-14

    @pytest.mark.parametrize("engine", ["direct", "graph"])
    def test_caller_matrix_untouched(self, engine):
        M = generate_video(24, 32, 24, seed=9).M
        assert M.dtype == np.float64
        before = M.tobytes()
        rpca_ialm(M, tol=0.0, max_iter=4, engine=engine)
        assert M.tobytes() == before

    def test_svt_returning_its_input(self, rng):
        M = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 20))
        M += np.where(rng.random(M.shape) < 0.05, 5.0, 0.0)

        def in_place(X, tau):
            L, rank = singular_value_threshold(X, tau)
            X[...] = L
            return X, rank

        def fresh(X, tau):
            return singular_value_threshold(X, tau)

        a = rpca_ialm(M, tol=0.0, max_iter=6, svt=in_place)
        b = rpca_ialm(M, tol=0.0, max_iter=6, svt=fresh)
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.S, b.S)
        assert a.residuals == b.residuals

    def test_graph_stages(self):
        assert list(emit_ialm_layers(400, 30).layers) == ["qr", "svt", "update"]


def test_loop_allocates_no_matrix_temporaries():
    # Live matrix-sized arrays in the loop: Y, S, the threshold input X
    # and the threshold's output L — about 4 units of m*n*8 bytes.  The
    # unfused formulas peaked at 8 units.
    m, n = 20000, 50
    M = np.random.default_rng(0).standard_normal((m, n))
    tracemalloc.start()
    try:
        rpca_ialm(M, svt=lambda X, tau: (np.zeros_like(X), 0), tol=0.0, max_iter=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * m * n * 8
