"""Benchmarks of the actual NumPy numerics (not the GPU model).

These measure the from-scratch implementations' real wall-clock on this
host — useful for regression tracking of the library itself, and for the
(host-scale) analogue of the paper's claim that TSQR reads the tall
matrix once while column-wise Householder sweeps it repeatedly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocked import geqrf
from repro.core.caqr import caqr
from repro.core.cholesky_qr import cholesky_qr
from repro.core.householder import geqr2
from repro.core.jacobi_svd import jacobi_svd
from repro.core.tsqr import tsqr
from repro.rpca.ialm import rpca_ialm


@pytest.fixture(scope="module")
def tall(rng_mod=np.random.default_rng(7)):
    return rng_mod.standard_normal((20_000, 32))


def test_bench_tsqr_tall(benchmark, tall):
    f = benchmark(tsqr, tall, 512, "quad")
    assert f.R.shape == (32, 32)


def test_bench_blocked_householder_tall(benchmark, tall):
    VR, tau = benchmark(geqrf, tall, 32)
    assert tau.shape == (32,)


def test_bench_cholesky_qr_tall(benchmark, tall):
    Q, R = benchmark(cholesky_qr, tall)
    assert Q.shape == tall.shape


def test_bench_geqr2_block(benchmark):
    A = np.random.default_rng(3).standard_normal((128, 16))
    VR, tau = benchmark(geqr2, A)
    assert tau.shape == (16,)


def test_bench_caqr_small_grid(benchmark):
    A = np.random.default_rng(4).standard_normal((1024, 64))
    f = benchmark(caqr, A, 16, 64, "quad")
    assert f.R.shape == (64, 64)


def test_bench_jacobi_svd_r_factor(benchmark):
    # Section VI-B shape: the 100 x 100 R of the 110592 x 100 video matrix.
    R = np.triu(np.random.default_rng(5).standard_normal((100, 100)))
    U, s, Vt = benchmark(jacobi_svd, R)
    assert s.shape == (100,)


def test_bench_rpca_iteration_scale(benchmark):
    from repro.rpca.video import generate_video

    v = generate_video(height=24, width=32, n_frames=24, seed=9)
    res = benchmark(rpca_ialm, v.M, None, None, 1.5, 1e-4, 25)
    assert res.n_iterations <= 25
