"""Level-0 block height: the one ``level0_rows`` rule every host engine shares.

A requested ``block_rows >= width`` is honoured exactly, so those
geometries stay bit-identical to the old ``max(block_rows, width)`` rule.
A shorter request becomes ``16 * width`` rows — in TSQR, the CAQR panels,
``plan_qr``, the look-ahead schedule and the serving batch plan alike —
instead of square blocks that shrink nothing before the reduction tree.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.tsqr import level0_rows, tsqr
from repro.core.validation import sign_canonical
from repro.graph.executor import build_lookahead_schedule
from repro.runtime import ExecutionPolicy, plan_qr
from repro.serving import ServingPlan, stacked_qr

# Modules that bind ``level0_rows`` at import time (plan.py imports it
# lazily from repro.core.tsqr, so patching that module covers it).
_HOSTS = ("repro.core.tsqr", "repro.graph.executor", "repro.serving.batch")

FALLBACK = {"panel_width": 32, "block_rows": 16}


@pytest.fixture
def square_fallback(monkeypatch):
    """Swap in the old ``max(block_rows, width)`` rule for a comparison run."""

    def use():
        for name in _HOSTS:
            monkeypatch.setattr(
                importlib.import_module(name), "level0_rows", lambda br, w: max(br, w)
            )

    return use


def _hh_flops(h: int, w: int) -> float:
    """Householder QR flops of a dense ``h x w`` block (LAPACK's count)."""
    if h >= w:
        return 2.0 * w * w * (h - w / 3.0)
    return 2.0 * h * h * (w - h / 3.0)


def _block_heights(f) -> list[int]:
    return [b.rows[1] - b.rows[0] for b in f.blocks]


class TestRule:
    @pytest.mark.parametrize(
        "br,w,want",
        [(64, 16, 64), (64, 64, 64), (512, 100, 512), (16, 32, 512), (64, 100, 1600), (1, 2, 32)],
    )
    def test_values(self, br, w, want):
        assert level0_rows(br, w) == want

    @pytest.mark.parametrize("br,w", [(64, 16), (16, 32), (64, 100)])
    def test_idempotent(self, br, w):
        # The executor passes an already-resolved height back into TSQR.
        assert level0_rows(level0_rows(br, w), w) == level0_rows(br, w)


class TestHonouredGeometryUnchanged:
    """``block_rows >= width``: block count and R equal the old rule's, bit for bit."""

    @pytest.mark.parametrize("path", ["batched", "seed"])
    def test_tsqr_4096x32_br64(self, rng, square_fallback, path):
        A = rng.standard_normal((4096, 32))
        policy = ExecutionPolicy(path=path, block_rows=64)
        f = tsqr(A, policy=policy)
        assert _block_heights(f) == [64] * 64
        square_fallback()
        g = tsqr(A, policy=policy)
        assert len(g.blocks) == len(f.blocks)
        np.testing.assert_array_equal(f.R, g.R)

    @pytest.mark.parametrize("path", ["batched", "lookahead"])
    def test_caqr_default_64x16(self, rng, square_fallback, path):
        A = rng.standard_normal((4096, 40))
        policy = ExecutionPolicy(path=path)  # the paper's 64 x 16 panels

        def heights():
            return [bh for _, _, _, bh, _ in build_lookahead_schedule(4096, 40, policy).panels]

        R = caqr(A, policy=policy).R
        assert heights() == [64, 64, 64]
        square_fallback()
        assert heights() == [64, 64, 64]
        np.testing.assert_array_equal(caqr(A, policy=policy).R, R)


class TestFallbackGeometry:
    """``block_rows < width``: every engine uses ``16 * width``-row blocks."""

    M, N = 2048, 80  # panels of width 32, 32 and 16 under FALLBACK

    def test_tsqr_blocks(self, rng):
        f = tsqr(rng.standard_normal((2048, 32)), policy=ExecutionPolicy(block_rows=16))
        assert _block_heights(f) == [512] * 4

    def test_every_engine_agrees_on_heights(self, rng):
        # The 16-wide last panel honours block_rows=16 as requested.
        want = [512, 512, 16]
        policy = ExecutionPolicy(**FALLBACK)
        A = rng.standard_normal((self.M, self.N))
        f = caqr(A, policy=policy)
        assert [p.factors.blocks[0].rows[1] for p in f.panels] == want
        assert [p.block_rows for p in plan_qr(self.M, self.N, policy=policy).panels] == want
        sched = build_lookahead_schedule(self.M, self.N, policy)
        assert [bh for _, _, _, bh, _ in sched.panels] == want
        serving = ServingPlan(self.M, self.N, np.float64, policy)
        assert [p.ranges[0][1] for p in serving.panels] == want

    def test_engines_bit_identical(self, rng):
        A = rng.standard_normal((self.M, self.N))
        batched = ExecutionPolicy(path="batched", **FALLBACK)
        R = caqr(A, policy=batched).R
        _, R_plan = plan_qr(self.M, self.N, policy=batched).execute(A)
        lookahead = ExecutionPolicy(path="lookahead", **FALLBACK)
        _, R_la = plan_qr(self.M, self.N, policy=lookahead).execute(A)
        _, R_srv = stacked_qr([A], ServingPlan(self.M, self.N, np.float64, batched))
        np.testing.assert_array_equal(R_plan, R)
        np.testing.assert_array_equal(R_la, R)
        np.testing.assert_array_equal(R_srv[0], R)


def _shapes():
    for n in (65, 100, 192):
        for m in (n, 16 * n - 1, 16 * n, 16 * n + 1, 20000):
            yield m, n


class TestAccuracy:
    """The default ``block_rows=64`` is below every width here, so each
    case runs the ``16 * width`` fallback (single block, exact fit, a
    one-row ragged tail, and many blocks)."""

    @pytest.mark.parametrize("path", ["batched", "seed"])
    @pytest.mark.parametrize("m,n", list(_shapes()))
    def test_matches_lapack(self, m, n, path):
        A = np.random.default_rng(m + n).standard_normal((m, n))
        f = tsqr(A, policy=ExecutionPolicy(path=path))
        Q = f.form_q()
        _, R = sign_canonical(Q, f.R)
        _, R_np = sign_canonical(np.zeros((m, n)), np.linalg.qr(A, mode="r"))
        assert np.linalg.norm(R - R_np) <= 1e-12 * np.linalg.norm(R_np)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("path", ["batched", "seed"])
    def test_float32_stays_float32(self, path):
        A = np.random.default_rng(3).standard_normal((3000, 100)).astype(np.float32)
        f = tsqr(A, policy=ExecutionPolicy(path=path))
        Q = f.form_q()
        assert f.R.dtype == Q.dtype == np.float32
        assert np.linalg.norm(Q.T @ Q - np.eye(100)) <= 1e-4


def test_rpca_shape_householder_flops_near_one_geqrf(rng):
    """Deterministic flop guard: the default TSQR of the paper's RPCA
    matrix (110592 x 100) does at most 10% more Householder work than one
    ``geqrf``.  Square level-0 blocks cost about 1.9x."""
    m, n = 110592, 100
    f = tsqr(rng.standard_normal((m, n)))
    total = sum(_hh_flops(*b.VR.shape) for b in f.blocks)
    total += sum(
        _hh_flops(sum(node.heights), n) for level in f.tree_factors for node in level
    )
    assert total <= 1.10 * (2.0 * m * n * n - 2.0 / 3.0 * n**3)
