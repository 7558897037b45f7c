"""Look-ahead executor: correctness vs serial CAQR, bit-identity contracts."""

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.graph import caqr_lookahead, form_q_columns
from repro.runtime import ExecutionPolicy

SHAPES = [
    ((1000, 50), {}),
    ((257, 48), {}),  # ragged last block
    ((120, 200), {}),  # wide
    ((63, 17), {}),  # single panel-ish, shorter than block_rows
    ((500, 40), {"tree_shape": "binomial"}),
    ((500, 40), {"tree_shape": "flat"}),
    ((130, 10), {"panel_width": 7, "block_rows": 8}),  # tiny ragged tail
]


def _residuals(A, f):
    Q = f.form_q()
    resid = np.linalg.norm(Q @ f.R - A) / np.linalg.norm(A)
    orth = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))
    return resid, orth


@pytest.mark.parametrize("shape,kw", SHAPES)
def test_matches_serial_batched(shape, kw):
    rng = np.random.default_rng(7)
    A = rng.standard_normal(shape)
    f = caqr_lookahead(A, policy=ExecutionPolicy(path="lookahead", **kw))
    ref = caqr(A, policy=ExecutionPolicy(**kw))
    resid, orth = _residuals(A, f)
    assert resid < 1e-13
    assert orth < 1e-12
    assert np.max(np.abs(f.R - ref.R)) < 1e-14 * np.linalg.norm(A)


@pytest.mark.parametrize("shape,kw", SHAPES)
def test_threaded_bit_identical_to_serial(shape, kw):
    """Same tiling (workers), different engine (threaded) -> same bits."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal(shape)
    policy = ExecutionPolicy(path="lookahead", workers=3, **kw)
    ft = caqr_lookahead(A, threaded=True, policy=policy)
    fs = caqr_lookahead(A, threaded=False, policy=policy)
    assert np.array_equal(ft.R, fs.R)
    assert np.array_equal(ft.form_q(), fs.form_q())


def test_lookahead_false_matches_lookahead_true():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((600, 96))
    fa = caqr_lookahead(A, policy=ExecutionPolicy(path="lookahead", workers=3))
    policy = ExecutionPolicy(path="lookahead", lookahead_edge=False, workers=3)
    fb = caqr_lookahead(A, policy=policy)
    # The barrier graph runs the same tasks in a compatible order; the
    # per-task arithmetic is identical, so so are the results.
    assert np.array_equal(fa.R, fb.R)


def test_apply_qt_apply_q_match_reference():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((800, 64))
    B = rng.standard_normal((800, 5))
    f = caqr_lookahead(A)
    ref = caqr(A, policy=ExecutionPolicy())
    assert np.max(np.abs(f.apply_qt(B.copy()) - ref.apply_qt(B.copy()))) < 1e-12
    assert np.max(np.abs(f.apply_q(B.copy()) - ref.apply_q(B.copy()))) < 1e-12
    # 1-D right-hand side round-trips like the reference factors.
    b = rng.standard_normal(800)
    out = f.apply_q(f.apply_qt(b.copy()))
    assert np.allclose(out, b)


def test_form_q_columns_bit_identity_and_accuracy():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((700, 90))
    ft = caqr_lookahead(A, policy=ExecutionPolicy(path="lookahead", workers=3))
    Qt = form_q_columns(ft, workers=3, threaded=True)
    Qs = form_q_columns(ft, workers=3, threaded=False)
    assert np.array_equal(Qt, Qs)
    assert np.allclose(Qt, ft.form_q(), atol=1e-12)


def test_form_q_columns_tsqr_factors():
    from repro.core.tsqr import tsqr

    rng = np.random.default_rng(13)
    A = rng.standard_normal((900, 70))
    f = tsqr(A)
    Qc = form_q_columns(f, workers=3)
    assert np.allclose(Qc, f.form_q(), atol=1e-12)
    assert np.allclose(Qc @ f.R, A, atol=1e-10)


def test_float32_supported():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((500, 60)).astype(np.float32)
    f = caqr_lookahead(A, policy=ExecutionPolicy(path="lookahead", workers=2))
    assert f.R.dtype == np.float32
    Q = f.form_q()
    assert Q.dtype == np.float32
    assert np.linalg.norm(Q @ f.R - A) / np.linalg.norm(A) < 1e-5


def test_plumbed_through_caqr():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((400, 60))
    f = caqr(A, policy=ExecutionPolicy(path="lookahead", workers=2))
    resid, orth = _residuals(A, f)
    assert resid < 1e-13 and orth < 1e-12


def test_rejects_non_lookahead_policy():
    A = np.random.default_rng(29).standard_normal((64, 8))
    with pytest.raises(ValueError, match="'lookahead' path"):
        caqr_lookahead(A, policy=ExecutionPolicy(path="batched"))


def test_bad_inputs():
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError):
        caqr_lookahead(rng.standard_normal(8))
    with pytest.raises(ValueError):
        policy = ExecutionPolicy(path="lookahead", panel_width=0)
        caqr_lookahead(rng.standard_normal((8, 4)), policy=policy)
    with pytest.raises(ValueError):
        policy = ExecutionPolicy(path="lookahead", workers=0)
        caqr_lookahead(rng.standard_normal((8, 4)), policy=policy)
    f = caqr_lookahead(rng.standard_normal((64, 8)))
    with pytest.raises(ValueError):
        f.apply_qt(rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        f.apply_q(rng.standard_normal((5, 2)))
